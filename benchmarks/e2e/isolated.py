"""Each layer called alone on a fixed slice of the workload's own input.

Beside the in-situ busy times of the traced pass these show what
queueing, IPC and the interpreter lock add.  A layer whose entry point
no longer exists reads ``None``.
"""

from __future__ import annotations

from time import perf_counter


def _guarded(measure):
    try:
        return measure()
    except (ImportError, AttributeError, TypeError):
        return None


def _us_per(seconds: float, count: int):
    return seconds / count * 1e6 if count else None


def measure_layers(config, lines: list[str], patterns_by_service: dict, batch_size: int, serve: bool) -> dict:
    """Isolated cost of every layer the workload uses, by metric name.

    *lines* is the slice as JSON lines; *patterns_by_service* the final
    DB's patterns (what the parser and the DB write path are fed).
    """
    from repro.core.ingest import StreamIngester

    out: dict = {}
    batches: list = []

    def ingest():
        began = perf_counter()
        batches.extend(StreamIngester(batch_size=batch_size).batches(lines))
        return _us_per(perf_counter() - began, len(lines))

    out["ingest.isolated_us_per_line"] = _guarded(ingest)
    records = [record for batch in batches for record in batch]
    by_service: dict[str, list[str]] = {}
    for record in records:
        by_service.setdefault(record.service, []).append(record.message)
    scanned: dict[str, list] = {}

    def scanner():
        from repro.scanner import build_scanner

        scan = build_scanner(config.scanner)
        began = perf_counter()
        for service, messages in by_service.items():
            scanned[service] = scan.scan_many(messages, service=service)
        return _us_per(perf_counter() - began, len(records))

    def parser():
        from repro.parser import build_parser

        parsers = {
            service: build_parser(patterns_by_service.get(service, []), config.parser)
            for service in scanned
        }
        for service, parser in parsers.items():
            parser.match_many(scanned[service][:1])  # lazy compilation
        began = perf_counter()
        for service, parser in parsers.items():
            parser.match_many(scanned[service])
        return _us_per(perf_counter() - began, len(records))

    def analyzer():
        from repro.analyzer import build_analyzer

        analyze = build_analyzer(config.analyzer).analyze
        partitions: dict[tuple[str, int], list] = {}
        for service, messages in scanned.items():
            for message in messages:
                partitions.setdefault((service, message.token_count()), []).append(message)
        began = perf_counter()
        for partition in partitions.values():
            analyze(partition)
        return _us_per(perf_counter() - began, len(records))

    def patterndb():
        from repro.core.patterndb import PatternDB

        patterns = [p for group in patterns_by_service.values() for p in group]
        db = PatternDB()
        began = perf_counter()
        with db.transaction():
            for pattern in patterns:
                db.upsert(pattern)
            db.record_matches({pattern.id: 1 for pattern in patterns})
        seconds = perf_counter() - began
        db.close()
        return _us_per(seconds, len(patterns))

    out["scanner.isolated_us_per_msg"] = _guarded(scanner)
    out["parser.isolated_us_per_msg"] = _guarded(parser)
    out["analyzer.isolated_us_per_msg"] = _guarded(analyzer)
    out["patterndb.isolated_us_per_row"] = _guarded(patterndb)
    if not serve:
        return out

    def framing():
        from repro.serve import FrameDecoder

        payload = ("\n".join(lines) + "\n").encode()
        decoder = FrameDecoder()
        frames = 0
        began = perf_counter()
        for offset in range(0, len(payload), 65_536):
            frames += len(decoder.feed(payload[offset : offset + 65_536]))
        return _us_per(perf_counter() - began, frames)

    def router():
        from repro.serve import ShardRouter

        queue = ShardRouter(n_shards=1, high_water=len(records) + 1, policy="block")
        began = perf_counter()
        for record in records:
            queue.offer(record)
        while queue.take_batch(batch_size)[1]:
            pass
        return _us_per(perf_counter() - began, len(records))

    out["serve.framing.isolated_us_per_frame"] = _guarded(framing)
    out["serve.router.isolated_us_per_record"] = _guarded(router)
    return out
