"""Command-line interface.

Mirrors the production entry points of the tool:

* ``sequence-rtg serve`` — the data-stream ingester (paper §III): reads
  JSON lines (``{"service": ..., "message": ...}``) from stdin or a
  file, analyses per batch, persists patterns to the database;
* ``sequence-rtg mine`` — ad-hoc analysis of a plain log file for one
  service ("use Sequence-RTG as an ad-hoc service ... from a file of
  messages to make patterns to save doing it by hand", §IV);
* ``sequence-rtg parse`` — match messages against the stored patterns;
* ``sequence-rtg export`` — the ``ExportPatterns`` function: render the
  stored patterns as syslog-ng patterndb XML, YAML or Logstash Grok,
  with the review-selection filters;
* ``sequence-rtg stats`` — database statistics;
* ``sequence-rtg metrics`` — a point-in-time metrics snapshot of the
  pattern database (Prometheus text or JSON); live scraping of a
  running miner is ``serve --metrics-port``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from repro.core.config import RTGConfig, StreamingConfig
from repro.core.export import FORMATS, export_patterns
from repro.core.ingest import StreamIngester
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.scanner.scanner import ScannerConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sequence-rtg",
        description="Efficient and production-ready pattern mining in system log messages",
    )
    parser.add_argument(
        "--db", default="sequence-rtg.db", help="pattern database path"
    )
    parser.add_argument(
        "--single-digit-time",
        action="store_true",
        help="enable the future-work datetime fix (single-digit time parts)",
    )
    parser.add_argument(
        "--path-fsm",
        action="store_true",
        help="enable the future-work path finite state machine",
    )
    parser.add_argument(
        "--durable-db",
        action="store_true",
        help="full-durability pattern DB (fsync per commit) instead of "
        "the default WAL + synchronous=NORMAL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="ingest a JSON-lines stream and analyse in batches")
    serve.add_argument("input", nargs="?", default="-", help="input file ('-' for stdin)")
    serve.add_argument("--batch-size", type=int, default=100_000)
    serve.add_argument("--save-threshold", type=int, default=1)
    serve.add_argument(
        "--listen",
        default=None,
        metavar="ENDPOINTS",
        help="serve over the network instead of reading a file: "
        "comma-separated tcp://host:port, unix:///path and "
        "http://host:port endpoints (framed JSONL on tcp/unix, "
        "POST /ingest on http; port 0 = ephemeral)",
    )
    serve.add_argument(
        "--high-water",
        type=int,
        default=0,
        metavar="N",
        help="network mode: per-shard queue bound in records before the "
        "overload policy applies (0 = 2x batch size split across shards)",
    )
    serve.add_argument(
        "--overload",
        choices=("block", "shed", "drop_oldest"),
        default="block",
        help="network mode: what happens at a full shard queue — block "
        "(TCP pushback), shed (refuse newest, HTTP 429) or drop_oldest",
    )
    serve.add_argument(
        "--dispatch-timeout",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="network mode: max seconds a partial mining batch waits "
        "for more records",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="network mode: seconds live connections get to finish "
        "after SIGTERM before being cancelled",
    )
    serve.add_argument(
        "--mode",
        dest="exec_mode",
        choices=("batch", "stream"),
        default="batch",
        help="batch mines every full batch (the paper's workflow); "
        "stream feeds a stream driver: micro-batches with bounded "
        "per-message latency, mining in evolving-state flushes",
    )
    serve.add_argument(
        "--micro-batch",
        type=int,
        default=None,
        metavar="N",
        help="stream mode: records per micro-batch (1 = per-message)",
    )
    serve.add_argument(
        "--micro-batch-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stream mode: max seconds a partial micro-batch waits",
    )
    serve.add_argument(
        "--flush-pending",
        type=int,
        default=None,
        metavar="N",
        help="stream mode: mine once this many distinct unmatched "
        "messages are pending",
    )
    serve.add_argument(
        "--flush-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stream mode: mine at least this often",
    )
    serve.add_argument(
        "--pattern-ttl-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="stream mode: evict patterns not matched for this many "
        "days (0 = keep forever)",
    )
    serve.add_argument(
        "--no-drift",
        action="store_true",
        help="stream mode: disable drift merge/split maintenance",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="persistent worker processes for analysis "
        "(1 = in-process serial; 0 = one per CPU minus one)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus metrics on http://127.0.0.1:PORT/metrics "
        "while ingesting (0 = pick a free port)",
    )

    mine = sub.add_parser("mine", help="mine patterns from a plain log file")
    mine.add_argument("input", help="log file, one message per line")
    mine.add_argument("--service", required=True, help="source system name")
    mine.add_argument("--batch-size", type=int, default=100_000)

    parse = sub.add_parser("parse", help="match messages against stored patterns")
    parse.add_argument("input", nargs="?", default="-", help="log file ('-' for stdin)")
    parse.add_argument("--service", required=True)

    export = sub.add_parser("export", help="export stored patterns for other parsers")
    export.add_argument("--format", choices=FORMATS, default="syslog-ng")
    export.add_argument("--service", default=None)
    export.add_argument("--min-count", type=int, default=1)
    export.add_argument("--max-complexity", type=float, default=1.0)

    sub.add_parser("stats", help="print database statistics")

    metrics = sub.add_parser(
        "metrics", help="point-in-time metrics snapshot of the pattern database"
    )
    metrics.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="output format (Prometheus text exposition or JSON)",
    )

    prune = sub.add_parser(
        "prune", help="drop patterns below the save threshold (§IV limitations)"
    )
    prune.add_argument("--threshold", type=int, required=True)

    merge = sub.add_parser(
        "merge", help="merge another instance's pattern database into this one"
    )
    merge.add_argument("source", help="path of the database to merge from")

    evaluate = sub.add_parser(
        "evaluate", help="grouping accuracy on a synthetic LogHub dataset"
    )
    evaluate.add_argument("dataset", help="dataset name, e.g. OpenSSH")
    evaluate.add_argument(
        "--mode", choices=("raw", "preprocessed", "both"), default="both"
    )

    artifact = sub.add_parser(
        "artifact", help="export the reproduction artifact bundle (AVAILABILITY)"
    )
    artifact.add_argument("out_dir")
    artifact.add_argument(
        "--datasets", nargs="*", default=None, help="subset of dataset names"
    )

    report = sub.add_parser(
        "report", help="ranked Markdown review report for administrators"
    )
    report.add_argument("--service", default=None)
    report.add_argument("--min-count", type=int, default=1)
    report.add_argument("--max-complexity", type=float, default=1.0)
    report.add_argument("--limit", type=int, default=50)
    return parser


def _open_input(path: str):
    if path == "-":
        return sys.stdin
    return open(path, encoding="utf-8", errors="replace")


def _streaming_config(args: argparse.Namespace) -> StreamingConfig:
    """Fold the serve subcommand's stream knobs over the defaults."""
    given = {
        "micro_batch_size": args.micro_batch,
        "micro_batch_timeout_s": args.micro_batch_timeout,
        "flush_pending": args.flush_pending,
        "flush_interval_s": args.flush_interval,
        "pattern_ttl_days": args.pattern_ttl_days,
    }
    return StreamingConfig(
        **{knob: value for knob, value in given.items() if value is not None},
        drift_merge=not args.no_drift,
        drift_split=not args.no_drift,
    )


def _make_config(args: argparse.Namespace, batch_size: int = 100_000) -> RTGConfig:
    return RTGConfig(
        batch_size=batch_size,
        save_threshold=getattr(args, "save_threshold", 1),
        # only serve has the stream driver's knobs
        streaming=(
            _streaming_config(args)
            if args.command == "serve"
            else StreamingConfig()
        ),
        scanner=ScannerConfig(
            allow_single_digit_time=args.single_digit_time,
            enable_path_fsm=args.path_fsm,
        ),
    )


def _make_rtg(args: argparse.Namespace, batch_size: int = 100_000) -> SequenceRTG:
    return SequenceRTG(
        db=PatternDB(args.db, durable=args.durable_db),
        config=_make_config(args, batch_size),
    )


class _DrainRequest:
    """SIGTERM/SIGINT → a stop flag the file-fed serve loops honour.

    Without this, a signal mid-batch kills the process wherever it
    stands: the pipelined ingester generator is abandoned (its reader
    thread joined only at GC) and the final partial batch is dropped.
    With it, the loops stop consuming input at the next line, the
    ingester yields what it has, the engine mines it, and the process
    exits 0 — the same flush-then-exit contract the network tier's
    graceful drain makes.
    """

    def __init__(self) -> None:
        self.stop = threading.Event()
        self._previous: dict[int, object] = {}

    def __enter__(self) -> "_DrainRequest":
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except ValueError:  # not the main thread (embedded use)
                pass
        return self

    def _handle(self, signum, frame) -> None:
        self.stop.set()
        print("drain: signal received, flushing", file=sys.stderr)

    def __exit__(self, *exc) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)


def _interruptible(lines, stop: threading.Event):
    """Pass lines through until EOF or the drain flag is raised.

    Raising the flag turns into a clean EOF for the ingester, which
    then emits its final partial batch deterministically.
    """
    for line in lines:
        if stop.is_set():
            return
        yield line


def _serve_stream(args: argparse.Namespace, rtg: SequenceRTG) -> int:
    """The ``serve --mode stream`` loop: per-record micro-batching."""
    from repro.core.ingest import parse_record

    driver = rtg.stream_driver()
    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.server import MetricsServer

        metrics_server = MetricsServer(rtg.metrics, port=args.metrics_port)
        metrics_server.start()
        print(f"metrics: {metrics_server.url}", file=sys.stderr)
    n_lines = n_malformed = 0
    try:
        with _DrainRequest() as drain, _open_input(args.input) as stream:
            for line in _interruptible(stream, drain.stop):
                n_lines += 1
                record = parse_record(line)
                if record is None:
                    n_malformed += 1
                    continue
                driver.offer(record)
                driver.poll()
    finally:
        driver.close()
        if metrics_server is not None:
            metrics_server.close()
    stats = driver.stats
    p99 = rtg.metrics.histogram("rtg_stream_message_latency_seconds").quantile(0.99)
    print(
        f"stream: {stats.n_messages} messages in {stats.n_micro_batches} "
        f"micro-batches ({n_malformed}/{n_lines} lines malformed), "
        f"{stats.n_matched} matched, {stats.n_flushes} flushes, "
        f"{stats.n_new_patterns} new patterns, {stats.n_evicted} evicted, "
        f"{stats.n_drift_merges} drift merges, {stats.n_drift_splits} "
        f"drift splits, p99 per-message latency ≤ {p99 * 1e3:.3f} ms",
        file=sys.stderr,
    )
    return 0


def _serve_listen(args: argparse.Namespace, rtg: SequenceRTG) -> int:
    """``serve --listen``: the async network ingest tier."""
    import asyncio

    from repro.serve import ServeConfig, ServeServer, parse_listen_specs

    specs = parse_listen_specs(args.listen)
    pool = None
    if args.exec_mode == "stream":
        miner = rtg.stream_driver()
        registry = rtg.metrics
    elif args.workers != 1:
        from repro.core.parallel import PersistentParallelSequenceRTG

        pool = miner = PersistentParallelSequenceRTG(
            db=rtg.db, config=rtg.config, n_workers=args.workers or None
        )
        registry = pool.metrics
    else:
        miner = rtg
        registry = rtg.metrics
    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.server import MetricsServer

        metrics_server = MetricsServer(registry, port=args.metrics_port)
        metrics_server.start()
        print(f"metrics: {metrics_server.url}", file=sys.stderr)
    server = ServeServer(
        miner,
        ServeConfig(
            listen=tuple(specs),
            batch_size=args.batch_size,
            high_water=args.high_water,
            overload=args.overload,
            dispatch_timeout_s=args.dispatch_timeout,
            drain_grace_s=args.drain_grace,
        ),
    )

    def announce(endpoints) -> None:
        rendered = ", ".join(f"{scheme}://{addr}" for scheme, addr in endpoints)
        print(f"listening: {rendered}", file=sys.stderr)

    try:
        asyncio.run(server.run(install_signals=True, ready=announce))
    finally:
        if pool is not None:
            pool.close()
        if metrics_server is not None:
            metrics_server.close()
    summary = server.summary()
    print(
        f"serve: {summary['accepted']} accepted ({summary['shed']} shed, "
        f"{summary['malformed']} malformed) over {summary['connections']} "
        f"connections; {summary['records_mined']} records mined in "
        f"{summary['batches']} batches, {summary['new_patterns']} new "
        f"patterns, p99 ingest latency "
        f"≤ {summary['p99_ingest_latency_s'] * 1e3:.3f} ms",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        rtg = _make_rtg(args, args.batch_size)
        if args.exec_mode == "stream" and args.workers != 1:
            print(
                "error: --mode stream is serial-only (pool workers "
                "host no stream driver); drop --workers",
                file=sys.stderr,
            )
            return 2
        if args.listen is not None:
            return _serve_listen(args, rtg)
        if args.exec_mode == "stream":
            return _serve_stream(args, rtg)
        if args.workers != 1:
            # persistent pool over the same DB handle (the in-process
            # instance is only used for its config/db wiring)
            from repro.core.parallel import PersistentParallelSequenceRTG

            miner = PersistentParallelSequenceRTG(
                db=rtg.db,
                config=rtg.config,
                n_workers=args.workers or None,
            )
        else:
            miner = rtg
        metrics_server = None
        if args.metrics_port is not None:
            from repro.obs.server import MetricsServer

            metrics_server = MetricsServer(miner.metrics, port=args.metrics_port)
            metrics_server.start()
            print(f"metrics: {metrics_server.url}", file=sys.stderr)
        ingester = StreamIngester(
            batch_size=args.batch_size,
            metrics=miner.metrics,
        )
        with _DrainRequest() as drain, _open_input(args.input) as stream:
            batches = ingester.batches_pipelined(
                _interruptible(stream, drain.stop)
            )
            results = miner.process_stream(batches)
            try:
                for result in results:
                    print(
                        f"batch: {result.n_records} records, {result.n_services} services, "
                        f"{result.n_matched} matched, {result.n_new_patterns} new patterns",
                        file=sys.stderr,
                    )
            finally:
                # closing the drive_stream generator closes the ingest
                # generator in turn, joining its reader thread even when
                # this loop's body raised
                close = getattr(results, "close", None)
                if close is not None:
                    close()
                if miner is not rtg:
                    miner.close()
                if metrics_server is not None:
                    metrics_server.close()
        print(
            f"ingested {ingester.stats.n_records} records "
            f"({ingester.stats.n_malformed} malformed) in {ingester.stats.n_batches} batches",
            file=sys.stderr,
        )
        return 0

    if args.command == "mine":
        rtg = _make_rtg(args, args.batch_size)
        with _open_input(args.input) as stream:
            records = [
                LogRecord(service=args.service, message=line.rstrip("\n"))
                for line in stream
                if line.strip()
            ]
        size = rtg.config.batch_size
        batches = (records[k:k + size] for k in range(0, len(records), size))
        n_records = n_new = 0
        for result in rtg.process_stream(batches):
            for pattern in result.new_patterns:
                print(f"{pattern.id}  {pattern.text}")
            n_records += result.n_records
            n_new += result.n_new_patterns
        print(f"{n_records} messages -> {n_new} new patterns", file=sys.stderr)
        return 0

    if args.command == "parse":
        rtg = _make_rtg(args)
        parser_ = rtg.parser_for(args.service)
        n = n_matched = 0
        with _open_input(args.input) as stream:
            for line in stream:
                message = line.rstrip("\n")
                if not message:
                    continue
                n += 1
                scanned = rtg.scanner.scan(message, service=args.service)
                hit = parser_.match(scanned)
                if hit is None:
                    print(json.dumps({"message": message, "matched": False}))
                else:
                    n_matched += 1
                    print(
                        json.dumps(
                            {
                                "message": message,
                                "matched": True,
                                "pattern_id": hit.pattern.id,
                                "fields": hit.fields,
                            }
                        )
                    )
        print(f"matched {n_matched}/{n}", file=sys.stderr)
        return 0

    if args.command == "export":
        db = PatternDB(args.db, durable=args.durable_db)
        sys.stdout.write(
            export_patterns(
                db,
                fmt=args.format,
                service=args.service,
                min_count=args.min_count,
                max_complexity=args.max_complexity,
            )
        )
        return 0

    if args.command == "stats":
        db = PatternDB(args.db, durable=args.durable_db)
        counts = db.counts()
        for table, n in counts.items():
            print(f"{table}: {n}")
        return 0

    if args.command == "metrics":
        from repro.obs.exposition import render_prometheus
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.observer import observe_patterndb

        registry = MetricsRegistry()
        observe_patterndb(registry, PatternDB(args.db, durable=args.durable_db))
        if args.format == "json":
            json.dump(registry.to_dict(), sys.stdout, indent=2)
            print()
        else:
            sys.stdout.write(render_prometheus(registry))
        return 0

    if args.command == "prune":
        db = PatternDB(args.db, durable=args.durable_db)
        removed = db.prune(save_threshold=args.threshold)
        print(f"pruned {removed} patterns below threshold {args.threshold}",
              file=sys.stderr)
        return 0

    if args.command == "merge":
        db = PatternDB(args.db, durable=args.durable_db)
        source = PatternDB(args.source)
        n = db.merge_from(source)
        print(f"merged {n} patterns from {args.source}", file=sys.stderr)
        return 0

    if args.command == "evaluate":
        from repro.loghub import evaluate_sequence_rtg, load_dataset

        dataset = load_dataset(args.dataset)
        config = _make_config(args)
        modes = ("raw", "preprocessed") if args.mode == "both" else (args.mode,)
        for mode in modes:
            score = evaluate_sequence_rtg(dataset, mode=mode, config=config)
            print(f"{args.dataset} {mode}: {score:.3f}")
        return 0

    if args.command == "artifact":
        from repro.loghub.artifact import export_artifact
        from repro.loghub.corpus import DATASET_NAMES

        datasets = tuple(args.datasets) if args.datasets else DATASET_NAMES
        manifest = export_artifact(args.out_dir, datasets=datasets)
        print(
            f"artifact for {len(manifest.datasets)} datasets written to "
            f"{manifest.directory}",
            file=sys.stderr,
        )
        return 0

    if args.command == "report":
        from repro.core.report import review_report

        db = PatternDB(args.db, durable=args.durable_db)
        sys.stdout.write(
            review_report(
                db,
                service=args.service,
                min_count=args.min_count,
                max_complexity=args.max_complexity,
                limit=args.limit,
            )
        )
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
