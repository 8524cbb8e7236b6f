"""The system under test: one workload, one fresh interpreter.

Started by ``run.py`` as ``python -m benchmarks.e2e.child SPEC.json``.
Protocol on stdout (JSON lines) / stdin (text lines):

    child  -> {"event": "ready", ...}     set-up done (warm DB, pool, listener)
    parent -> go                          measurement starts
    parent -> sent N                      serve_tcp only: N frames are on the wire
    child  -> {"event": "result", ...}    measurement, checks and (traced) layers

The untraced pass touches the program only through the public calls the
README lists.  With ``"trace": true`` the proxies of ``trace.py`` are
installed after the warm-up and the span list is written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from datetime import datetime, timedelta, timezone
from contextlib import nullcontext
from itertools import islice
from time import perf_counter

from benchmarks.e2e import checks, config
from benchmarks.e2e.isolated import measure_layers
from benchmarks.e2e.layers import layer_metrics
from benchmarks.e2e.trace import ROOT, Tracer

#: first simulated day of ``stream_drift``
DAY_ZERO = datetime(2026, 1, 1, tzinfo=timezone.utc)
#: how long serve_tcp waits for the frames the parent says it sent
FRAMES_TIMEOUT_S = 150.0


def send(event: str, **fields) -> None:
    """One JSON line to the parent."""
    print(json.dumps({"event": event, **fields}), flush=True)


def wait() -> str:
    """The parent's next text line."""
    line = sys.stdin.readline()
    if not line:
        raise SystemExit("parent went away")
    return line.strip()


class MiningCalls:
    """Pass-through around the call that blocks the feed.

    Times every call (the ``batch_ms`` samples), folds the returned
    ``BatchResult`` counters and, when tracing, opens the ``engine`` span
    the stage spans hang under.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.samples: list[float] = []
        self.tally = {
            "records": 0,
            "matched": 0,
            "unmatched": 0,
            "new_patterns": 0,
            "cache": {},
            "timings": {},
        }

    def install(self, owner, attr: str) -> None:
        inner = getattr(owner, attr)
        tracer = self.tracer
        if tracer is not None:
            inner = tracer.traced("engine", inner)
            tracer.installed.add("engine")

        def call(records, now=None):
            began = perf_counter()
            result = inner(records, now=now)
            self.samples.append(perf_counter() - began)
            self.fold(result)
            if tracer is not None:
                tracer.batch += 1
            return result

        setattr(owner, attr, call)

    def fold(self, result) -> None:
        tally = self.tally
        tally["records"] += result.n_records
        tally["matched"] += result.n_matched
        tally["unmatched"] += result.n_unmatched
        tally["new_patterns"] += result.n_new_patterns
        for name in ("cache", "timings"):
            into = tally[name]
            for key, value in getattr(result, name, {}).items():
                into[key] = into.get(key, 0) + value


def _traced_iter(tracer: Tracer | None, name: str, iterator):
    """*iterator* with a span around every ``next()``."""
    if tracer is None:
        return iterator
    tracer.installed.add(name)
    advance = tracer.traced(name, iterator.__next__)

    def spans():
        try:
            while True:
                try:
                    yield advance()
                except StopIteration:
                    return
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    return spans()


def _ingester(miner, tracer: Tracer | None):
    """The CLI's ingester; traced, its ``batches`` (which the pipelined
    reader thread runs) records one ``ingest.busy`` span per batch."""
    from repro.core.ingest import StreamIngester

    cls = StreamIngester
    if tracer is not None:

        class TracedIngester(StreamIngester):
            def batches(self, lines):
                return _traced_iter(tracer, "ingest.busy", super().batches(lines))

        cls = TracedIngester
    return cls(batch_size=config.BATCH_SIZE, metrics=getattr(miner, "metrics", None))


def _feed_file(miner, path: str, tracer: Tracer | None = None):
    """File → pipelined ingester → ``process_stream``; returns the ingester."""
    ingester = _ingester(miner, tracer)
    prefetch = getattr(miner.config, "ingest_prefetch", 2)
    with open(path, encoding="utf-8") as lines:
        batches = _traced_iter(
            tracer, "ingest.wait", ingester.batches_pipelined(lines, prefetch=prefetch)
        )
        for _ in miner.process_stream(batches):
            pass
    return ingester


def _open_db(spec: dict):
    from repro.core.patterndb import PatternDB

    return PatternDB(spec["db_path"])


def _root(tracer: Tracer | None):
    """The measured section's root span (a no-op when not tracing)."""
    return tracer.span(ROOT) if tracer is not None else nullcontext()


def _trace_miner(tracer: Tracer | None, rtg) -> None:
    """Stage and PatternDB proxies of a serial miner."""
    if tracer is None:
        return
    tracer.wrap_stages(rtg.engine)
    db = rtg.db
    tracer.wrap(db, "transaction", "patterndb.sqlite", context=True)
    for call in ("record_matches", "upsert", "add_example"):
        tracer.wrap(db, call, "patterndb.sqlite")


def _patterns_by_service(db) -> dict:
    out: dict[str, list] = {}
    for row in db.rows():
        out.setdefault(row.service, []).append(row.to_pattern())
    return out


def _read_lines(path: str, limit: int | None = None) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in islice(fh, limit)]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def steady_file(spec, tracer) -> dict:
    from repro.core.pipeline import SequenceRTG

    cfg = config.production_config()
    rtg = SequenceRTG(_open_db(spec), cfg)
    _feed_file(rtg, spec["prefix_path"])
    calls = MiningCalls(tracer)
    calls.install(rtg, "analyze_by_service")
    _trace_miner(tracer, rtg)
    send("ready")
    wait()
    began = perf_counter()
    with _root(tracer):
        ingester = _feed_file(rtg, spec["measured_path"], tracer)
    elapsed = perf_counter() - began
    return {
        "elapsed_s": elapsed,
        "mined": calls.tally["records"],
        "rss_mb": checks.peak_rss_mb(),
        "db": rtg.db,
        "calls": calls,
        "extra": {"ingest_lines": ingester.stats.n_lines},
    }


def steady_pool(spec, tracer) -> dict:
    from repro.core.parallel import PersistentParallelSequenceRTG

    cfg = config.production_config()
    db = _open_db(spec)
    calls = MiningCalls(tracer)
    with PersistentParallelSequenceRTG(db=db, config=cfg, n_workers=config.POOL_WORKERS) as pool:
        _feed_file(pool, spec["prefix_path"])
        calls.install(pool, "analyze_by_service")
        before = dict(pool.telemetry)
        send("ready")
        wait()
        began = perf_counter()
        with _root(tracer):
            ingester = _feed_file(pool, spec["measured_path"], tracer)
        elapsed = perf_counter() - began
        rss_mb = checks.peak_rss_mb()
        telemetry = {k: v - before.get(k, 0) for k, v in pool.telemetry.items()}
    return {
        "elapsed_s": elapsed,
        "mined": calls.tally["records"],
        "rss_mb": rss_mb,
        "db": db,
        "calls": calls,
        "extra": {
            "ingest_lines": ingester.stats.n_lines,
            "stages_in_workers": True,
            "workers": config.POOL_WORKERS,
            "parallel.sync_bytes": telemetry.get("sync_bytes"),
            "parallel.respawns": telemetry.get("respawns"),
        },
    }


def serve_tcp(spec, tracer) -> dict:
    from repro.core.pipeline import SequenceRTG
    from repro.serve import ListenSpec, ServeConfig, ServeServer

    cfg = config.production_config()
    rtg = SequenceRTG(_open_db(spec), cfg)
    _feed_file(rtg, spec["prefix_path"])
    calls = MiningCalls(tracer)
    calls.install(rtg, "analyze_by_service")
    _trace_miner(tracer, rtg)
    server = ServeServer(
        rtg,
        ServeConfig(
            listen=(ListenSpec(scheme="tcp", host="127.0.0.1", port=0),),
            batch_size=config.BATCH_SIZE,
            overload="block",
            # every cycle but the drain is a full window, so batches are
            # the same 5,000-record windows steady_file mines
            dispatch_timeout_s=30.0,
        ),
    )
    peak_depth = [0]
    if tracer is not None:
        router = server.router
        tracer.wrap(router, "offer", "serve.router.offer", total_only=True)
        tracer.wrap(router, "wait_for", "serve.router.wait")
        if tracer.wrap(router, "take_batch", "serve.router.take"):
            take = router.take_batch

            def take_batch(max_records):
                peak_depth[0] = max(peak_depth[0], router.total_queued)
                return take(max_records)

            router.take_batch = take_batch
    endpoints = dict(server.start_in_background())
    send("ready", port=int(endpoints["tcp"].rsplit(":", 1)[1]))
    wait()
    began = perf_counter()
    expected = int(wait().split()[1])
    deadline = time.monotonic() + FRAMES_TIMEOUT_S
    while server.stats.frames < expected and time.monotonic() < deadline:
        time.sleep(0.005)
    stats = server.shutdown()
    elapsed = perf_counter() - began
    return {
        "elapsed_s": elapsed,
        "mined": stats.records_mined,
        "rss_mb": checks.peak_rss_mb(),
        "db": rtg.db,
        "calls": calls,
        "extra": {
            "serve.server.shed": stats.shed,
            "serve.server.malformed": stats.malformed,
            "serve.router.peak_depth": peak_depth[0] if tracer is not None else None,
        },
    }


def cold_mine(spec, tracer) -> dict:
    from repro.core.ingest import StreamIngester
    from repro.core.patterndb import PatternDB
    from repro.core.pipeline import SequenceRTG

    cfg = config.production_config()
    per_round = spec["sizes"]["cold_per_round"]
    with open(spec["measured_path"], encoding="utf-8") as lines:
        rounds = list(StreamIngester(batch_size=per_round).batches(lines))
    SequenceRTG(PatternDB(), cfg).analyze_by_service(rounds[0])  # imports, regex caches
    calls = MiningCalls(tracer)
    send("ready")
    wait()
    round_checks = []
    durations = []
    db = None
    for records in rounds:
        began = perf_counter()
        with _root(tracer):
            db = PatternDB()
            rtg = SequenceRTG(db, cfg)
            calls.install(rtg, "analyze_by_service")
            _trace_miner(tracer, rtg)
            rtg.analyze_by_service(records)
        durations.append(perf_counter() - began)
        # between rounds, outside every timed interval and span
        rows = db.rows()
        round_checks.append(
            {
                "offered": len(records),
                "total_matches": checks.total_matches(rows),
                "fingerprint": checks.fingerprint(rows),
            }
        )
    # a round is DB construction + the mining call; rounds run back to back
    calls.samples = durations
    return {
        "elapsed_s": sum(durations),
        "mined": calls.tally["records"],
        "rss_mb": checks.peak_rss_mb(),
        "db": db,
        "calls": calls,
        "rounds": round_checks,
        "extra": {},
    }


def stream_drift(spec, tracer) -> dict:
    from repro.core.ingest import parse_record
    from repro.core.patterndb import PatternDB
    from repro.core.pipeline import SequenceRTG

    cfg = config.drift_config()
    lines = _read_lines(spec["measured_path"])
    days, start = [], 0
    for length in spec["day_lengths"]:
        days.append([parse_record(line) for line in lines[start : start + length]])
        start += length
    labelled = [json.loads(line) for line in _read_lines(spec["labelled_path"])]
    warm = SequenceRTG(PatternDB(), cfg).stream_driver()
    warm.feed(days[0][: 2 * cfg.streaming.micro_batch_size], now=DAY_ZERO)
    warm.close()

    rtg = SequenceRTG(_open_db(spec), cfg)
    driver = rtg.stream_driver()
    calls = MiningCalls(tracer)
    if tracer is not None:
        calls.install(rtg.engine, "run")
        _trace_miner(tracer, rtg)
        tracer.wrap(driver, "flush", "streaming.flush")
        tracer.wrap(rtg.engine, "flush", "engine.flush")
    every = cfg.streaming.micro_batch_size
    samples: list[float] = []
    offered = 0
    send("ready")
    wait()
    began = perf_counter()
    with _root(tracer):
        offer = driver.offer
        for day, records in enumerate(days):
            now = DAY_ZERO + timedelta(days=day)
            for record in records:
                offered += 1
                if offered % every:
                    offer(record, now=now)
                else:
                    # the call that fills the micro-batch and processes it,
                    # with any flush and maintenance it triggers
                    t0 = perf_counter()
                    offer(record, now=now)
                    samples.append(perf_counter() - t0)
        t0 = perf_counter()
        driver.close()
        samples.append(perf_counter() - t0)
    elapsed = perf_counter() - began
    calls.samples = samples
    stats = driver.stats
    if tracer is None:
        calls.tally.update(records=stats.n_messages, matched=stats.n_matched)
    calls.tally["new_patterns"] = stats.n_new_patterns
    return {
        "elapsed_s": elapsed,
        "mined": stats.n_messages,
        "rss_mb": checks.peak_rss_mb(),
        "db": rtg.db,
        "calls": calls,
        "grouping_accuracy": checks.grouping_accuracy(rtg.db, labelled),
        "stream": {
            "flushes": stats.n_flushes,
            "microbatches": stats.n_micro_batches,
            "drift_merges": stats.n_drift_merges,
            "drift_splits": stats.n_drift_splits,
            "evicted": stats.n_evicted,
        },
        "extra": {},
    }


WORKLOADS = {
    "steady_file": steady_file,
    "cold_mine": cold_mine,
    "stream_drift": stream_drift,
    "serve_tcp": serve_tcp,
    "steady_pool": steady_pool,
}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if spec["trace"] else None
    run = WORKLOADS[spec["workload"]](spec, tracer)
    db = run.pop("db")
    calls: MiningCalls = run.pop("calls")
    extra = run.pop("extra")
    result = {
        **run,
        "samples_ms": [s * 1e3 for s in calls.samples],
        "matched_frac": calls.tally["matched"] / max(1, calls.tally["records"]),
        "checks": checks.db_checks(db),
    }
    if tracer is not None:
        spans = tracer.spans()
        extra["rows_end"] = result["checks"]["rows"]
        for key, value in run.get("stream", {}).items():
            extra[f"streaming.{key}"] = value
        if "grouping_accuracy" in run:
            extra["streaming.grouping_accuracy"] = run["grouping_accuracy"]
        slice_lines = _read_lines(spec["measured_path"], spec["sizes"]["isolated_slice"])
        extra.update(
            measure_layers(
                config.production_config(),
                slice_lines,
                _patterns_by_service(db),
                config.BATCH_SIZE,
                serve=spec["workload"] == "serve_tcp",
            )
        )
        if spec["workload"] not in ("steady_file", "steady_pool"):
            # only these two feed StreamIngester inside the measured section
            extra.pop("ingest.isolated_us_per_line", None)
        result["layers"] = layer_metrics(tracer, spans, run["elapsed_s"], calls.tally, extra)
        result["missing_proxies"] = sorted(tracer.missing)
        result["n_spans"] = len(spans)
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    send("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
