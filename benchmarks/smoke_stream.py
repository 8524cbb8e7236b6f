"""Stream-mode smoke gate for CI.

Four tripwires around the online execution mode:

1. **p99 per-message latency** — a `StreamDriver` fed the production
   simulation one record at a time must keep its p99 per-message
   latency (scan+parse+persist amortised over the micro-batch) under
   ``P99_GATE_S``.  This is the stream mode's reason to exist: batch
   mode's per-message latency is the whole batch accumulation period.

2. **batch regression** — the incremental-core refactor made batch mode
   a special case of the evolving analyser; serial cold-mine throughput
   must stay within ``BATCH_REGRESSION`` of the recorded baseline in
   ``results/BENCH_throughput.json`` (``stages.mine_msgs_per_s``).

3. **convergence** — the streaming pattern set on the 60-day production
   simulation must agree with single-run batch output on at least
   ``CONVERGENCE_GATE`` of messages by template.  Its own pass, with no
   TTL: eviction deletes, by design, patterns single-run batch keeps.

4. **maintenance** — the feed interleaves the LogHub corpora (constant
   typed tokens: drift splits) with a churning production stream on an
   advancing calendar (TTL evictions), so drift merge, drift split and
   TTL eviction must all fire, and the three passes together may take
   at most ``MAINTENANCE_SHARE_GATE`` of the stream wall.  Flush and
   maintenance seconds are timed from outside, around
   ``StreamDriver.flush`` and ``MiningEngine.flush``.

The LogHub generator seeds value pools from ``hash(str)``, so the script
re-executes itself with ``PYTHONHASHSEED=0``.

Writes ``results/BENCH_stream.json``.  Deliberately small — a
regression tripwire, not a benchmark.

Usage::

    PYTHONPATH=src python benchmarks/smoke_stream.py
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

from repro.core.config import RTGConfig, StreamingConfig
from repro.core.records import LogRecord
from repro.loghub.corpus import DATASET_NAMES, load_dataset
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.parser.parser import Parser
from repro.scanner import build_scanner
from repro.workflow.stream import ProductionStream, StreamConfig

RESULTS = Path(__file__).parent.parent / "results" / "BENCH_stream.json"
THROUGHPUT_BASELINE = RESULTS.parent / "BENCH_throughput.json"

NOW = datetime(2026, 1, 1, tzinfo=timezone.utc)

#: p99 per-message latency gate (seconds) — generous against CI-runner
#: jitter; production numbers land well under a millisecond
P99_GATE_S = 0.050
#: serial cold-mine throughput must stay within 5% of the baseline
BATCH_REGRESSION = 0.95
#: stream/batch template agreement on the 60-day simulation
CONVERGENCE_GATE = 0.95
#: drift merge + drift split + TTL eviction, as a share of the stream wall
MAINTENANCE_SHARE_GATE = 0.20

#: the simulation: a churning production stream (mirrors
#: tests/core/test_streaming.py) and, for the stream feed, a slice of
#: every LogHub corpus per day on a calendar that advances with the days
N_DAYS, PER_DAY, LOGHUB_PER_DAY = 60, 150, 8

#: the convergence pass: no TTL, splits only on overwhelming evidence
CONVERGENCE_STREAMING = StreamingConfig(
    micro_batch_size=25,
    flush_pending=512,
    split_min_matches=256,
)
#: the stream feed: every maintenance pass armed
STREAMING = StreamingConfig(
    micro_batch_size=25,
    flush_pending=512,
    split_min_matches=64,
    pattern_ttl_days=20,
)


def production_days() -> list[list[LogRecord]]:
    return ProductionStream(
        StreamConfig(n_services=8, seed=13, duplicate_fraction=0.3)
    ).days(N_DAYS, PER_DAY, churn_per_day=1)


def stream_feed() -> list[list[LogRecord]]:
    """Production days interleaved with the LogHub half."""
    rng = random.Random(13)
    production = production_days()
    loghub = {}
    for index, name in enumerate(DATASET_NAMES):
        lines = load_dataset(name, n=N_DAYS * LOGHUB_PER_DAY, seed=13 + index).lines
        loghub[name] = [LogRecord(name, line.raw) for line in lines]
        rng.shuffle(loghub[name])
    days = []
    for day in range(N_DAYS):
        records = list(production[day])
        for name in DATASET_NAMES:
            records.extend(
                loghub[name][day * LOGHUB_PER_DAY:(day + 1) * LOGHUB_PER_DAY]
            )
        rng.shuffle(records)
        days.append(records)
    return days


class _Stopwatch:
    """Pass-through around a bound method that totals its wall time."""

    def __init__(self, call) -> None:
        self.call = call
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        began = time.perf_counter()
        try:
            return self.call(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - began


def measure_stream() -> dict:
    """Drive the stream feed through a StreamDriver; report latency
    quantiles, maintenance counters and where the wall went."""
    days = stream_feed()
    rtg = SequenceRTG(
        db=PatternDB(), config=RTGConfig(mode="stream", streaming=STREAMING)
    )
    driver = rtg.stream_driver()
    # a flush is engine.flush (mine + persist) plus the three
    # maintenance passes; the difference of the two clocks is the latter
    flush = driver.flush = _Stopwatch(driver.flush)
    mine = rtg.engine.flush = _Stopwatch(rtg.engine.flush)
    began = time.perf_counter()
    for day, records in enumerate(days):
        driver.feed(records, now=NOW + timedelta(days=day))
    driver.close()
    seconds = time.perf_counter() - began
    stats = driver.stats
    maintain_s = flush.seconds - mine.seconds
    report = {
        "n_messages": stats.n_messages,
        "msgs_per_s": round(stats.n_messages / seconds),
        "p50_latency_ms": round(driver.latency_quantile(0.5) * 1e3, 4),
        "p99_latency_ms": round(driver.p99() * 1e3, 4),
        "n_micro_batches": stats.n_micro_batches,
        "n_flushes": stats.n_flushes,
        "n_new_patterns": stats.n_new_patterns,
        "n_drift_merges": stats.n_drift_merges,
        "n_drift_splits": stats.n_drift_splits,
        "n_evicted": stats.n_evicted,
        "wall_s": round(seconds, 3),
        "flush_s": round(flush.seconds, 3),
        "maintain_s": round(maintain_s, 3),
        "flush_share": round(flush.seconds / seconds, 4),
        "maintain_share": round(maintain_s / seconds, 4),
    }
    return report


def measure_convergence() -> float:
    """Template agreement between the streamed pattern set and batch
    output over the full horizon (both sides parse every record)."""
    days = production_days()
    stream_rtg = SequenceRTG(
        db=PatternDB(),
        config=RTGConfig(mode="stream", streaming=CONVERGENCE_STREAMING),
    )
    driver = stream_rtg.stream_driver()
    for day in days:
        driver.feed(day, now=NOW)
    driver.close()
    records = [record for day in days for record in day]
    batch_rtg = SequenceRTG(db=PatternDB())
    batch_rtg.analyze_by_service(records, now=NOW)

    scanner = build_scanner()
    batch_parsers: dict[str, Parser] = {}
    stream_parsers: dict[str, Parser] = {}
    agree = 0
    for record in records:
        service = record.service
        batch_parser = batch_parsers.get(service)
        if batch_parser is None:
            batch_parser = batch_parsers[service] = Parser(
                batch_rtg.db.load_service(service)
            )
            stream_parsers[service] = Parser(
                stream_rtg.db.load_service(service)
            )
        scanned = scanner.scan(record.message, service=service)
        batch_hit = batch_parser.match(scanned)
        stream_hit = stream_parsers[service].match(scanned)
        if (batch_hit is None) == (stream_hit is None) and (
            batch_hit is None
            or batch_hit.pattern.text == stream_hit.pattern.text
        ):
            agree += 1
    return agree / len(records)


def measure_batch_mine() -> int:
    """Serial cold-mine msgs/s, same corpus as smoke_throughput."""
    records = list(
        ProductionStream(StreamConfig(n_services=60, seed=32)).records(5_000)
    )
    best = float("inf")
    for _ in range(3):
        rtg = SequenceRTG(db=PatternDB())
        t0 = time.perf_counter()
        result = rtg.analyze_by_service(records)
        best = min(best, time.perf_counter() - t0)
        assert result.n_new_patterns > 0
    return round(len(records) / best)


def batch_baseline() -> int | None:
    if not THROUGHPUT_BASELINE.exists():
        return None
    data = json.loads(THROUGHPUT_BASELINE.read_text())
    return data.get("stages", {}).get("mine_msgs_per_s")


def main() -> int:
    stream_report = measure_stream()
    p99_s = stream_report["p99_latency_ms"] / 1e3
    p99_ok = p99_s < P99_GATE_S
    print(
        f"stream: {stream_report['msgs_per_s']:,} msgs/s, "
        f"p99 {stream_report['p99_latency_ms']:.3f} ms "
        f"(gate: {P99_GATE_S * 1e3:.0f} ms) — {'OK' if p99_ok else 'FAIL'}"
    )

    convergence = measure_convergence()
    convergence_ok = convergence >= CONVERGENCE_GATE
    print(
        f"convergence: {convergence:.3f} template agreement over "
        f"{N_DAYS} days (gate: {CONVERGENCE_GATE}) — "
        f"{'OK' if convergence_ok else 'FAIL'}"
    )

    maintenance_ok = (
        stream_report["n_drift_merges"] > 0
        and stream_report["n_drift_splits"] > 0
        and stream_report["n_evicted"] > 0
        and stream_report["maintain_share"] <= MAINTENANCE_SHARE_GATE
    )
    print(
        f"maintenance: {stream_report['n_drift_merges']} merges, "
        f"{stream_report['n_drift_splits']} splits, "
        f"{stream_report['n_evicted']} evictions (each must be > 0) in "
        f"{stream_report['maintain_s']:.2f} s = "
        f"{stream_report['maintain_share']:.1%} of the stream wall "
        f"(gate: {MAINTENANCE_SHARE_GATE:.0%}); flushes "
        f"{stream_report['flush_share']:.1%} — "
        f"{'OK' if maintenance_ok else 'FAIL'}"
    )

    mine_rate = measure_batch_mine()
    baseline = batch_baseline()
    if baseline:
        floor = BATCH_REGRESSION * baseline
        batch_ok = mine_rate >= floor
        print(
            f"batch mine: {mine_rate:,} msgs/s "
            f"(floor: {floor:,.0f} = {BATCH_REGRESSION:.0%} of baseline "
            f"{baseline:,}) — {'OK' if batch_ok else 'FAIL'}"
        )
    else:
        batch_ok = True
        print(f"batch mine: {mine_rate:,} msgs/s (no recorded baseline)")

    RESULTS.parent.mkdir(exist_ok=True)
    data: dict = {}
    if RESULTS.exists():
        data = json.loads(RESULTS.read_text())
    data.update(
        {
            "gates": {
                "p99_latency_s": P99_GATE_S,
                "batch_regression": BATCH_REGRESSION,
                "convergence": CONVERGENCE_GATE,
                "maintenance_share": MAINTENANCE_SHARE_GATE,
            },
            "stream": stream_report,
            "convergence": round(convergence, 4),
            "batch_mine_msgs_per_s": mine_rate,
            "batch_baseline_msgs_per_s": baseline,
        }
    )
    RESULTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    return 0 if p99_ok and convergence_ok and maintenance_ok and batch_ok else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # byte-identical LogHub lines, whichever interpreter runs this
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
