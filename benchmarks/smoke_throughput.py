"""Quick throughput smoke gate for CI.

Measures steady-state scan+parse routing throughput (the cost every
message pays in the paper's production deployment) on a realistic
duplicate-carrying stream and exits non-zero if it drops below the
paper's sustained requirement of 100M messages/day ≈ 1,160 msgs/s.

Additionally mines one cold batch (everything unmatched — the miner's
worst case) and writes the per-stage msgs/s breakdown to the
``stages`` section of ``results/BENCH_throughput.json`` so the analyze
share of end-to-end mining stays visible to future PRs.

Deliberately small (a few seconds end to end) — this is a regression
tripwire, not a benchmark.  Run the full suite with
``pytest benchmarks/`` for real numbers.

Usage::

    PYTHONPATH=src python benchmarks/smoke_throughput.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.workflow.stream import ProductionStream, StreamConfig

PAPER_RATE_PER_SECOND = 100_000_000 / 86_400

RESULTS = Path(__file__).parent.parent / "results" / "BENCH_throughput.json"

#: the workflow stages whose per-stage seconds BatchResult reports
STAGES = ("scan", "parse", "partition_length", "analyze", "persist")

#: cold-mine corpus — matches bench_throughput's mining benchmark shape
N_MINE = 5_000
MINE_REPEATS = 3


def measure_stages() -> dict:
    """Cold-mine one batch (best of MINE_REPEATS) and break the run
    down per stage: msgs/s and share of total batch seconds."""
    records = list(
        ProductionStream(StreamConfig(n_services=60, seed=32)).records(N_MINE)
    )
    best_seconds = float("inf")
    best_timings: dict[str, float] = {}
    for _ in range(MINE_REPEATS):
        rtg = SequenceRTG(db=PatternDB())
        t0 = time.perf_counter()
        result = rtg.analyze_by_service(records)
        seconds = time.perf_counter() - t0
        assert result.n_new_patterns > 0
        if seconds < best_seconds:
            best_seconds = seconds
            best_timings = dict(result.timings)
    report: dict = {"mine_msgs_per_s": round(len(records) / best_seconds)}
    for stage in STAGES:
        stage_seconds = best_timings.get(stage, 0.0)
        report[stage] = {
            "msgs_per_s": round(len(records) / stage_seconds)
            if stage_seconds
            else None,
            "share": round(stage_seconds / best_seconds, 3),
        }
    return report


def record_stages(stages: dict) -> None:
    """Merge the ``stages`` section into results/BENCH_throughput.json
    (same merge discipline as bench_throughput's ``_record_bench``)."""
    RESULTS.parent.mkdir(exist_ok=True)
    data: dict = {"paper_gate_msgs_per_s": round(PAPER_RATE_PER_SECOND, 1)}
    if RESULTS.exists():
        data = json.loads(RESULTS.read_text())
    data["stages"] = stages
    RESULTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main() -> int:
    stream = ProductionStream(
        StreamConfig(n_services=40, seed=41, duplicate_fraction=0.5)
    )
    rtg = SequenceRTG(db=PatternDB())
    rtg.analyze_by_service(list(stream.records(4_000)))  # learn the stream

    routed = 0
    seconds = 0.0
    for _ in range(3):
        result = rtg.analyze_by_service(list(stream.records(2_000)))
        routed += result.n_records
        seconds += result.timings.get("scan", 0.0) + result.timings.get(
            "parse", 0.0
        )
    per_second = routed / seconds

    ok = per_second > PAPER_RATE_PER_SECOND
    print(
        f"scan+parse: {per_second:,.0f} msgs/s "
        f"(gate: {PAPER_RATE_PER_SECOND:,.0f} msgs/s) — "
        f"{'OK' if ok else 'FAIL'}"
    )

    stages = measure_stages()
    record_stages(stages)
    shares = ", ".join(f"{stage} {stages[stage]['share']:.0%}" for stage in STAGES)
    print(f"cold mine: {stages['mine_msgs_per_s']:,} msgs/s ({shares})")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
