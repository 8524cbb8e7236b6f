"""Quick worker-pool smoke gate for CI.

Runs a duplicate-heavy JSON-lines stream through the pipelined ingester
twice — into a serial miner and into a 2-worker pool — and checks the
two production promises:

* the pooled database (the union read over its shard files) is
  bit-identical to the serial one: pattern ids, supports, match counts
  and stored examples;
* the pool earns its processes: once both are warm, its wall clock over
  the same lines is at most ``WALL_GATE`` of the serial miner's.  The
  gate needs two cores and is skipped, with a message, on a box that
  has one.

Writes ``results/BENCH_parallel.json``.  Deliberately small (a few
seconds end to end) — this is a regression tripwire, not a benchmark;
``benchmarks/e2e`` (workload ``steady_pool``) has the real numbers.

Usage::

    PYTHONPATH=src python benchmarks/smoke_parallel.py
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

from repro.core.ingest import StreamIngester
from repro.core.parallel import PersistentParallelSequenceRTG
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.workflow.stream import ProductionStream, StreamConfig

#: pool wall ÷ serial wall the pool must stay under
WALL_GATE = 0.8

N_MESSAGES = 30_000
BATCH_SIZE = 2_000
#: batches both miners run before the clock starts (worker spawn,
#: caches, the bulk of pattern discovery)
WARMUP_BATCHES = 3
N_WORKERS = 2

RESULT_PATH = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_parallel.json"
)


def _stream_lines():
    stream = ProductionStream(
        StreamConfig(n_services=40, seed=41, duplicate_fraction=0.5)
    )
    return list(stream.jsonl(N_MESSAGES))


def _fingerprint(db):
    return sorted(
        (row.id, row.service, row.pattern_text, row.match_count, row.examples)
        for row in db.rows()
    )


def _steady_wall(miner, lines) -> float:
    """Seconds *miner* takes over the lines after the warm-up batches."""
    batches = StreamIngester(batch_size=BATCH_SIZE).batches_pipelined(
        lines, prefetch=2
    )
    began = 0.0
    for i, _ in enumerate(miner.process_stream(batches), start=1):
        if i == WARMUP_BATCHES:
            began = perf_counter()
    return perf_counter() - began


def main() -> int:
    lines = _stream_lines()
    timed = N_MESSAGES - WARMUP_BATCHES * BATCH_SIZE

    serial = SequenceRTG(db=PatternDB())
    serial_wall = _steady_wall(serial, lines)
    with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=N_WORKERS) as pool:
        pool_wall = _steady_wall(pool, lines)
        identical = _fingerprint(pool.db) == _fingerprint(serial.db)
        respawns = pool.telemetry["respawns"]

    ratio = pool_wall / serial_wall
    cores = os.cpu_count() or 1
    gated = cores >= 2
    fast_enough = ratio <= WALL_GATE

    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": {
                    "messages": N_MESSAGES,
                    "batch_size": BATCH_SIZE,
                    "warmup_batches": WARMUP_BATCHES,
                    "workers": N_WORKERS,
                    "cpu_count": cores,
                },
                "serial": {
                    "wall_s": round(serial_wall, 3),
                    "msgs_per_s": round(timed / serial_wall),
                },
                "pool": {
                    "wall_s": round(pool_wall, 3),
                    "msgs_per_s": round(timed / pool_wall),
                    "respawns": respawns,
                },
                "pool_over_serial_wall": round(ratio, 3),
                "wall_gate": WALL_GATE if gated else None,
                "identical_to_serial": identical,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")

    print(
        f"serial: {timed / serial_wall:,.0f} msgs/s, "
        f"{N_WORKERS}-worker pool: {timed / pool_wall:,.0f} msgs/s"
    )
    if gated:
        print(
            f"pool wall / serial wall: {ratio:.2f} (gate: <= {WALL_GATE}) — "
            f"{'OK' if fast_enough else 'FAIL'}"
        )
    else:
        print(
            f"pool wall / serial wall: {ratio:.2f} — gate skipped: "
            f"{cores} CPU, the pool cannot overlap its workers"
        )
    print(f"serial equivalence (examples included): {'OK' if identical else 'FAIL'}")
    print(f"worker respawns: {respawns}")
    return 0 if identical and (fast_enough or not gated) else 1


if __name__ == "__main__":
    sys.exit(main())
