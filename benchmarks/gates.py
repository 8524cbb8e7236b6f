"""The benchmark gates the end-to-end run and tier-1 do not make.

    PYTHONPATH=src python -m benchmarks.gates

Each gate is a pure function of one result record shaped like the full
e2e run's (``{"header": ..., "workloads": {name: record}}``) and returns
``(status, reason)`` with status ``pass``, ``fail`` or ``skip``.  The
record comes from ``benchmarks.e2e.run.measure`` on the ``steady_file``
and ``steady_pool`` workloads at ``GATE_SCALE``, plus the one comparison
e2e does not make: ``metrics_pairs_s``, alternating timings of the same
batches mined with metrics on and off.  Exits 1 if any gate fails.

The legacy checks the gates do not repeat are pinned elsewhere:
convergence ≥ 0.95 by ``tests/core/test_streaming.py::TestConvergence``,
shed exactness by ``tests/serve/test_server.py``, drift merge/split/TTL
by the e2e ``stream_drift`` output checks, pool ≡ serial by the e2e
fingerprint trio.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import sys
from time import perf_counter

from benchmarks.e2e import config, inputs, run

PASS, FAIL, SKIP = "pass", "fail", "skip"

#: 100M messages/day, the paper's production load (§IV)
PAPER_FLOOR_MSGS_PER_S = 100_000_000 / 86_400
#: pool throughput over serial; the same as pool wall ≤ 0.8 × serial
POOL_SPEEDUP = 1.25
MAX_METRICS_OVERHEAD = 0.05
MIN_OVERHEAD_PAIRS = 5
#: ``--seconds 5``: the smallest scale at which the pool's speed-up is
#: steady (at ``--quick`` the pool cannot amortise its start-up)
GATE_SCALE = 0.5
SEED = 1


def throughput(result: dict, workload: str) -> float:
    return result["workloads"][workload]["end_to_end"]["throughput_msgs_per_s"]["value"]


def paper_floor(result: dict) -> tuple[str, str]:
    """The serial miner keeps up with the paper's 100M messages/day."""
    rate = throughput(result, "steady_file")
    status = PASS if rate >= PAPER_FLOOR_MSGS_PER_S else FAIL
    return status, f"steady_file {rate:,.0f} msgs/s, floor {PAPER_FLOOR_MSGS_PER_S:,.0f}"


def pool_pays(result: dict) -> tuple[str, str]:
    """The worker pool mines faster than the serial miner it replaces."""
    nproc = result["header"]["nproc"]
    if nproc < 2:
        return SKIP, f"{nproc} CPU: the pool's workers cannot overlap"
    ratio = throughput(result, "steady_pool") / throughput(result, "steady_file")
    status = PASS if ratio >= POOL_SPEEDUP else FAIL
    return status, f"steady_pool / steady_file = {ratio:.2f}x, need >= {POOL_SPEEDUP}x"


def metrics_overhead(result: dict) -> tuple[str, str]:
    """Leaving metrics on costs at most ``MAX_METRICS_OVERHEAD``."""
    pairs = result["metrics_pairs_s"]
    if len(pairs) < MIN_OVERHEAD_PAIRS:
        return FAIL, f"{len(pairs)} timing pairs, need >= {MIN_OVERHEAD_PAIRS}"
    overhead = statistics.median(on / off for on, off in pairs) - 1.0
    status = PASS if overhead <= MAX_METRICS_OVERHEAD else FAIL
    return status, (
        f"median of {len(pairs)} pairs {overhead:+.1%}, limit {MAX_METRICS_OVERHEAD:+.0%}"
    )


GATES = (paper_floor, pool_pays, metrics_overhead)


def metrics_pairs(seed: int, sizes: dict) -> list[tuple[float, float]]:
    """``(on_s, off_s)`` per measured batch of e2e's steady input: two
    miners, ``production_config()`` and the same with metrics off, fed
    the same batches in turn (the order alternates pair by pair).  A
    collection before each call keeps one miner's garbage from being
    charged to the other."""
    from repro.core.ingest import StreamIngester
    from repro.core.patterndb import PatternDB
    from repro.core.pipeline import SequenceRTG

    prefix, measured = inputs.steady(seed, sizes["steady_prefix"], sizes["steady_measured"])
    on = config.production_config()
    miners = [
        SequenceRTG(db=PatternDB(), config=on),
        SequenceRTG(db=PatternDB(), config=dataclasses.replace(on, enable_metrics=False)),
    ]
    ingester = StreamIngester(batch_size=sizes["batch_size"])
    for batch in ingester.batches(prefix):
        for miner in miners:
            miner.analyze_by_service(batch)
    pairs = []
    for index, batch in enumerate(ingester.batches(measured)):
        seconds = [0.0, 0.0]
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            gc.collect()
            began = perf_counter()
            miners[side].analyze_by_service(batch)
            seconds[side] = perf_counter() - began
        pairs.append((seconds[0], seconds[1]))
    return pairs


def measure() -> dict:
    """The record every gate reads."""
    sizes = config.sizes(GATE_SCALE)
    return {
        "header": run.header(SEED, GATE_SCALE, quick=False),
        "workloads": {
            workload: run.measure(workload, SEED, sizes, trace=False)
            for workload in ("steady_file", "steady_pool")
        },
        "metrics_pairs_s": metrics_pairs(SEED, sizes),
    }


def main() -> int:
    result = measure()
    failed = False
    for gate in GATES:
        status, reason = gate(result)
        failed |= status == FAIL
        print(f"{status.upper():4}  {gate.__name__}: {reason}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
