"""The benchmark gates the end-to-end run and tier-1 do not make.

    PYTHONPATH=src python -m benchmarks.gates

Each gate is a pure function of one result record shaped like the full
e2e run's (``{"header": ..., "workloads": {name: record}}``) and returns
``(status, reason)`` with status ``pass``, ``fail`` or ``skip``.  The
record comes from ``benchmarks.e2e.run.measure`` on the ``steady_file``
and ``steady_pool`` workloads at ``GATE_SCALE``, plus the two timings
e2e does not make: ``metrics_pairs_s``, alternating timings of the same
batches mined with and without the engine's metrics observer, and
``fig5_s``, the paper's Fig. 5 curves (legacy ``Analyze`` against
``AnalyzeByService`` per data-set size).  Exits 1 if any gate fails.

These are the paper's timing claims; its deterministic ones are the
``benchmarks/bench_*.py`` tests, which regenerate ``results/*.md``.
Fig. 7's "a single instance keeps pace" is ``paper_floor``, and the
§IV scale-out speed-up is ``pool_pays``.

The legacy checks the gates do not repeat are pinned elsewhere:
convergence ≥ 0.95 by ``tests/core/test_streaming.py::TestConvergence``,
shed exactness by ``tests/serve/test_server.py``, drift merge/split/TTL
by the e2e ``stream_drift`` output checks, pool ≡ serial by the e2e
fingerprint trio.
"""

from __future__ import annotations

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
#: Fig. 5 data-set sizes (paper: 0.5M .. 13.25M lines; scaled for pure Python)
FIG5_SIZES = (2_000, 5_000, 12_000, 30_000)
#: from this size on ``AnalyzeByService`` must beat legacy ``Analyze``
#: (in the paper, too, the curves nearly coincide at the left edge)
FIG5_CROSSOVER_LINES = 12_000
#: legacy over ``AnalyzeByService`` time at the largest size
FIG5_SPEEDUP = 1.5
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
    """The engine's metrics observer costs at most ``MAX_METRICS_OVERHEAD``."""
    pairs = result["metrics_pairs_s"]
    if len(pairs) < MIN_OVERHEAD_PAIRS:
        return FAIL, f"{len(pairs)} timing pairs, need >= {MIN_OVERHEAD_PAIRS}"
    overhead = statistics.median(on / off for on, off in pairs) - 1.0
    status = PASS if overhead <= MAX_METRICS_OVERHEAD else FAIL
    return status, (
        f"median of {len(pairs)} pairs {overhead:+.1%}, limit {MAX_METRICS_OVERHEAD:+.0%}"
    )


def fig5_shape(result: dict) -> tuple[str, str]:
    """Fig. 5: ``AnalyzeByService`` beats legacy ``Analyze`` from
    ``FIG5_CROSSOVER_LINES`` on and by ``FIG5_SPEEDUP`` at the largest
    size, and the legacy cost per line grows faster with the size."""
    rows = result["fig5_s"]
    (first, legacy_first, rtg_first), (last, legacy_last, rtg_last) = rows[0], rows[-1]
    legacy_growth = (legacy_last / last) / (legacy_first / first)
    rtg_growth = (rtg_last / last) / (rtg_first / first)
    ok = (
        all(rtg < legacy for lines, legacy, rtg in rows if lines >= FIG5_CROSSOVER_LINES)
        and legacy_last > FIG5_SPEEDUP * rtg_last
        and legacy_growth > rtg_growth
    )
    times = ", ".join(f"{lines:,} {legacy:.2f}s/{rtg:.2f}s" for lines, legacy, rtg in rows)
    return PASS if ok else FAIL, (
        f"Analyze/AnalyzeByService {times}; per-line growth "
        f"{legacy_growth:.2f}x/{rtg_growth:.2f}x"
    )


GATES = (paper_floor, pool_pays, metrics_overhead, fig5_shape)


def fig5_records(n: int) -> list:
    """*n* records of Fig. 5's multi-service stream (241 services, the
    paper's average)."""
    from repro.workflow.stream import ProductionStream, StreamConfig

    return list(ProductionStream(StreamConfig(n_services=241, seed=1)).records(n))


def fig5_times() -> list[tuple[int, float, float]]:
    """``(lines, Analyze s, AnalyzeByService s)`` per ``FIG5_SIZES``
    entry, each method on a fresh miner over an empty pattern DB, so
    every record reaches the analyser."""
    from repro.core.patterndb import PatternDB
    from repro.core.pipeline import SequenceRTG

    rows = []
    for lines in FIG5_SIZES:
        records = fig5_records(lines)
        seconds = []
        for method in (SequenceRTG.analyze_legacy, SequenceRTG.analyze_by_service):
            gc.collect()
            began = perf_counter()
            method(SequenceRTG(db=PatternDB()), records)
            seconds.append(perf_counter() - began)
        rows.append((lines, *seconds))
    return rows


def metrics_pairs(seed: int, sizes: dict) -> list[tuple[float, float]]:
    """``(on_s, off_s)`` per measured batch of e2e's steady input: two
    ``production_config()`` miners, the second with its engine's
    observers removed, fed the same batches in turn (the order alternates
    pair by pair).  A collection before each call keeps one miner's
    garbage from being charged to the other."""
    from repro.core.ingest import StreamIngester
    from repro.core.patterndb import PatternDB
    from repro.core.pipeline import SequenceRTG

    prefix, measured = inputs.steady(seed, sizes["steady_prefix"], sizes["steady_measured"])
    miners = [SequenceRTG(db=PatternDB(), config=config.production_config()) for _ in range(2)]
    miners[1].engine.observers.clear()
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
        "fig5_s": fig5_times(),
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
