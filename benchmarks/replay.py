"""In-process replay of one e2e workload's inputs, with per-stage seconds.

Regenerates the records ``benchmarks/e2e/run.py`` feeds (same seed and
scale) and mines them here on the production configuration, printing
the summed ``BatchResult.timings`` per stage and the measured wall time
(the steady prefix is mined first, untimed), optionally with cProfile::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m benchmarks.replay --seed 1
    PYTHONHASHSEED=0 PYTHONPATH=src python -m benchmarks.replay --workload cold_mine --profile 25

``PYTHONHASHSEED=0`` is what ``run.py`` pins: the generators seed their
value pools from ``hash()``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time

from benchmarks.e2e import config, inputs


def _batches(lines: list[str], size: int):
    from repro.core.ingest import StreamIngester
    return list(StreamIngester(batch_size=size).batches(lines))


def replay(workload: str, seed: int, scale: float, profiler=None) -> dict:
    """Mine *workload*'s measured records; wall seconds, records, stages."""
    from repro.core.patterndb import PatternDB
    from repro.core.pipeline import SequenceRTG
    sizes = config.sizes(scale)
    cfg = config.production_config()
    if workload == "steady_file":
        prefix, measured = inputs.steady(seed, sizes["steady_prefix"], sizes["steady_measured"])
        rtg = SequenceRTG(PatternDB(), cfg)
        for _ in rtg.process_stream(_batches(prefix, config.BATCH_SIZE)):
            pass
        rounds = [(rtg, _batches(measured, config.BATCH_SIZE))]
    else:  # cold_mine: one fresh miner per round
        per_round = sizes["cold_per_round"]
        lines = inputs.cold(seed, sizes["cold_rounds"], per_round)
        rounds = [(SequenceRTG(PatternDB(), cfg), [b]) for b in _batches(lines, per_round)]
    stages: dict[str, float] = {}
    records = 0
    began = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    for rtg, batches in rounds:
        for result in rtg.process_stream(batches):
            records += result.n_records
            for stage, seconds in result.timings.items():
                stages[stage] = stages.get(stage, 0.0) + seconds
    if profiler is not None:
        profiler.disable()
    return {"wall_s": time.perf_counter() - began, "records": records, "stages": stages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="steady_file", choices=("steady_file", "cold_mine"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="e2e --seconds (scale S/10)")
    parser.add_argument("--profile", type=int, default=0, metavar="N", help="cProfile's top N")
    args = parser.parse_args(argv)
    profiler = cProfile.Profile() if args.profile else None
    out = replay(args.workload, args.seed, args.seconds / config.SECONDS_AT_SCALE_1, profiler)
    print(f"{args.workload} seed {args.seed}: {out['records']} records in {out['wall_s']:.2f} s"
          f" ({out['records'] / out['wall_s']:,.0f} msgs/s)")
    for stage, seconds in sorted(out["stages"].items(), key=lambda kv: -kv[1]):
        print(f"  {stage:<18} {seconds:8.3f} s")
    if profiler is not None:
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.profile)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
