"""In-process replay of one e2e workload's inputs, with per-stage seconds.

Regenerates the records ``benchmarks/e2e/run.py`` feeds (same seed and
scale), mines them as its child does (warm-up untimed) and prints the
wall time, the summed ``BatchResult.timings`` and ``.cache``, the stream
counters and the full (generation-2) collections paid; or cProfile's::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m benchmarks.replay --seed 1
    PYTHONHASHSEED=0 PYTHONPATH=src python -m benchmarks.replay --workload stream_drift
    PYTHONHASHSEED=0 PYTHONPATH=src python -m benchmarks.replay --workload cold_mine --profile 25

``--workload serve_tcp`` times the event-loop side of the socket path
alone: ``serve_tcp``'s measured frames, in 64 KiB chunks, through the TCP
listener's handler into a one-shard ``ServeServer`` whose dispatcher
never starts (no miner runs, nothing blocks); it prints µs per frame.

``PYTHONHASHSEED=0`` is what ``run.py`` pins (value pools seed from ``hash()``).
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import gc
import pstats
import tempfile
import time
from contextlib import nullcontext
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

from benchmarks.e2e import config, inputs

DAY_ZERO = datetime(2026, 1, 1, tzinfo=timezone.utc)


def _summing(rtg, out: dict):
    """*rtg*, its every mining call adding timings and counters to *out*."""
    for name in ("run", "flush"):
        def summed(*args, _call=getattr(rtg.engine, name), **kwargs):
            result = _call(*args, **kwargs)
            counts = (("n_records", result.n_records), *result.cache.items())
            for key, value in (*result.timings.items(), *counts):
                out[key] = out.get(key, 0) + value
            return result
        setattr(rtg.engine, name, summed)
    return rtg


def _full_collections(out: dict):  # a gc.callbacks hook
    def hook(phase: str, info: dict) -> None:
        if info["generation"] == 2 and phase == "start":
            out["gc_started"] = time.perf_counter()
        elif info["generation"] == 2:
            out["gc_full"] = out.get("gc_full", 0) + 1
            out["gc_full_s"] = out.get("gc_full_s", 0.0) + time.perf_counter() - out.pop("gc_started")
    return hook


def replay(workload: str, seed: int, scale: float, work: Path, profiler=None) -> dict:
    """Mine *workload*'s measured records; wall seconds, records, sums."""
    from repro.core.ingest import StreamIngester, parse_record
    from repro.core.patterndb import PatternDB
    from repro.core.pipeline import SequenceRTG

    def _batches(lines: list[str], size: int):
        # a generator, as the child's file feed is: a batch's records die
        # with its mining call instead of staying on the timed loop's heap
        return StreamIngester(batch_size=size).batches(lines)
    sizes = config.sizes(scale)
    sums: dict = {}
    if workload == "stream_drift":
        cfg = config.drift_config()
        days, _ = inputs.drift(seed, sizes["drift_loghub_lines"], sizes["drift_prod_per_day"])
        days = [[parse_record(line) for line in day] for day in days]
        warm = SequenceRTG(PatternDB(), cfg).stream_driver()
        warm.feed(days[0][: 2 * cfg.streaming.micro_batch_size], now=DAY_ZERO)
        warm.close()
        driver = _summing(SequenceRTG(PatternDB(str(work / "patterns.db")), cfg), sums).stream_driver()

        def measured():
            for day, records in enumerate(days):
                driver.feed(records, now=DAY_ZERO + timedelta(days=day))
            driver.close()
            s = driver.stats
            sums.update(flushes=s.n_flushes, microbatches=s.n_micro_batches, evicted=s.n_evicted,
                        drift_merges=s.n_drift_merges, drift_splits=s.n_drift_splits)
    elif workload == "serve_tcp":
        measured = _admission(seed, sizes, config.production_config(), sums)
    else:
        cfg = config.production_config()
        if workload == "steady_file":
            prefix, lines = inputs.steady(seed, sizes["steady_prefix"], sizes["steady_measured"])
            rtg = SequenceRTG(PatternDB(), cfg)
            for _ in rtg.process_stream(_batches(prefix, config.BATCH_SIZE)):
                pass
            _summing(rtg, sums)

            def measured():
                for _ in rtg.process_stream(_batches(lines, config.BATCH_SIZE)):
                    pass
        else:  # cold_mine: each round builds its DB and miner, as the child's does
            rounds = list(_batches(inputs.cold(seed, sizes["cold_rounds"], sizes["cold_per_round"]),
                                   sizes["cold_per_round"]))
            SequenceRTG(PatternDB(), cfg).analyze_by_service(rounds[0])

            def measured():
                for records in rounds:
                    _summing(SequenceRTG(PatternDB(), cfg), sums).analyze_by_service(records)
    gc.callbacks.append(hook := _full_collections(sums))
    began = time.perf_counter()
    with profiler or nullcontext():
        measured()
    wall_s = time.perf_counter() - began
    gc.callbacks.remove(hook)
    return {"wall_s": wall_s, "records": sums.pop("n_records", 0), "sums": sums}


def _admission(seed: int, sizes: dict, cfg, sums: dict):
    """``serve_tcp``'s measured frames through the TCP handler, timed."""
    from repro.core.patterndb import PatternDB
    from repro.core.pipeline import SequenceRTG
    from repro.serve import ListenSpec, ServeConfig, ServeServer
    from repro.serve.listeners import handle_stream_connection

    _, lines = inputs.steady(seed, sizes["steady_prefix"], sizes["steady_measured"])
    payload = ("\n".join(lines) + "\n").encode()
    listen = (ListenSpec(scheme="tcp", host="127.0.0.1", port=0),)
    server = ServeServer(SequenceRTG(PatternDB(), cfg), ServeConfig(
        listen=listen, batch_size=config.BATCH_SIZE, high_water=len(lines) + 1))
    writer = SimpleNamespace(close=lambda: None, wait_closed=lambda: asyncio.sleep(0))

    async def connection():
        reader = asyncio.StreamReader(limit=len(payload) + 1)
        reader.feed_data(payload)
        reader.feed_eof()
        await handle_stream_connection(server, reader, writer, source="tcp")

    def measured():
        asyncio.run(connection())
        assert server.router.accepted_total == server.stats.frames == len(lines)
        sums["n_records"] = len(lines)
    return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="steady_file",
                        choices=("steady_file", "cold_mine", "stream_drift", "serve_tcp"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="e2e --seconds (scale S/10)")
    parser.add_argument("--profile", type=int, default=0, metavar="N", help="cProfile's top N")
    args = parser.parse_args(argv)
    profiler = cProfile.Profile() if args.profile else None
    with tempfile.TemporaryDirectory() as work:
        out = replay(args.workload, args.seed, args.seconds / config.SECONDS_AT_SCALE_1,
                     Path(work), profiler)
    print(f"{args.workload} seed {args.seed}: {out['records']} records in {out['wall_s']:.2f} s"
          f" ({out['records'] / out['wall_s']:,.0f} msgs/s,"
          f" {out['wall_s'] / out['records'] * 1e6:.2f} us each)")
    for key, value in out["sums"].items():
        print(f"  {key:<18} {value:12.3f}" if isinstance(value, float) else f"  {key:<18} {value:8d}")
    if profiler is not None:
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.profile)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
