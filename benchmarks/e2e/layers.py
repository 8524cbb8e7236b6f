"""The per-layer metric catalogue and how each value is derived.

Layer names are module names.  ``PER_LAYER`` is the single list of
names, units and directions; ``BENCHMARK.json`` repeats it (a harness
test keeps the two equal).  A value is ``None`` when its layer does not
take part in the workload or its proxy's target no longer exists.
"""

from __future__ import annotations

from benchmarks.e2e.trace import Tracer, self_seconds_by_name, self_times, unattributed_frac

#: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "ingest.busy_s": ("s", "lower"),
    "ingest.wait_s": ("s", "lower"),
    "ingest.lines": ("count", "higher"),
    "ingest.isolated_us_per_line": ("us", "lower"),
    "scanner.busy_s": ("s", "lower"),
    "scanner.us_per_msg": ("us", "lower"),
    "scanner.msgs": ("count", "higher"),
    "scanner.isolated_us_per_msg": ("us", "lower"),
    "fastpath.dedup_ratio": ("ratio", "higher"),
    "fastpath.scan_hit_rate": ("ratio", "higher"),
    "fastpath.match_hit_rate": ("ratio", "higher"),
    "parser.busy_s": ("s", "lower"),
    "parser.us_per_msg": ("us", "lower"),
    "parser.patterns_end": ("count", "lower"),
    "parser.isolated_us_per_msg": ("us", "lower"),
    "partition.busy_s": ("s", "lower"),
    "analyzer.busy_s": ("s", "lower"),
    "analyzer.us_per_unmatched": ("us", "lower"),
    "analyzer.unmatched": ("count", "lower"),
    "analyzer.isolated_us_per_msg": ("us", "lower"),
    "patterndb.busy_s": ("s", "lower"),
    "patterndb.sqlite_s": ("s", "lower"),
    "patterndb.patterns_written": ("count", "lower"),
    "patterndb.rows_end": ("count", "lower"),
    "patterndb.isolated_us_per_row": ("us", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.matched_frac": ("ratio", "higher"),
    "streaming.flush_s": ("s", "lower"),
    "streaming.maintain_s": ("s", "lower"),
    "streaming.flushes": ("count", "lower"),
    "streaming.microbatches": ("count", "lower"),
    "streaming.drift_merges": ("count", "higher"),
    "streaming.drift_splits": ("count", "higher"),
    "streaming.evicted": ("count", "higher"),
    "streaming.grouping_accuracy": ("ratio", "higher"),
    "serve.framing.isolated_us_per_frame": ("us", "lower"),
    "serve.router.offer_s": ("s", "lower"),
    "serve.router.take_s": ("s", "lower"),
    "serve.router.isolated_us_per_record": ("us", "lower"),
    "serve.router.peak_depth": ("count", "lower"),
    "serve.server.dispatch_busy_frac": ("ratio", "higher"),
    "serve.server.dispatch_idle_s": ("s", "lower"),
    "serve.server.sender_blocked_s": ("s", "lower"),
    "serve.server.shed": ("count", "lower"),
    "serve.server.malformed": ("count", "lower"),
    "parallel.wall_s": ("s", "lower"),
    "parallel.worker_stage_s": ("s", "lower"),
    "parallel.sync_bytes": ("bytes", "lower"),
    "parallel.respawns": ("count", "lower"),
    "parallel.efficiency": ("ratio", "higher"),
    "trace.unattributed_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: BatchResult.timings key -> layer, for the pool (its stages run in the
#: workers, out of reach of the parent-side stage proxies)
_TIMING_LAYERS = {
    "scan": "scanner",
    "parse": "parser",
    "partition_length": "partition",
    "analyze": "analyzer",
    "persist": "patterndb",
}


def _ratio(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _per(seconds, count):
    """µs per item."""
    ratio = _ratio(seconds, count)
    return None if ratio is None else ratio * 1e6


def layer_metrics(
    tracer: Tracer, spans: list[dict], wall_s: float, tally: dict, extra: dict
) -> dict:
    """Every name of :data:`PER_LAYER` for one traced run.

    *tally* is the fold of the run's ``BatchResult``\\ s (records,
    matched, unmatched, new patterns, cache counters, stage timings);
    *extra* carries the values only the workload knows (row counts,
    stream/serve/pool counters, isolated measurements).
    """
    span_own = self_times(spans)
    own = self_seconds_by_name(spans, span_own)
    busy = {layer: tracer.seconds(layer, own) for layer in _TIMING_LAYERS.values()}
    if extra.get("stages_in_workers"):
        timings = tally.get("timings", {})
        busy = {layer: timings.get(key) for key, layer in _TIMING_LAYERS.items()}
    elif busy["patterndb"] is not None:
        # the whole persist stage, the PatternDB calls under it included
        busy["patterndb"] = _total(spans, "patterndb")
    records = tally.get("records", 0)
    cache = tally.get("cache", {})
    out: dict = dict.fromkeys(PER_LAYER)
    out.update(
        {
            "ingest.busy_s": tracer.seconds("ingest.busy", own),
            "ingest.wait_s": tracer.seconds("ingest.wait", own),
            "ingest.lines": extra.get("ingest_lines"),
            "scanner.busy_s": busy["scanner"],
            "scanner.us_per_msg": _per(busy["scanner"], records),
            "scanner.msgs": records if busy["scanner"] is not None else None,
            "parser.busy_s": busy["parser"],
            "parser.us_per_msg": _per(busy["parser"], records),
            "parser.patterns_end": extra.get("rows_end"),
            "partition.busy_s": busy["partition"],
            "analyzer.busy_s": busy["analyzer"],
            "analyzer.us_per_unmatched": _per(busy["analyzer"], tally.get("unmatched")),
            "analyzer.unmatched": tally.get("unmatched"),
            "patterndb.busy_s": busy["patterndb"],
            "patterndb.sqlite_s": tracer.seconds("patterndb.sqlite", own),
            "patterndb.patterns_written": tally.get("new_patterns"),
            "patterndb.rows_end": extra.get("rows_end"),
            # for the pool the mining call is IPC + merge: parallel.wall_s
            "engine.self_s": None
            if extra.get("stages_in_workers")
            else tracer.seconds("engine", own),
            "engine.matched_frac": _ratio(tally.get("matched"), records),
            "trace.unattributed_frac": unattributed_frac(spans, span_own, wall_s),
        }
    )
    if cache:
        unique = cache.get("dedup_unique", 0)
        duplicates = cache.get("dedup_duplicates", 0)
        out["fastpath.dedup_ratio"] = _ratio(duplicates, unique + duplicates)
        out["fastpath.scan_hit_rate"] = _ratio(
            cache.get("scan_hits", 0), cache.get("scan_hits", 0) + cache.get("scan_misses", 0)
        )
        out["fastpath.match_hit_rate"] = _ratio(
            cache.get("match_hits", 0),
            cache.get("match_hits", 0) + cache.get("match_misses", 0),
        )
    flush_s = tracer.seconds("streaming.flush", own)
    if flush_s is not None:
        total = _total(spans, "streaming.flush")
        out["streaming.flush_s"] = total
        out["streaming.maintain_s"] = (
            total - _total(spans, "engine.flush")
            if "engine.flush" in tracer.installed
            else None
        )
    if "serve.router.take" in tracer.installed or "serve.router.offer" in tracer.installed:
        out["serve.router.offer_s"] = tracer.seconds("serve.router.offer", own)
        out["serve.router.take_s"] = tracer.seconds("serve.router.take", own)
        out["serve.server.dispatch_idle_s"] = tracer.seconds("serve.router.wait", own)
        out["serve.server.dispatch_busy_frac"] = _ratio(_total(spans, "engine"), wall_s)
    if extra.get("stages_in_workers"):
        stage_s = sum(tally.get("timings", {}).values())
        wall = _total(spans, "engine")
        out["parallel.wall_s"] = wall
        out["parallel.worker_stage_s"] = stage_s
        out["parallel.efficiency"] = _ratio(stage_s, extra["workers"] * wall)
    # workload-specific counters and isolated measurements, by final name
    out.update({k: v for k, v in extra.items() if k in PER_LAYER})
    return out


def _total(spans: list[dict], name: str) -> float:
    """Σ duration (children included) of the spans called *name*."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
