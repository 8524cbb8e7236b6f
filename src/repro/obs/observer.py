"""Engine instrumentation: the metrics seam of the staged workflow.

:class:`MetricsObserver` rides the same four :class:`StageObserver`
hooks as the timing and fast-lane observers and turns them into
first-class metrics:

* per-stage latency histograms, timed around every stage run;
* per-service rows-in / matched / unmatched / patterns-out counters,
  tallied when a service group's ``persist`` stage completes;
* batch-level aggregates — batches total, parse matched-fraction gauge,
  fast-lane hit/miss/eviction/dedup counters, pattern-DB size gauges —
  folded from the finished :class:`BatchResult` (which the timing and
  fast-lane observers have already filled, so this observer must run
  after them, where :func:`repro.core.engine.default_observers` puts it).

Inside pool workers ``batch_level`` is switched off: a worker only
accumulates the stage-level signal and ships the registry delta with
its reply; the parent folds the batch-level aggregates exactly once
from the summed result via :func:`fold_batch_result`, so nothing is
double-counted.
"""

from __future__ import annotations

import time

from repro.analyzer.analyzer import AnalyzerConfig
from repro.core.engine import BatchResult, ServiceBatchContext, StageObserver
from repro.obs.metrics import MetricsRegistry, snapshot_to_dict
from repro.parser.parser import ParserConfig
from repro.scanner.scanner import ScannerConfig

__all__ = [
    "MetricsObserver",
    "fold_batch_result",
    "observe_patterndb",
    "METRIC_HELP",
]

#: metric name -> help string, the single naming authority (docs table
#: in docs/architecture.md mirrors this)
METRIC_HELP = {
    "rtg_stage_latency_seconds": "Wall-clock seconds per engine stage run (one observation per service group; scan, parse and analyze runs carry the name of their implementation as the backend label)",
    "rtg_scan_tokens_total": "Tokens emitted by the scan stage, by service (backend label: the tokenizer implementation)",
    "rtg_parse_candidates": "Candidate-frontier size per parse-stage match (candidate match programs considered; backend label: the matcher implementation)",
    "rtg_analyze_trie_nodes": "Analysis-trie node count per mined length partition (peak footprint before sibling merging; backend label: the analyser implementation)",
    "rtg_records_total": "Log records entering the engine, by service",
    "rtg_matched_total": "Record occurrences matched by already-known patterns, by service",
    "rtg_unmatched_total": "Record occurrences passed on to the analyser, by service",
    "rtg_patterns_total": "Newly discovered patterns persisted, by service",
    "rtg_batches_total": "Batches analysed",
    "rtg_matched_fraction": "Fraction of the last batch's records matched by known patterns",
    "rtg_fastlane_events_total": "Duplicate-aware fast lane events (scan/match cache hits, misses, evictions; dedup outcomes)",
    "rtg_patterndb_rows": "Pattern database row counts, by table",
    "rtg_patterndb_patterns": "Stored patterns, by service",
    "rtg_pool_workers": "Worker processes used by the last pool batch",
    "rtg_pool_events_total": "Worker pool lifecycle events (spawn, respawn)",
    "rtg_ingest_lines_total": "Stream items consumed by the ingest tier (network frames carry a source label: tcp, unix, http; the file-fed ingester reports unlabelled)",
    "rtg_ingest_malformed_total": "Stream items dropped as malformed (bad JSON or missing service/message fields), by source on the network path",
    "rtg_ingest_reader_leaks_total": "Pipelined-ingest reader threads that failed to exit within join_timeout when their generator closed",
    "rtg_serve_accepted_total": "Records admitted into a serving-tier shard queue, by shard",
    "rtg_serve_shed_total": "Records shed at a serving-tier high-water mark (shed: newest refused, HTTP 429; drop_oldest: stalest queued record evicted), by shard and policy",
    "rtg_serve_queue_depth": "Current serving-tier shard queue depth in records, by shard",
    "rtg_serve_ingest_latency_seconds": "Seconds from socket arrival to shard-queue admission per accepted record (includes block-policy backpressure waits)",
    "rtg_serve_connections_total": "Serving-tier connections accepted, by listener (tcp, unix, http)",
    "rtg_stream_message_latency_seconds": "Per-message processing latency in stream mode (micro-batch wall clock divided by its record count, one observation per record)",
    "rtg_stream_flushes_total": "Evolving-state flushes in stream mode, by trigger (pending, partition_bound, interval, close, manual)",
    "rtg_stream_evictions_total": "Patterns TTL-evicted in stream mode, by service",
    "rtg_stream_drift_total": "Drift-maintenance pattern mutations in stream mode, by event (merge: retired into a subsuming general pattern; split: variable folded to a constant)",
}

#: ``BatchResult.cache`` counter key -> (cache, event) labels
_FASTLANE_EVENTS = {
    "scan_hits": ("scan", "hit"),
    "scan_misses": ("scan", "miss"),
    "scan_evictions": ("scan", "eviction"),
    "match_hits": ("match", "hit"),
    "match_misses": ("match", "miss"),
    "match_evictions": ("match", "eviction"),
    "dedup_unique": ("dedup", "unique"),
    "dedup_duplicates": ("dedup", "duplicate"),
}

#: Candidate-count buckets for ``rtg_parse_candidates``: frontiers are
#: small integers (one pattern-length bucket of the service's set), not
#: latencies, so the histogram uses a 1–2.5–5 ladder over counts.
_CANDIDATE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
)

#: Node-count buckets for ``rtg_analyze_trie_nodes``: a partition's trie
#: holds one node per distinct edge plus END markers, from a handful for
#: a converged stream up to tens of thousands on a cold batch.
_TRIE_NODE_BUCKETS: tuple[float, ...] = (
    10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
)


class MetricsObserver(StageObserver):
    """Publish the staged engine's execution into a metrics registry."""

    def __init__(self, registry: MetricsRegistry, db=None,
                 batch_level: bool = True) -> None:
        self.registry = registry
        #: pattern database whose sizes are published at batch end
        #: (``None`` inside pool workers: the parent publishes the union)
        self.db = db
        #: fold batch-level aggregates and fill ``BatchResult.metrics``;
        #: off inside pool workers, whose deltas the parent folds once
        self.batch_level = batch_level
        self._stage_latency = registry.histogram(
            "rtg_stage_latency_seconds",
            METRIC_HELP["rtg_stage_latency_seconds"],
        )
        self._parse_candidates = registry.histogram(
            "rtg_parse_candidates",
            METRIC_HELP["rtg_parse_candidates"],
            buckets=_CANDIDATE_BUCKETS,
        )
        self._trie_nodes = registry.histogram(
            "rtg_analyze_trie_nodes",
            METRIC_HELP["rtg_analyze_trie_nodes"],
            buckets=_TRIE_NODE_BUCKETS,
        )
        self._scan_tokens = registry.counter(
            "rtg_scan_tokens_total", METRIC_HELP["rtg_scan_tokens_total"]
        )
        self._records = registry.counter(
            "rtg_records_total", METRIC_HELP["rtg_records_total"]
        )
        self._matched = registry.counter(
            "rtg_matched_total", METRIC_HELP["rtg_matched_total"]
        )
        self._unmatched = registry.counter(
            "rtg_unmatched_total", METRIC_HELP["rtg_unmatched_total"]
        )
        self._patterns = registry.counter(
            "rtg_patterns_total", METRIC_HELP["rtg_patterns_total"]
        )
        self._before: dict = {}
        self._stage_t0 = 0.0

    # -- stage-level -----------------------------------------------------
    def on_batch_start(self, result: BatchResult) -> None:
        if self.batch_level:
            self._before = self.registry.snapshot()

    def on_stage_start(self, stage: str, ctx: ServiceBatchContext) -> None:
        self._stage_t0 = time.perf_counter()

    def on_stage_end(self, stage: str, ctx: ServiceBatchContext) -> None:
        elapsed = time.perf_counter() - self._stage_t0
        if stage == "scan":
            self._stage_latency.observe(
                elapsed, stage=stage, backend=ScannerConfig.backend
            )
            tokens = sum(len(m.tokens) for m in ctx.scanned)
            if tokens:
                self._scan_tokens.inc(
                    tokens, service=ctx.service, backend=ScannerConfig.backend
                )
            return
        if stage == "parse":
            self._stage_latency.observe(
                elapsed, stage=stage, backend=ParserConfig.backend
            )
            observe = self._parse_candidates.observe
            for frontier in ctx.parse_frontiers:
                observe(frontier, backend=ParserConfig.backend)
            return
        if stage == "analyze":
            self._stage_latency.observe(
                elapsed, stage=stage, backend=AnalyzerConfig.backend
            )
            observe = self._trie_nodes.observe
            for nodes in ctx.trie_node_sizes:
                observe(nodes, backend=AnalyzerConfig.backend)
            return
        self._stage_latency.observe(elapsed, stage=stage)
        if stage != "persist":
            return
        # the group's flow is complete; tally its per-service outcome
        service = ctx.service
        self._records.inc(len(ctx.records), service=service)
        matched = sum(ctx.match_counts.values())
        if matched:
            self._matched.inc(matched, service=service)
        unmatched = sum(ctx.unmatched_counts)
        if unmatched:
            self._unmatched.inc(unmatched, service=service)
        if ctx.new_patterns:
            self._patterns.inc(len(ctx.new_patterns), service=service)

    # -- batch-level -----------------------------------------------------
    def on_batch_end(self, result: BatchResult) -> None:
        if not self.batch_level:
            return
        fold_batch_result(self.registry, result, db=self.db)
        result.metrics = snapshot_to_dict(
            MetricsRegistry.snapshot_delta(self._before, self.registry.snapshot())
        )


def fold_batch_result(registry: MetricsRegistry, result: BatchResult,
                      db=None) -> None:
    """Fold one finished batch's aggregates into *registry*.

    The batch-level half of the metrics seam, shared by the serial
    observer and the pool front end (which has no stage events of
    its own — its stage-level signal arrives as merged worker deltas).
    Must run exactly once per batch per registry.
    """
    registry.counter(
        "rtg_batches_total", METRIC_HELP["rtg_batches_total"]
    ).inc()
    registry.gauge(
        "rtg_matched_fraction", METRIC_HELP["rtg_matched_fraction"]
    ).set(result.matched_fraction)

    if result.cache:
        fastlane = registry.counter(
            "rtg_fastlane_events_total", METRIC_HELP["rtg_fastlane_events_total"]
        )
        for key, value in result.cache.items():
            target = _FASTLANE_EVENTS.get(key)
            if target is not None and value > 0:
                fastlane.inc(value, cache=target[0], event=target[1])

    if result.pool:
        pool = result.pool
        registry.gauge(
            "rtg_pool_workers", METRIC_HELP["rtg_pool_workers"]
        ).set(pool.get("workers", 0))
        events = registry.counter(
            "rtg_pool_events_total", METRIC_HELP["rtg_pool_events_total"]
        )
        for event in ("spawns", "respawns"):
            if pool.get(event, 0):
                events.inc(pool[event], event=event.rstrip("s"))

    if db is not None:
        observe_patterndb(registry, db)


def observe_patterndb(registry: MetricsRegistry, db) -> None:
    """Publish *db*'s current sizes as gauges (shared with the CLI
    ``metrics`` snapshot command)."""
    rows = registry.gauge(
        "rtg_patterndb_rows", METRIC_HELP["rtg_patterndb_rows"]
    )
    for table, n in db.counts().items():
        rows.set(n, table=table)
    per_service = registry.gauge(
        "rtg_patterndb_patterns", METRIC_HELP["rtg_patterndb_patterns"]
    )
    for service, n in db.counts_by_service().items():
        per_service.set(n, service=service)
