"""Engine instrumentation: the metrics seam of the staged workflow.

:class:`MetricsObserver` is the engine's one built-in
:class:`StageObserver`.  It times every stage run once and turns the
four hooks into first-class metrics and into the :class:`BatchResult`
telemetry, both from that one measurement:

* per-stage latency histograms, and ``BatchResult.timings`` (the same
  seconds, summed per stage over the call's service groups);
* per-service rows-in / matched / unmatched / patterns-out counters,
  tallied when a service group's ``persist`` stage completes and
  published when the call ends — a call that raises rolls its writes
  back and publishes none of them;
* ``BatchResult.cache``, the scan stage's dedup tallies summed over the
  call's service groups;
* batch-level aggregates — batches total, parse matched-fraction gauge,
  dedup counters, pattern-DB size gauges —
  folded from the finished :class:`BatchResult` by
  :func:`fold_batch_result`.

Inside pool workers ``batch_level`` is switched off: a worker still
fills its ``BatchResult`` timings and cache and accumulates the
stage-level signal and the outcome counters, and ships the registry
delta with its reply; the
parent folds the batch-level aggregates exactly once from the summed
result via :func:`fold_batch_result`, so nothing is double-counted.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.analyzer.analyzer import AnalyzerConfig
from repro.core.engine import BatchResult, ServiceBatchContext, StageObserver
from repro.obs.metrics import MetricsRegistry
from repro.parser.parser import ParserConfig
from repro.scanner.scanner import ScannerConfig

__all__ = [
    "MetricsObserver",
    "fold_batch_result",
    "observe_patterndb",
    "METRIC_HELP",
]

#: help suffix of the outcome counters, which ``on_batch_end`` publishes
_COMMITTED = (
    " (committed calls only; a stream flush whose maintenance fails after"
    " the engine's flush returned still counts)"
)

#: metric name -> help string, the single naming authority (docs table
#: in docs/architecture.md mirrors this)
METRIC_HELP = {
    "rtg_stage_latency_seconds": "Wall-clock seconds per engine stage run (one observation per service group; scan, parse and analyze runs carry the name of their implementation as the backend label)",
    "rtg_scan_tokens_total": "Tokens emitted by the scan stage, by service (backend label: the tokenizer implementation)",
    "rtg_parse_candidates": "Candidate-frontier size per parse-stage match (candidate match programs considered; backend label: the matcher implementation)",
    "rtg_analyze_trie_nodes": "Analysis-trie node count per mined length partition (peak footprint before sibling merging; backend label: the analyser implementation)",
    "rtg_records_total": "Log records entering the engine, by service" + _COMMITTED,
    "rtg_matched_total": "Record occurrences matched by already-known patterns, by service" + _COMMITTED,
    "rtg_unmatched_total": "Record occurrences passed on to the analyser, by service" + _COMMITTED,
    "rtg_patterns_total": "Newly discovered patterns persisted, by service" + _COMMITTED,
    "rtg_batches_total": "Batches analysed",
    "rtg_matched_fraction": "Fraction of the last batch's records matched by known patterns (a flush, which carries no records, leaves it alone)",
    "rtg_fastlane_events_total": "Batch-dedup outcomes of the scan stage (unique: messages scanned; duplicate: occurrences folded into them)",
    "rtg_patterndb_rows": "Pattern database row counts, by table",
    "rtg_patterndb_patterns": "Stored patterns, by service",
    "rtg_pool_workers": "Worker processes used by the last pool batch",
    "rtg_pool_events_total": "Worker pool lifecycle events (spawn, respawn)",
    "rtg_ingest_lines_total": "Stream items consumed by the ingest tier (network frames carry a source label: tcp, unix, http; the file-fed ingester reports unlabelled)",
    "rtg_ingest_malformed_total": "Stream items dropped as malformed (bad JSON or missing service/message fields), by source on the network path",
    "rtg_ingest_reader_leaks_total": "Pipelined-ingest reader threads that failed to exit within 5 s (_JOIN_TIMEOUT_S) when their generator closed",
    "rtg_serve_accepted_total": "Records admitted into a serving-tier shard queue, by shard",
    "rtg_serve_shed_total": "Records shed at a serving-tier high-water mark (shed: newest refused, HTTP 429; drop_oldest: stalest queued record evicted; block: read but refused because the dispatcher stopped or the connection was cancelled while waiting), by shard and policy",
    "rtg_serve_queue_depth": "Current serving-tier shard queue depth in records, by shard",
    "rtg_serve_ingest_latency_seconds": "Seconds from socket arrival to shard-queue admission of each admitted slice of up to 512 frames, one observation weighted by its accepted records (includes block-policy backpressure waits)",
    "rtg_serve_connections_total": "Serving-tier connections accepted, by listener (tcp, unix, http)",
    "rtg_stream_message_latency_seconds": "Per-message processing latency in stream mode (micro-batch wall clock divided by its record count, one observation per record)",
    "rtg_stream_flushes_total": "Evolving-state flushes in stream mode, by trigger (pending, interval, close, manual)",
    "rtg_stream_evictions_total": "Patterns TTL-evicted in stream mode, by service",
    "rtg_stream_drift_total": "Drift-maintenance pattern mutations in stream mode, by event (merge: retired into a subsuming general pattern; split: variable folded to a constant)",
}

#: ``BatchResult.cache`` counter key -> (cache, event) labels
_FASTLANE_EVENTS = {
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
    """Publish the staged engine's execution into a metrics registry
    and fill each call's ``BatchResult.timings`` and ``.cache``."""

    def __init__(self, registry: MetricsRegistry, db=None,
                 batch_level: bool = True) -> None:
        self.registry = registry
        #: pattern database whose sizes are published at batch end
        #: (``None`` inside pool workers: the parent publishes the union)
        self.db = db
        #: fold batch-level aggregates into the registry; off inside pool
        #: workers, whose summed results the parent folds once
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
        self._timings: dict[str, float] = {}
        self._cache: dict[str, int] = {}
        #: ``(service, records, matched, unmatched, patterns)`` of the
        #: call's finished groups, published by :meth:`on_batch_end`
        self._outcomes: list[tuple[str, int, int, int, int]] = []
        self._stage_t0 = 0.0

    # -- stage-level -----------------------------------------------------
    def on_batch_start(self, result: BatchResult) -> None:
        self._timings = result.timings
        self._cache = result.cache
        self._outcomes = []
        result.cache.update(dedup_unique=0, dedup_duplicates=0)

    def on_stage_start(self, stage: str, ctx: ServiceBatchContext) -> None:
        self._stage_t0 = time.perf_counter()

    def on_stage_end(self, stage: str, ctx: ServiceBatchContext) -> None:
        elapsed = time.perf_counter() - self._stage_t0
        timings = self._timings
        timings[stage] = timings.get(stage, 0.0) + elapsed
        if stage == "scan":
            self._stage_latency.observe(
                elapsed, stage=stage, backend=ScannerConfig.backend
            )
            unique = len(ctx.scanned)
            cache = self._cache
            cache["dedup_unique"] += unique
            cache["dedup_duplicates"] += len(ctx.records) - unique
            tokens = len(ctx.scanned.texts)
            if tokens:
                self._scan_tokens.inc(
                    tokens, service=ctx.service, backend=ScannerConfig.backend
                )
            return
        if stage == "parse":
            self._stage_latency.observe(
                elapsed, stage=stage, backend=ParserConfig.backend
            )
            _observe_each(
                self._parse_candidates, ctx.parse_frontiers, ParserConfig.backend
            )
            return
        if stage == "analyze":
            self._stage_latency.observe(
                elapsed, stage=stage, backend=AnalyzerConfig.backend
            )
            _observe_each(
                self._trie_nodes, ctx.trie_node_sizes, AnalyzerConfig.backend
            )
            return
        self._stage_latency.observe(elapsed, stage=stage)
        if stage != "persist":
            return
        # the group's flow is complete; tally its per-service outcome
        self._outcomes.append((
            ctx.service,
            len(ctx.records),
            sum(ctx.match_counts.values()),
            sum(ctx.unmatched_counts),
            len(ctx.new_patterns),
        ))

    # -- batch-level -----------------------------------------------------
    def on_batch_end(self, result: BatchResult) -> None:
        # reached only by a call that did not raise: its outcome counts
        for service, records, matched, unmatched, patterns in self._outcomes:
            self._records.inc(records, service=service)
            if matched:
                self._matched.inc(matched, service=service)
            if unmatched:
                self._unmatched.inc(unmatched, service=service)
            if patterns:
                self._patterns.inc(patterns, service=service)
        if self.batch_level:
            fold_batch_result(self.registry, result, db=self.db)


def _observe_each(histogram, values: list[int], backend: str) -> None:
    """Observe every entry of *values*, folded into one weighted
    observation per distinct value: the same buckets, sum and count as
    one call per entry, for a few calls instead of thousands per batch
    (frontier sizes and trie node counts repeat heavily)."""
    for value, n in Counter(values).items():
        histogram.observe(value, n=n, backend=backend)


def fold_batch_result(registry: MetricsRegistry, result: BatchResult,
                      db=None) -> None:
    """Fold one finished batch's aggregates into *registry*.

    The batch-level half of the metrics seam, shared by the serial
    observer and the pool front end, which calls it directly (it has no
    stage events of its own — its stage-level signal arrives as merged
    worker deltas).
    Must run exactly once per batch per registry.
    """
    registry.counter(
        "rtg_batches_total", METRIC_HELP["rtg_batches_total"]
    ).inc()
    if result.n_records:
        # a stream flush mines pending evidence, not records: it has no
        # matched fraction of its own to report
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
