"""The staged mining engine behind every ``AnalyzeByService`` front end.

The paper's Fig. 2 workflow — service partition → scan → parse known →
token-count partition → per-trie analyse → persist — used to be inlined
in :meth:`repro.core.pipeline.SequenceRTG.analyze_by_service`.  This
module makes the workflow an explicit object instead:

* :class:`ServiceBatchContext` — the typed carrier of one service
  group's intermediate state (scanned messages, dedup multiplicities,
  match tallies, length partitions, discovered patterns) as it flows
  through the stages;
* the five stages — :class:`ScanStage`, :class:`ParseStage`,
  :class:`LengthPartitionStage`, :class:`AnalyzeStage`,
  :class:`PersistStage` — each a small object with a ``name`` and a
  ``run(context)``;
* :class:`StageObserver` — the single instrumentation channel.
  Stage timings (:class:`TimingObserver`), fast-lane cache deltas
  (:class:`FastPathObserver`) and metrics
  (:class:`repro.obs.observer.MetricsObserver`) all feed
  :class:`BatchResult` through the same four hooks instead of ad-hoc
  telemetry paths;
* :class:`MiningEngine` — partitions a batch by service and drives each
  group through the stages, notifying observers around every stage.

Every execution path runs this one engine: a pool worker
(:mod:`repro.core.parallel`) is a serial miner over its own shard file,
so there is nothing for the paths to differ in — which is what keeps
their mined output bit-identical (asserted by
``tests/core/test_engine.py``, not assumed).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from typing import TYPE_CHECKING

from repro._util.timers import StageTimer
from repro.analyzer.evolving import EvolvingAnalyzer
from repro.analyzer.pattern import Pattern
from repro.core.fastpath import FastPath
from repro.core.records import LogRecord
from repro.scanner.scanner import ScannedMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import SequenceRTG

__all__ = [
    "BatchResult",
    "ServiceBatchContext",
    "Stage",
    "ScanStage",
    "ParseStage",
    "LengthPartitionStage",
    "AnalyzeStage",
    "PersistStage",
    "StageObserver",
    "TimingObserver",
    "FastPathObserver",
    "MiningEngine",
    "drive_stream",
]


@dataclass(slots=True)
class BatchResult:
    """Telemetry of one ``analyze_by_service`` execution."""

    n_records: int = 0
    n_services: int = 0
    n_matched: int = 0  # parsed against already-known patterns
    n_unmatched: int = 0  # sent on to the analyser
    n_partitions: int = 0  # (service, token count) analysis partitions
    n_new_patterns: int = 0  # newly discovered and persisted
    n_below_threshold: int = 0  # discovered but under the save threshold
    max_trie_nodes: int = 0  # memory telemetry (largest analysis trie)
    #: per-stage wall-clock seconds, filled by :class:`TimingObserver`
    timings: dict[str, float] = field(default_factory=dict)
    #: fast-lane effectiveness for this batch: scan/match cache hits,
    #: misses and evictions plus dedup savings — filled by
    #: :class:`FastPathObserver` from :meth:`FastPath.snapshot` deltas
    cache: dict[str, int] = field(default_factory=dict)
    #: worker-pool telemetry for this batch (empty for in-process runs):
    #: workers used, spawns, respawns — see
    #: :class:`repro.core.parallel.PersistentParallelSequenceRTG`
    pool: dict[str, int] = field(default_factory=dict)
    #: JSON-compatible dump of this batch's metrics-registry delta
    #: (:mod:`repro.obs`): stage latency histograms, per-service
    #: counters, fast-lane events and DB gauges — empty when
    #: ``RTGConfig.enable_metrics`` is off
    metrics: dict = field(default_factory=dict)
    new_patterns: list[Pattern] = field(default_factory=list)

    @property
    def matched_fraction(self) -> float:
        return self.n_matched / self.n_records if self.n_records else 0.0


@dataclass(slots=True)
class ServiceBatchContext:
    """One service group's state as it flows scan → … → persist.

    Each stage reads the fields earlier stages filled and writes its
    own; the engine folds the final context into the batch-level
    :class:`BatchResult`.
    """

    service: str
    records: list[LogRecord]
    #: timestamp for DB writes (None = wall clock per write)
    now: datetime | None = None
    #: distinct scanned messages in first-occurrence order (ScanStage)
    scanned: list[ScannedMessage] = field(default_factory=list)
    #: dedup multiplicities parallel to ``scanned`` (ScanStage)
    counts: list[int] = field(default_factory=list)
    #: per-message flag: scan served from the cross-batch cache (ScanStage)
    from_cache: list[bool] = field(default_factory=list)
    #: messages no known pattern matched, with their multiplicities
    unmatched: list[ScannedMessage] = field(default_factory=list)
    unmatched_counts: list[int] = field(default_factory=list)
    #: pattern id -> occurrences matched this batch (ParseStage)
    match_counts: dict[str, int] = field(default_factory=dict)
    #: candidate-frontier sizes of the parse matches actually performed
    #: (one entry per distinct token signature matched through the batch
    #: lane) — the ``rtg_parse_candidates`` telemetry (ParseStage)
    parse_frontiers: list[int] = field(default_factory=list)
    #: pattern id -> originals worth storing as examples (ParseStage)
    match_examples: dict[str, list[str]] = field(default_factory=dict)
    #: token count -> (messages, multiplicities) (LengthPartitionStage)
    by_length: dict[int, tuple[list[ScannedMessage], list[int]]] = field(
        default_factory=dict
    )
    #: patterns mined from the length partitions (AnalyzeStage), before
    #: the save threshold is applied
    discovered: list[Pattern] = field(default_factory=list)
    #: discovered patterns that cleared the threshold and were persisted
    new_patterns: list[Pattern] = field(default_factory=list)
    n_below_threshold: int = 0
    max_trie_nodes: int = 0
    #: analysis-trie node count of every length partition mined for this
    #: group (AnalyzeStage) — the ``rtg_analyze_trie_nodes`` telemetry
    trie_node_sizes: list[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------

class Stage:
    """One step of the Fig. 2 workflow over a :class:`ServiceBatchContext`.

    Stages are constructed once per engine and bound to the owning
    miner; ``run`` mutates the context in place.
    """

    name: str = "stage"

    def __init__(self, rtg: "SequenceRTG") -> None:
        self.rtg = rtg

    def run(self, ctx: ServiceBatchContext) -> None:
        raise NotImplementedError


class ScanStage(Stage):
    """Tokenize the group, deduplicated through the fast lane."""

    name = "scan"

    def run(self, ctx: ServiceBatchContext) -> None:
        rtg = self.rtg
        ctx.scanned, ctx.counts, ctx.from_cache = rtg.fastpath.scan_group(
            rtg.scanner, ctx.service, ctx.records
        )


class ParseStage(Stage):
    """Match scanned messages against the service's known patterns.

    "If a match is found the last matched date and the number of
    examples ... are adjusted accordingly and no further processing
    occurs" (paper §III) — the adjustments are tallied here and written
    by :class:`PersistStage`.
    """

    name = "parse"

    def __init__(self, rtg: "SequenceRTG", field_tracker=None) -> None:
        super().__init__(rtg)
        #: optional drift seam: an object with
        #: ``observe(pattern_id, pattern, fields, n)`` fed every hit's
        #: extracted variable values — stream mode plugs its
        #: :class:`~repro.core.streaming.ValueDriftTracker` in here
        self.field_tracker = field_tracker

    def run(self, ctx: ServiceBatchContext) -> None:
        rtg = self.rtg
        tracker = self.field_tracker
        parser = rtg.parser_for(ctx.service)
        lane = rtg.fastpath
        example_cap = rtg.db.max_examples
        counts, from_cache = ctx.counts, ctx.from_cache
        scanned = ctx.scanned
        hits: list = [None] * len(scanned)
        if len(parser) > 0:
            # recurring messages (the ones the scan cache served) go
            # through the cross-batch match cache — the only ones worth
            # its signature cost; everything else is matched as one
            # batch, where ``match_many`` computes each distinct token
            # signature once
            fresh: list[ScannedMessage] = []
            fresh_at: list[int] = []
            for i, msg in enumerate(scanned):
                if from_cache[i]:
                    hits[i] = lane.match(ctx.service, parser, msg)
                else:
                    fresh.append(msg)
                    fresh_at.append(i)
            if fresh:
                for i, hit in zip(fresh_at, parser.match_many(fresh)):
                    hits[i] = hit
                ctx.parse_frontiers.extend(parser.last_frontiers)
        for msg, n, hit in zip(scanned, counts, hits):
            if hit is None:
                ctx.unmatched.append(msg)
                ctx.unmatched_counts.append(n)
            else:
                pid = hit.pattern_id
                ctx.match_counts[pid] = ctx.match_counts.get(pid, 0) + n
                if tracker is not None:
                    tracker.observe(pid, hit.pattern, hit.fields, n)
                examples = ctx.match_examples.setdefault(pid, [])
                # accumulate only what the DB can store: the first
                # `max_examples` distinct originals
                if len(examples) < example_cap and msg.original not in examples:
                    examples.append(msg.original)


class LengthPartitionStage(Stage):
    """Second partitioning: group unmatched messages by token count.

    "Only token sets of the same length are compared in the same
    analysis trie" (paper §III).
    """

    name = "partition_length"

    def run(self, ctx: ServiceBatchContext) -> None:
        for msg, n in zip(ctx.unmatched, ctx.unmatched_counts):
            msgs, ns = ctx.by_length.setdefault(msg.token_count(), ([], []))
            msgs.append(msg)
            ns.append(n)


class AnalyzeStage(Stage):
    """Absorb each length partition into the evolving analysis state.

    The mining itself lives in
    :class:`repro.analyzer.evolving.EvolvingAnalyzer` — one instance
    (wrapping one analyser) serves every partition of every batch, its
    trie scratch reset and reused across flushes.  Batch mode
    (*deferred* False, the default) absorbs and flushes immediately:
    every partition is mined within its own batch, exactly the paper's
    workflow.  Stream mode constructs the stage *deferred*: absorption
    still happens per micro-batch, but mining waits until the driver
    calls :meth:`flush_into`, so evidence accumulates across
    micro-batches in the bounded evolving trie.
    """

    name = "analyze"

    def __init__(self, rtg: "SequenceRTG", deferred: bool = False) -> None:
        super().__init__(rtg)
        self.deferred = deferred
        bound = rtg.config.streaming.max_partition_pending if deferred else 0
        self.evolving = EvolvingAnalyzer(
            rtg.config.analyzer, max_partition_pending=bound
        )

    def run(self, ctx: ServiceBatchContext) -> None:
        evolving = self.evolving
        for length, (partition, partition_counts) in sorted(ctx.by_length.items()):
            evolving.absorb(ctx.service, length, partition, counts=partition_counts)
            if not self.deferred:
                patterns, n_nodes = evolving.flush_partition(ctx.service, length)
                self._record(ctx, patterns, n_nodes)

    def flush_into(self, ctx: ServiceBatchContext) -> None:
        """Mine everything pending for ``ctx.service`` into *ctx*.

        The deferred half of the stage: the stream driver builds an
        empty context per pending service and runs this in place of
        ``run``, then hands the context to the persist stage exactly as
        a batch would.
        """
        for patterns, n_nodes in self.evolving.flush_service(ctx.service):
            self._record(ctx, patterns, n_nodes)

    def _record(
        self, ctx: ServiceBatchContext, patterns: list[Pattern], n_nodes: int
    ) -> None:
        ctx.trie_node_sizes.append(n_nodes)
        ctx.max_trie_nodes = max(ctx.max_trie_nodes, n_nodes)
        for pattern in patterns:
            pattern.service = ctx.service
            ctx.discovered.append(pattern)


class PersistStage(Stage):
    """Write the batch's outcome: match statistics, then new patterns.

    "The newly found patterns are eventually saved in the database for
    comparison against subsequent batches and exporting" (paper §III).
    The save threshold applies here.  Under the engine the transaction
    block below nests inside the one that spans the whole mining call
    (:meth:`MiningEngine._transaction`) and commits nothing itself; it
    is what keeps a stage driven directly at one commit per service.
    """

    name = "persist"

    def run(self, ctx: ServiceBatchContext) -> None:
        rtg = self.rtg
        db = rtg.db
        parser = rtg.parser_for(ctx.service)
        threshold = rtg.config.save_threshold
        with db.transaction():
            db.record_matches(ctx.match_counts, now=ctx.now)
            for pid, examples in ctx.match_examples.items():
                for example in examples:
                    db.add_example(pid, example)
            for pattern in ctx.discovered:
                if pattern.support < threshold:
                    ctx.n_below_threshold += 1
                    continue
                db.upsert(pattern, now=ctx.now)
                # in-place extension; the parser's version bump
                # invalidates this service's match cache
                parser.add_pattern(pattern)
                ctx.new_patterns.append(pattern)


# ----------------------------------------------------------------------
# Observers
# ----------------------------------------------------------------------

class StageObserver:
    """Instrumentation hooks around the engine's execution.

    Subclass and override what you need; all hooks default to no-ops.
    One batch produces ``on_batch_start``, then for every service group
    a paired ``on_stage_start``/``on_stage_end`` per stage in workflow
    order, then ``on_batch_end`` — the single place per-batch telemetry
    is folded into the :class:`BatchResult`.
    """

    def on_batch_start(self, result: BatchResult) -> None:
        """Called once before any stage runs."""

    def on_stage_start(self, stage: str, ctx: ServiceBatchContext) -> None:
        """Called immediately before *stage* runs on *ctx*."""

    def on_stage_end(self, stage: str, ctx: ServiceBatchContext) -> None:
        """Called immediately after *stage* ran on *ctx*."""

    def on_batch_end(self, result: BatchResult) -> None:
        """Called once after the last stage; fill *result* here."""


class TimingObserver(StageObserver):
    """Per-stage wall-clock timings → ``BatchResult.timings``.

    Replaces the pipeline's inline ``StageTimer`` blocks: the timer is
    reset per batch and driven purely by the stage events, so its
    per-stage counts equal the number of stage executions.
    """

    def __init__(self, timer: StageTimer | None = None) -> None:
        self.timer = timer or StageTimer()

    def on_batch_start(self, result: BatchResult) -> None:
        self.timer.reset()

    def on_stage_start(self, stage: str, ctx: ServiceBatchContext) -> None:
        self.timer.begin(stage)

    def on_stage_end(self, stage: str, ctx: ServiceBatchContext) -> None:
        self.timer.end(stage)

    def on_batch_end(self, result: BatchResult) -> None:
        result.timings = self.timer.report()


class FastPathObserver(StageObserver):
    """Fast-lane cache effectiveness → ``BatchResult.cache``.

    Snapshots the lane's cumulative counters at batch start and
    publishes the per-batch delta; a counter that first appears
    mid-batch deltas against zero instead of raising.
    """

    def __init__(self, lane: FastPath) -> None:
        self.lane = lane
        self._before: dict[str, int] = {}

    def on_batch_start(self, result: BatchResult) -> None:
        self._before = self.lane.snapshot()

    def on_batch_end(self, result: BatchResult) -> None:
        result.cache = FastPath.snapshot_delta(self._before, self.lane.snapshot())


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

def default_observers(rtg: "SequenceRTG") -> list[StageObserver]:
    """The serial driver's instrumentation: timings, fast-lane cache
    deltas, then metrics — last, because the metrics observer folds
    ``result.timings``/``result.cache`` the earlier observers publish at
    batch end."""
    observers: list[StageObserver] = [
        TimingObserver(),
        FastPathObserver(rtg.fastpath),
    ]
    if rtg.config.enable_metrics:
        # imported here: repro.obs.observer subclasses this module's
        # StageObserver, so a top-level import would be circular
        from repro.obs.observer import MetricsObserver

        observers.append(MetricsObserver(rtg.metrics, db=rtg.db))
    return observers


class MiningEngine:
    """Drive one batch through the staged Fig. 2 workflow.

    Partitions the batch by service ("a first partitioning of the data
    which groups the log records into subsets by service") and runs
    every group through scan → parse → partition-by-length → analyse →
    persist, notifying *observers* around each stage.

    In *deferred-analysis* mode (stream execution) the analyze stage
    only absorbs into the engine's evolving state; :meth:`flush` later
    mines everything pending and persists it through the same persist
    stage and observer events a batch would use.
    """

    def __init__(
        self,
        rtg: "SequenceRTG",
        observers: list[StageObserver] | None = None,
        deferred_analysis: bool = False,
        field_tracker=None,
    ) -> None:
        self.rtg = rtg
        self.deferred_analysis = deferred_analysis
        self.field_tracker = field_tracker
        self.observers: list[StageObserver] = (
            default_observers(rtg) if observers is None else list(observers)
        )
        self.analyze_stage = AnalyzeStage(rtg, deferred=deferred_analysis)
        self.persist_stage = PersistStage(rtg)
        self.stages: list[Stage] = [
            ScanStage(rtg),
            ParseStage(rtg, field_tracker=field_tracker),
            LengthPartitionStage(rtg),
            self.analyze_stage,
            self.persist_stage,
        ]

    @contextmanager
    def _transaction(self):
        """One database transaction around a mining call's service loop.

        Yields the list the loop appends each service to *before*
        running its stages.  The call commits once; if it raises, the
        database rolls every service of the call back and each listed
        service's parser and match cache are dropped, so no live parser
        keeps a pattern the database no longer has — the next call
        reloads them from the rolled-back rows.
        """
        touched: list[str] = []
        try:
            with self.rtg.db.transaction():
                yield touched
        except BaseException:
            for service in touched:
                self.rtg.invalidate_service(service)
            raise

    def run(
        self, records: list[LogRecord], now: datetime | None = None
    ) -> BatchResult:
        """Execute the workflow over one batch of records.

        All-or-nothing: the batch's writes commit together, or — when a
        stage raises — not at all (see :meth:`_transaction`).
        """
        result = BatchResult(n_records=len(records))
        observers = self.observers
        for observer in observers:
            observer.on_batch_start(result)

        by_service: dict[str, list[LogRecord]] = {}
        for record in records:
            by_service.setdefault(record.service, []).append(record)
        result.n_services = len(by_service)

        with self._transaction() as touched:
            for service, group in by_service.items():
                touched.append(service)
                ctx = ServiceBatchContext(service=service, records=group, now=now)
                for stage in self.stages:
                    for observer in observers:
                        observer.on_stage_start(stage.name, ctx)
                    stage.run(ctx)
                    for observer in observers:
                        observer.on_stage_end(stage.name, ctx)
                result.n_matched += sum(ctx.match_counts.values())
                result.n_unmatched += sum(ctx.unmatched_counts)
                result.n_partitions += len(ctx.by_length)
                result.n_below_threshold += ctx.n_below_threshold
                result.max_trie_nodes = max(
                    result.max_trie_nodes, ctx.max_trie_nodes
                )
                result.n_new_patterns += len(ctx.new_patterns)
                result.new_patterns.extend(ctx.new_patterns)

        for observer in observers:
            observer.on_batch_end(result)
        return result

    def flush(self, now: datetime | None = None) -> BatchResult:
        """Mine and persist everything pending in the evolving state.

        The deferred half of the stream workflow: for every service with
        pending partitions an empty :class:`ServiceBatchContext` is
        built, the analyze stage's :meth:`AnalyzeStage.flush_into` mines
        the service's accumulated evidence into it, and the persist
        stage writes it out — wrapped in the same stage observer events
        a batch would emit, so flush latency and new-pattern counts land
        in the same histograms/counters.  A no-op (empty result) when
        nothing is pending; harmless in batch mode, where the evolving
        state is always drained.
        """
        result = BatchResult()
        evolving = self.analyze_stage.evolving
        services = evolving.services()
        if not services:
            return result
        observers = self.observers
        for observer in observers:
            observer.on_batch_start(result)
        result.n_services = len(services)
        analyze = self.analyze_stage
        persist = self.persist_stage
        steps = ((analyze, analyze.flush_into), (persist, persist.run))
        with self._transaction() as touched:
            for service in services:
                touched.append(service)
                ctx = ServiceBatchContext(service=service, records=[], now=now)
                for stage, step in steps:
                    for observer in observers:
                        observer.on_stage_start(stage.name, ctx)
                    step(ctx)
                    for observer in observers:
                        observer.on_stage_end(stage.name, ctx)
                result.n_partitions += len(ctx.trie_node_sizes)
                result.n_below_threshold += ctx.n_below_threshold
                result.max_trie_nodes = max(
                    result.max_trie_nodes, ctx.max_trie_nodes
                )
                result.n_new_patterns += len(ctx.new_patterns)
                result.new_patterns.extend(ctx.new_patterns)
        for observer in observers:
            observer.on_batch_end(result)
        return result


# ----------------------------------------------------------------------
# Stream driving
# ----------------------------------------------------------------------

def drive_stream(miner, batches, now: datetime | None = None):
    """Run ``analyze_by_service`` for every batch; yield the results.

    The one stream driver behind every front end's ``process_stream``:
    *miner* is anything with an ``analyze_by_service(records, now=...)``
    — the serial :class:`~repro.core.pipeline.SequenceRTG` or the
    worker pool — and *batches* is any iterable of record lists,
    typically :meth:`repro.core.ingest.StreamIngester.batches` or
    ``batches_pipelined``.

    If *batches* is a generator (the pipelined ingester is), its
    ``close`` runs when this driver is closed or abandoned mid-stream —
    including when the consumer of *this* generator raises — so the
    ingester's cleanup (reader-thread join, queue drain) is deterministic
    rather than deferred to garbage collection.
    """
    try:
        for batch in batches:
            yield miner.analyze_by_service(batch, now=now)
    finally:
        close = getattr(batches, "close", None)
        if close is not None:
            close()
