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
* :class:`StageObserver` — the single instrumentation channel.  The
  engine's one built-in observer,
  :class:`repro.obs.observer.MetricsObserver`, times every stage run
  once and feeds both the metrics registry and :class:`BatchResult`
  (stage timings, batch-dedup tallies) from that one measurement;
* :class:`MiningEngine` — partitions a batch by service and drives each
  group through the stages, notifying observers around every stage.

The stages keep no state of their own: what persists between calls —
a service's parser, its pending evidence, its drift tracks — lives in
the miner's :class:`~repro.core.state.ServiceState` objects, and the
analyze stage mines a state's evidence with the miner's one analyser.

Every execution path runs this one engine: a pool worker
(:mod:`repro.core.parallel`) is a serial miner over its own shard file,
so there is nothing for the paths to differ in — which is what keeps
their mined output bit-identical (asserted by
``tests/core/test_engine.py``, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import TYPE_CHECKING

from repro.analyzer.pattern import Pattern
from repro.core.records import LogRecord
from repro.scanner.compiled import TokenColumns
from repro.scanner.token_types import TokenType

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
    "MiningEngine",
    "drive_stream",
]


@dataclass(slots=True)
class BatchResult:
    """Telemetry of one mining call (a batch, micro-batch or flush)."""

    n_records: int = 0
    n_services: int = 0
    n_matched: int = 0  # parsed against already-known patterns
    n_unmatched: int = 0  # sent on to the analyser
    n_partitions: int = 0  # (service, token count) partitions mined
    n_new_patterns: int = 0  # newly discovered and persisted
    n_below_threshold: int = 0  # discovered but under the save threshold
    max_trie_nodes: int = 0  # memory telemetry (largest analysis trie)
    #: per-stage wall-clock seconds, summed over the service groups —
    #: filled by :class:`~repro.obs.observer.MetricsObserver` from the
    #: same measurement as its ``rtg_stage_latency_seconds`` histogram
    timings: dict[str, float] = field(default_factory=dict)
    #: batch dedup for this call: ``dedup_unique`` messages scanned and
    #: ``dedup_duplicates`` occurrences folded into them, summed over the
    #: service groups by :class:`~repro.obs.observer.MetricsObserver`
    cache: dict[str, int] = field(default_factory=dict)
    #: worker-pool telemetry for this batch (empty for in-process runs):
    #: workers used, spawns, respawns — see
    #: :class:`repro.core.parallel.PersistentParallelSequenceRTG`
    pool: dict[str, int] = field(default_factory=dict)
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
    #: mine the service's pending evidence in the analyze stage (a batch
    #: call or a flush), rather than only absorbing into it (a micro-batch)
    flush: bool = False
    #: distinct messages scanned to token columns, in first-occurrence
    #: order (ScanStage)
    scanned: TokenColumns = field(default_factory=lambda: TokenColumns([]))
    #: dedup multiplicities parallel to ``scanned`` (ScanStage)
    counts: list[int] = field(default_factory=list)
    #: messages no known pattern matched, as indices into ``scanned``,
    #: with their multiplicities and — when the parse stage enriched
    #: them to match — their enriched types, else None (ParseStage)
    unmatched: list[int] = field(default_factory=list)
    unmatched_counts: list[int] = field(default_factory=list)
    unmatched_types: list[list[TokenType] | None] = field(default_factory=list)
    #: pattern id -> occurrences matched this batch (ParseStage)
    match_counts: dict[str, int] = field(default_factory=dict)
    #: candidate-frontier sizes of the parse matches, one per distinct
    #: message — the ``rtg_parse_candidates`` telemetry (ParseStage)
    parse_frontiers: list[int] = field(default_factory=list)
    #: pattern id -> originals worth storing as examples (ParseStage)
    match_examples: dict[str, list[str]] = field(default_factory=dict)
    #: token count -> the ``unmatched`` indices, multiplicities and
    #: enriched types of that count (LengthPartitionStage)
    by_length: dict[int, tuple[list[int], list[int], list]] = field(
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
    """Tokenize the group to token columns, each distinct message once
    (batch dedup).

    Real log streams are massively repetitive, so identical messages of
    one service group are scanned once and carry a multiplicity, which
    the later stages fold into match counts and — via weighted trie
    insertion — into pattern support.  The mined output is that of a
    per-occurrence run because trie construction depends only on the
    first-occurrence order of the distinct messages plus their counts
    (asserted against the ``per_occurrence_lane`` test fixture, not
    assumed).
    """

    name = "scan"

    def run(self, ctx: ServiceBatchContext) -> None:
        ctx.scanned, ctx.counts = self.scan_group(ctx.service, ctx.records)

    def scan_group(
        self, service: str, records: list[LogRecord]
    ) -> tuple[TokenColumns, list[int]]:
        """The distinct messages of *records*, scanned to token columns,
        in first-occurrence order, and their multiplicities."""
        counts: dict[str, int] = {}
        for record in records:
            message = record.message
            counts[message] = counts.get(message, 0) + 1
        return self.rtg.scanner.scan_columns(list(counts)), list(counts.values())


class ParseStage(Stage):
    """Match scanned messages against the service's known patterns.

    "If a match is found the last matched date and the number of
    examples ... are adjusted accordingly and no further processing
    occurs" (paper §III) — the adjustments are tallied here and written
    by :class:`PersistStage`.  A message is matched on its token columns
    (enriched once, :meth:`~repro.core.state.ServiceState.enrich`) and
    never becomes a :class:`~repro.scanner.token_types.Token`; a miss
    goes on as its index into the columns, with the enriched types.
    """

    name = "parse"

    def run(self, ctx: ServiceBatchContext) -> None:
        rtg = self.rtg
        state = rtg.state(ctx.service)
        parser = state.parser
        cols = ctx.scanned
        unmatched, unmatched_counts = ctx.unmatched, ctx.unmatched_counts
        unmatched_types = ctx.unmatched_types
        if len(parser) == 0:
            # nothing to match: every message is a miss, which the
            # analyze stage enriches when it absorbs it
            unmatched.extend(range(len(cols)))
            unmatched_counts.extend(ctx.counts)
            unmatched_types.extend([None] * len(cols))
            return
        match = parser.match_enriched
        enrich = state.enrich
        track_drift = rtg.track_drift
        frontiers = ctx.parse_frontiers
        example_cap = rtg.db.max_examples
        texts, types = cols.texts, cols.types
        lo = 0
        for k, (hi, n) in enumerate(zip(cols.ends, ctx.counts)):
            message_texts = texts[lo:hi]
            enriched = enrich(message_texts, types[lo:hi])
            lo = hi
            hit = match(message_texts, enriched)
            frontiers.append(parser.last_frontier)
            if hit is None:
                unmatched.append(k)
                unmatched_counts.append(n)
                unmatched_types.append(enriched)
                continue
            pid = hit.pattern_id
            ctx.match_counts[pid] = ctx.match_counts.get(pid, 0) + n
            if track_drift:
                state.observe(pid, hit.pattern, hit.fields, n)
            examples = ctx.match_examples.setdefault(pid, [])
            # accumulate only what the DB can store: the first
            # `max_examples` distinct originals
            original = cols.originals[k]
            if len(examples) < example_cap and original not in examples:
                examples.append(original)


class LengthPartitionStage(Stage):
    """Second partitioning: group unmatched messages by token count.

    "Only token sets of the same length are compared in the same
    analysis trie" (paper §III).  A message's token count is the length
    of its column slice.
    """

    name = "partition_length"

    def run(self, ctx: ServiceBatchContext) -> None:
        ends = ctx.scanned.ends
        by_length = ctx.by_length
        for k, n, types in zip(ctx.unmatched, ctx.unmatched_counts, ctx.unmatched_types):
            length = ends[k] - (ends[k - 1] if k else 0)
            group = by_length.get(length)
            if group is None:
                group = by_length[length] = ([], [], [])
            group[0].append(k)
            group[1].append(n)
            group[2].append(types)


class AnalyzeStage(Stage):
    """Absorb each length partition into the service's pending evidence
    and, when the call flushes, mine it.

    The evidence lives in the service's
    :class:`~repro.core.state.ServiceState`, and the miner's one
    analyser (its trie scratch reset and reused across partitions)
    mines it.  A batch call absorbs and mines at once, every partition
    within its own batch: exactly the paper's workflow.  A stream
    driver's micro-batch only absorbs, so evidence accumulates across
    micro-batches until the driver flushes.
    """

    name = "analyze"

    def run(self, ctx: ServiceBatchContext) -> None:
        rtg = self.rtg
        state = rtg.state(ctx.service)
        for length, (rows, counts, types) in ctx.by_length.items():
            state.absorb(length, ctx.scanned, rows, counts, types)
        if not ctx.flush:
            return
        # token-count order: persistence, so DB row order, follows it
        for patterns, n_nodes in state.mine(rtg.analyzer):
            ctx.trie_node_sizes.append(n_nodes)
            ctx.max_trie_nodes = max(ctx.max_trie_nodes, n_nodes)
            for pattern in patterns:
                pattern.service = ctx.service
                ctx.discovered.append(pattern)


class PersistStage(Stage):
    """Write the batch's outcome: match statistics, then new patterns.

    "The newly found patterns are eventually saved in the database for
    comparison against subsequent batches and exporting" (paper §III).
    The save threshold applies here, and every table is written in bulk:
    one statement for the match counts, one read and one write for the
    hits' examples, one
    :meth:`~repro.core.patterndb.PatternDB.upsert_many` for the new
    patterns, whose ids the parser then takes as they are.  Under the
    engine the transaction block below nests inside the one that spans
    the whole mining call
    (:meth:`~repro.core.pipeline.SequenceRTG.transaction`) and commits
    nothing itself; it is what keeps a stage driven directly at one
    commit per service.
    """

    name = "persist"

    def run(self, ctx: ServiceBatchContext) -> None:
        rtg = self.rtg
        db = rtg.db
        parser = rtg.state(ctx.service).parser
        threshold = rtg.config.save_threshold
        saved = [p for p in ctx.discovered if p.support >= threshold]
        ctx.n_below_threshold += len(ctx.discovered) - len(saved)
        with db.transaction():
            db.record_matches(ctx.match_counts, now=ctx.now)
            db.add_examples(ctx.match_examples)
            ids = db.upsert_many(ctx.service, saved, now=ctx.now)
            parser.add_patterns(zip(ids, saved))
        ctx.new_patterns.extend(saved)


# ----------------------------------------------------------------------
# Observers
# ----------------------------------------------------------------------

class StageObserver:
    """Instrumentation hooks around the engine's execution.

    Subclass and override what you need; all hooks default to no-ops.
    One batch produces ``on_batch_start``, then for every service group
    a paired ``on_stage_start``/``on_stage_end`` per stage in workflow
    order, then ``on_batch_end`` — the single place per-batch telemetry
    is folded into the :class:`BatchResult`.  Observers are independent
    of each other: none reads what another publishes, so their order in
    ``MiningEngine.observers`` does not matter.
    """

    def on_batch_start(self, result: BatchResult) -> None:
        """Called once before any stage runs."""

    def on_stage_start(self, stage: str, ctx: ServiceBatchContext) -> None:
        """Called immediately before *stage* runs on *ctx*."""

    def on_stage_end(self, stage: str, ctx: ServiceBatchContext) -> None:
        """Called immediately after *stage* ran on *ctx*."""

    def on_batch_end(self, result: BatchResult) -> None:
        """Called once after the last stage; fill *result* here."""


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

def default_observers(rtg: "SequenceRTG") -> list[StageObserver]:
    """The engine's one built-in observer: metrics, stage timings and
    dedup tallies from one measurement per stage run."""
    # imported here: repro.obs.observer subclasses this module's
    # StageObserver, so a top-level import would be circular
    from repro.obs.observer import MetricsObserver

    return [MetricsObserver(rtg.metrics, db=rtg.db)]


class MiningEngine:
    """Drive one batch through the staged Fig. 2 workflow.

    Partitions the batch by service ("a first partitioning of the data
    which groups the log records into subsets by service") and runs
    every group through scan → parse → partition-by-length → analyse →
    persist, notifying *observers* around each stage.

    :meth:`run` and :meth:`flush` share one per-service stage loop.  A
    batch call runs with *flush* and mines each service's evidence
    inside that service's own analyze stage; a stream driver's
    micro-batch only absorbs it, and the driver's :meth:`flush` later
    mines everything pending through the same loop, running just the
    analyze and persist stages.
    """

    def __init__(
        self,
        rtg: "SequenceRTG",
        observers: list[StageObserver] | None = None,
    ) -> None:
        self.rtg = rtg
        self.observers: list[StageObserver] = (
            default_observers(rtg) if observers is None else list(observers)
        )
        self.parse_stage = ParseStage(rtg)
        self.analyze_stage = AnalyzeStage(rtg)
        self.persist_stage = PersistStage(rtg)
        self.stages: list[Stage] = [
            ScanStage(rtg),
            self.parse_stage,
            LengthPartitionStage(rtg),
            self.analyze_stage,
            self.persist_stage,
        ]

    def run(
        self,
        records: list[LogRecord],
        now: datetime | None = None,
        flush: bool = False,
    ) -> BatchResult:
        """Execute the workflow over one batch of records.

        With *flush* each service's pending evidence is mined in this
        call; without, unmatched messages are only absorbed.  All or
        nothing: the call's writes commit together, or — when a stage
        raises — not at all (see
        :meth:`~repro.core.pipeline.SequenceRTG.transaction`).
        """
        by_service: dict[str, list[LogRecord]] = {}
        for record in records:
            by_service.setdefault(record.service, []).append(record)
        return self._mine(by_service, self.stages, now, flush, len(records))

    def flush(self, now: datetime | None = None) -> BatchResult:
        """Mine and persist every service state's pending evidence.

        Every service with pending partitions runs the analyze and
        persist stages over an empty batch, inside the same observer
        events a batch emits, so flush latency and new-pattern counts
        land in the same histograms and counters.  A no-op (empty
        result) when nothing is pending, as after every batch call.
        """
        groups = {
            service: []
            for service, state in self.rtg.states.items()
            if state.pending
        }
        if not groups:
            return BatchResult()
        stages = [self.analyze_stage, self.persist_stage]
        return self._mine(groups, stages, now, True, 0)

    def _mine(
        self,
        groups: dict[str, list[LogRecord]],
        stages: list[Stage],
        now: datetime | None,
        flush: bool,
        n_records: int,
    ) -> BatchResult:
        """The per-service stage loop: *stages* over every group, in one
        transaction, between one pair of batch events."""
        result = BatchResult(n_records=n_records, n_services=len(groups))
        observers = self.observers
        for observer in observers:
            observer.on_batch_start(result)
        with self.rtg.transaction():
            for service, group in groups.items():
                ctx = ServiceBatchContext(
                    service=service, records=group, now=now, flush=flush
                )
                for stage in stages:
                    for observer in observers:
                        observer.on_stage_start(stage.name, ctx)
                    stage.run(ctx)
                    for observer in observers:
                        observer.on_stage_end(stage.name, ctx)
                result.n_matched += sum(ctx.match_counts.values())
                result.n_unmatched += sum(ctx.unmatched_counts)
                result.n_partitions += len(ctx.trie_node_sizes)
                result.n_below_threshold += ctx.n_below_threshold
                result.max_trie_nodes = max(
                    result.max_trie_nodes, ctx.max_trie_nodes
                )
                result.n_new_patterns += len(ctx.new_patterns)
                result.new_patterns.extend(ctx.new_patterns)
        if flush:
            self.rtg.analyzer.release()
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
