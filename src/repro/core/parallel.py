"""Scale-out ``AnalyzeByService`` across processes.

"If the capacity of Sequence-RTG needed to be scaled up, the messages
could be divided simply by sending groups of services to any number
instances of Sequence-RTG, thanks to the newly introduced
AnalyzeByService method.  In this case each instance could have its own
database as there is no crossover with patterns between different
services." (paper §IV)

Every worker runs the exact same staged
:class:`~repro.core.engine.MiningEngine` as the serial front end — the
only substitution is the persistence seam: :class:`DeltaPersistStage`
writes the worker's *private* database and accumulates the delta reply
(new patterns, match-count diffs) the parent merges into the shared
database.  Two pool front ends drive that engine:

* :class:`PersistentParallelSequenceRTG` — the production engine.  A
  pool of long-lived worker processes, each owning a private
  :class:`~repro.core.pipeline.SequenceRTG` (own in-memory pattern
  database, warm fast-lane caches, incrementally extended parsers) for a
  *sticky* set of services: ``crc32(service) % n_workers`` never changes
  between batches, so a worker keeps serving the same services for the
  lifetime of the pool.  Per batch the parent ships a worker only its
  shard's records plus the patterns that are *new to it* since its last
  sync — tracked with a monotone cursor into a
  :class:`~repro.core.fastpath.PatternJournal` — never the full known
  set.  A worker that dies is respawned and its service patterns are
  replayed from the shared database, which by construction holds
  everything the dead worker had ever reported.

* :class:`ParallelSequenceRTG` — the original per-batch pool, retained
  as the cold baseline the benchmarks compare against: every batch pays
  process spawn, a full re-ship of all known patterns of the shard's
  services, a from-scratch parser rebuild and stone-cold caches.

Because pattern ids are content-derived SHA1s and sharding is
service-disjoint, the merged result of either front end is *identical*
to a serial run over the same batches — pattern ids, supports, match
counts and stored examples — a property the test suite asserts for
multi-batch runs and for runs with induced worker crashes.
"""

from __future__ import annotations

import multiprocessing
import pickle
import zlib
from dataclasses import dataclass, field
from datetime import datetime

from repro.analyzer.pattern import Pattern
from repro.core.config import RTGConfig
from repro.core.engine import (
    BatchResult,
    MiningEngine,
    PersistStage,
    ServiceBatchContext,
    StageObserver,
    drive_stream,
)
from repro.core.fastpath import PatternJournal
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.obs.metrics import MetricsRegistry, snapshot_to_dict
from repro.obs.observer import METRIC_HELP, MetricsObserver, fold_batch_result

__all__ = [
    "ParallelSequenceRTG",
    "PersistentParallelSequenceRTG",
    "DeltaPersistStage",
    "shard_records",
    "route_service",
]


def route_service(service: str, n_shards: int) -> int:
    """Sticky shard index of *service* for an *n_shards*-way pool.

    crc32 rather than hash(): stable across interpreter runs and worker
    respawns, so a service is owned by the same shard for the lifetime
    of a deployment (and a re-executed one shards identically).
    """
    return zlib.crc32(service.encode()) % n_shards


def shard_records(
    records: list[LogRecord], n_shards: int
) -> list[list[LogRecord]]:
    """Partition records into service-disjoint shards.

    All records of one service land in the same shard (stable hash of
    the service name), so no two workers ever mine the same service.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    shards: list[list[LogRecord]] = [[] for _ in range(n_shards)]
    for record in records:
        shards[route_service(record.service, n_shards)].append(record)
    return shards


@dataclass(slots=True)
class _ShardTask:
    """Everything one cold-pool worker needs (picklable)."""

    records: list[LogRecord]
    config: RTGConfig
    known_patterns: list[dict]  # Pattern.to_dict() of relevant services
    now: datetime | None = None
    worker: int | None = None  # ``worker`` metric label of the shard


@dataclass(slots=True)
class _ShardOutcome:
    """Per-shard deltas a worker reports back for merging."""

    n_matched: int
    n_unmatched: int
    n_partitions: int
    n_below_threshold: int
    max_trie_nodes: int
    new_patterns: list[dict]
    match_counts: dict[str, int]
    match_examples: dict[str, list[str]]
    cache: dict[str, int]
    timings: dict[str, float] = field(default_factory=dict)
    #: the worker registry's per-batch snapshot delta (stage latency
    #: histograms, per-service counters), merged into the parent's
    #: registry — see :meth:`repro.obs.metrics.MetricsRegistry.merge`
    metrics: dict = field(default_factory=dict)


class DeltaPersistStage(PersistStage):
    """Worker-side persistence seam of the staged engine.

    Persists the service's batch outcome into the worker's *private*
    database exactly like the serial :class:`PersistStage`, then diffs
    that service's rows against what was already reported to (or
    received from) the parent: rows not in *reported* are new patterns,
    known rows whose count grew report the delta as matches.
    *reported* is advanced in place, so a persistent worker reports
    each increment exactly once across its lifetime.  Only services
    touched by the batch are ever diffed — nothing else can have
    changed.  The diff reads rows the engine's call-wide transaction
    has not committed yet; the reply is safe because :meth:`outcome` is
    built only from a mining call that returned, i.e. after its commit
    — a call that raises takes the worker (and *reported*) down with
    it, and the respawn replays from the shared database.
    """

    name = "persist"

    def __init__(self, rtg: SequenceRTG, reported: dict[str, int]) -> None:
        super().__init__(rtg)
        self.reported = reported
        self.new_patterns: list[dict] = []
        self.match_counts: dict[str, int] = {}
        self.match_examples: dict[str, list[str]] = {}

    def reset(self) -> None:
        """Start a fresh per-batch delta (call before each engine run)."""
        self.new_patterns = []
        self.match_counts = {}
        self.match_examples = {}

    def run(self, ctx: ServiceBatchContext) -> None:
        super().run(ctx)
        reported = self.reported
        for row in self.rtg.db.rows(service=ctx.service):
            previous = reported.get(row.id)
            if previous is None:
                self.new_patterns.append(row.to_pattern().to_dict())
                reported[row.id] = row.match_count
            elif row.match_count > previous:
                self.match_counts[row.id] = row.match_count - previous
                self.match_examples[row.id] = row.examples
                reported[row.id] = row.match_count

    def outcome(self, batch: BatchResult) -> _ShardOutcome:
        """The delta reply for the batch *batch* summarised."""
        return _ShardOutcome(
            n_matched=batch.n_matched,
            n_unmatched=batch.n_unmatched,
            n_partitions=batch.n_partitions,
            n_below_threshold=batch.n_below_threshold,
            max_trie_nodes=batch.max_trie_nodes,
            new_patterns=self.new_patterns,
            match_counts=self.match_counts,
            match_examples=self.match_examples,
            cache=batch.cache,
            timings=batch.timings,
        )


def _worker_engine(
    config: RTGConfig, worker: int | None = None
) -> tuple[SequenceRTG, DeltaPersistStage, MiningEngine]:
    """One worker's private miner on the shared staged engine.

    The same :class:`MiningEngine` the serial path runs — same stages,
    same default observers — with :class:`DeltaPersistStage` substituted
    as the persistence seam.  The worker's metric registry stamps every
    sample with a ``worker`` label and records stage-level series only
    (``batch_level=False``): batch aggregates — matched fraction, fast
    lane, pool and database gauges — are folded exactly once, parent
    side, from the merged :class:`BatchResult`.
    """
    metrics = None
    if config.enable_metrics and worker is not None:
        metrics = MetricsRegistry(const_labels={"worker": str(worker)})
    rtg = SequenceRTG(
        db=PatternDB(max_examples=config.max_examples, durable=config.db_durable),
        config=config,
        metrics=metrics,
    )
    persist = DeltaPersistStage(rtg, reported={})
    engine = MiningEngine(rtg, persist=persist)
    for observer in engine.observers:
        if isinstance(observer, MetricsObserver):
            observer.batch_level = False
            observer.db = None
    return rtg, persist, engine


def _analyze_shard(task: _ShardTask) -> _ShardOutcome:
    """Run one throwaway staged engine over a service shard."""
    rtg, persist, engine = _worker_engine(task.config, worker=task.worker)
    for pattern_dict in task.known_patterns:
        pattern = Pattern.from_dict(pattern_dict)
        rtg.db.upsert(pattern)
        persist.reported[pattern.id] = pattern.support
    outcome = persist.outcome(engine.run(task.records, now=task.now))
    # a fresh process starts from an empty registry, so the cumulative
    # snapshot *is* the batch delta
    outcome.metrics = rtg.metrics.snapshot()
    return outcome


class _DisjointMerge:
    """Guard that every pattern id is reported by exactly one shard.

    Service-disjoint sharding guarantees disjoint pattern ids across
    shards; if routing ever broke, summing the shards' new-pattern
    supports and match deltas would silently double count.  Raise
    instead.
    """

    __slots__ = ("_seen",)

    def __init__(self) -> None:
        self._seen: dict[str, int] = {}

    def claim(self, pattern_id: str, shard: int) -> None:
        owner = self._seen.setdefault(pattern_id, shard)
        if owner != shard:
            raise RuntimeError(
                "service-disjoint sharding violated: pattern "
                f"{pattern_id} reported by shards {owner} and {shard}; "
                "merging would double-count its support"
            )


class ParallelSequenceRTG:
    """Per-batch-pool front end (the cold baseline).

    Semantically equivalent to :class:`SequenceRTG.analyze_by_service`
    over the same batch, but every call builds the process pool anew and
    re-ships the full known pattern set of each shard's services.  Kept
    for comparison benchmarks; production use should prefer
    :class:`PersistentParallelSequenceRTG`.
    """

    def __init__(
        self,
        db: PatternDB | None = None,
        config: RTGConfig | None = None,
        n_workers: int | None = None,
    ) -> None:
        self.config = config or RTGConfig()
        if self.config.mode != "batch":
            raise ValueError(
                "worker pools run batch mode only; stream mode is served "
                f"by the serial StreamDriver (got mode={self.config.mode!r})"
            )
        self.db = db or PatternDB(
            max_examples=self.config.max_examples,
            durable=self.config.db_durable,
        )
        self.n_workers = n_workers or max(1, multiprocessing.cpu_count() - 1)
        #: measure the per-batch pattern re-ship (pickled bytes of the
        #: known-pattern payloads) into ``result.pool`` — off by default
        #: so timing runs don't pay a second serialisation
        self.track_sync_bytes = False
        #: shared runtime metrics registry: the in-process instance
        #: writes into it directly; worker deltas are merged after every
        #: multi-shard batch
        self.metrics = MetricsRegistry()
        # persistent in-process instance over the shared database: runs
        # single-shard batches directly (parser and fast-lane caches stay
        # warm across batches) and absorbs pool-merged patterns in place
        self._local = SequenceRTG(
            db=self.db, config=self.config, metrics=self.metrics
        )

    # ------------------------------------------------------------------
    def _known_for(self, services: set[str]) -> list[dict]:
        out: list[dict] = []
        for service in services:
            for pattern in self.db.load_service(service):
                out.append(pattern.to_dict())
        return out

    def analyze_by_service(
        self, records: list[LogRecord], now: datetime | None = None
    ) -> BatchResult:
        """Analyse one batch across a fresh worker pool and merge results."""
        shards = [s for s in shard_records(records, self.n_workers) if s]
        if len(shards) <= 1:
            # degenerate case: run in-process on the shared database via
            # the persistent instance — no shipping patterns to a worker,
            # no rebuilding parsers from scratch, warm caches throughout
            return self._local.analyze_by_service(records, now=now)

        tasks = [
            _ShardTask(
                records=shard,
                config=self.config,
                known_patterns=self._known_for({r.service for r in shard}),
                now=now,
                worker=index,
            )
            for index, shard in enumerate(shards)
        ]
        metrics_before = (
            self.metrics.snapshot() if self.config.enable_metrics else None
        )
        with multiprocessing.Pool(processes=len(tasks)) as pool:
            outcomes = pool.map(_analyze_shard, tasks)

        result = BatchResult(n_records=len(records))
        result.n_services = len({r.service for r in records})
        result.pool = {
            "workers": len(tasks),
            "sync_patterns": sum(len(t.known_patterns) for t in tasks),
        }
        if self.track_sync_bytes:
            result.pool["sync_bytes"] = sum(
                len(pickle.dumps(t.known_patterns)) for t in tasks
            )
        guard = _DisjointMerge()
        for shard_index, outcome in enumerate(outcomes):
            result.n_matched += outcome.n_matched
            result.n_unmatched += outcome.n_unmatched
            result.n_partitions += outcome.n_partitions
            result.n_below_threshold += outcome.n_below_threshold
            result.max_trie_nodes = max(result.max_trie_nodes, outcome.max_trie_nodes)
            for key, value in outcome.cache.items():
                result.cache[key] = result.cache.get(key, 0) + value
            for key, value in outcome.timings.items():
                result.timings[key] = result.timings.get(key, 0.0) + value
            if outcome.metrics:
                self.metrics.merge(outcome.metrics)
            for pattern_dict in outcome.new_patterns:
                pattern = Pattern.from_dict(pattern_dict)
                guard.claim(pattern.id, shard_index)
                # upsert + in-place parser extension: the local instance
                # keeps serving without rebuilding its parsers
                self._local.add_known_pattern(pattern, now=now)
                result.n_new_patterns += 1
                result.new_patterns.append(pattern)
            for pid, n in outcome.match_counts.items():
                guard.claim(pid, shard_index)
                self.db.record_match(pid, n=n, now=now)
                for example in outcome.match_examples.get(pid, ()):
                    self.db.add_example(pid, example)
        if metrics_before is not None:
            fold_batch_result(self.metrics, result, db=self.db)
            result.metrics = snapshot_to_dict(
                MetricsRegistry.snapshot_delta(
                    metrics_before, self.metrics.snapshot()
                )
            )
        return result

    # ------------------------------------------------------------------
    def process_stream(self, batches, now: datetime | None = None):
        """Run ``analyze_by_service`` for every batch; yield results."""
        return drive_stream(self, batches, now=now)


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------

def _worker_main(conn, config: RTGConfig, index: int | None = None) -> None:
    """Loop of one long-lived worker process.

    Owns a private staged engine (:func:`_worker_engine`) over an
    in-memory database for its sticky services.  Protocol (one pickled
    message per request):

    * ``("sync", patterns)`` — absorb pattern dicts into the private DB
      and parser (no reply).  Sent at spawn (replay from the shared DB)
      and never again for patterns this worker reported itself.
    * ``("batch", records, patterns, now)`` — absorb the delta
      *patterns*, analyse *records* stamped with *now*, reply with a
      :class:`_ShardOutcome` of deltas.  The outcome carries the
      worker registry's per-batch snapshot delta (the registry is
      long-lived here, unlike the cold pool's, so cumulative values
      must be diffed before shipping).
    * ``("stop",)`` — exit.
    """
    rtg, persist, engine = _worker_engine(config, worker=index)
    #: match_count already reported to (or received from) the parent
    reported = persist.reported

    def absorb(pattern_dicts: list[dict]) -> None:
        for pattern_dict in pattern_dicts:
            pattern = Pattern.from_dict(pattern_dict)
            rtg.add_known_pattern(pattern)
            reported[pattern.id] = reported.get(pattern.id, 0) + pattern.support

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] == "stop":
            break
        if message[0] == "sync":
            absorb(message[1])
            continue
        _, records, sync, now = message
        absorb(sync)
        persist.reset()
        metrics_before = rtg.metrics.snapshot()
        outcome = persist.outcome(engine.run(records, now=now))
        outcome.metrics = MetricsRegistry.snapshot_delta(
            metrics_before, rtg.metrics.snapshot()
        )
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):
            break
    conn.close()


@dataclass(slots=True)
class _WorkerHandle:
    """Parent-side view of one worker process."""

    index: int
    process: multiprocessing.Process
    conn: object  # multiprocessing.Connection
    #: journal head this worker is synced to
    cursor: int
    #: services this worker has been sent (sticky-routing telemetry)
    services: set[str] = field(default_factory=set)


class _PoolTelemetry(StageObserver):
    """Per-batch pool counters → ``BatchResult.pool``.

    The parent feeds dispatch events in during the batch; spawn and
    seed counters are read from the engine's cumulative telemetry.
    Publishing through the :class:`StageObserver` channel keeps the
    pool's telemetry on the same path as the stage timings and cache
    deltas the in-worker engines report.
    """

    def __init__(self, telemetry: dict[str, int]) -> None:
        self._telemetry = telemetry
        self._spawns_before = 0
        self._respawns_before = 0
        self.workers = 0
        self.sync_patterns = 0
        self.sync_bytes = 0

    def on_batch_start(self, result: BatchResult) -> None:
        self._spawns_before = self._telemetry["spawns"]
        self._respawns_before = self._telemetry["respawns"]
        self.workers = 0
        self.sync_patterns = 0
        self.sync_bytes = 0

    def dispatched(self, sync_patterns: int, sync_bytes: int) -> None:
        """One shard dispatched with a delta-sync payload of this size."""
        self.workers += 1
        self.sync_patterns += sync_patterns
        self.sync_bytes += sync_bytes

    def on_batch_end(self, result: BatchResult) -> None:
        telemetry = self._telemetry
        result.pool = {
            "workers": self.workers,
            "spawns": telemetry["spawns"] - self._spawns_before,
            "respawns": telemetry["respawns"] - self._respawns_before,
            "sync_patterns": self.sync_patterns,
            "sync_bytes": self.sync_bytes,
            "seed_patterns": telemetry["seed_patterns"],
            "seed_bytes": telemetry["seed_bytes"],
        }


class PersistentParallelSequenceRTG:
    """Service-sharded Sequence-RTG over a persistent worker pool.

    The scale-out engine: workers live as long as the engine, own their
    services exclusively (stable crc32 routing) and keep everything warm
    between batches — pattern database, parse tries, scan/match caches.
    Per batch the parent ships each worker its shard's records plus the
    delta of patterns new to that worker since its last sync; workers
    reply with the same :class:`_ShardOutcome` deltas as the cold pool,
    which the parent merges into the shared database.  The merged output
    is identical to a serial run — ids, supports, match counts, examples.

    Use as a context manager (or call :meth:`close`); worker processes
    are daemons, so an unclosed engine cannot outlive the interpreter.

    Worker death is handled, not tolerated: a dead worker is respawned
    and its service patterns are replayed from the shared database,
    which holds everything the worker had ever reported — the replayed
    state is therefore exactly the dead worker's last merged state, and
    the interrupted shard is re-dispatched.

    Cumulative counters live in :attr:`telemetry`; per-batch values are
    published as ``BatchResult.pool`` by a pool-side
    :class:`~repro.core.engine.StageObserver` (extend
    :attr:`observers` for custom per-batch instrumentation).
    """

    def __init__(
        self,
        db: PatternDB | None = None,
        config: RTGConfig | None = None,
        n_workers: int | None = None,
    ) -> None:
        self.config = config or RTGConfig()
        if self.config.mode != "batch":
            raise ValueError(
                "worker pools run batch mode only; stream mode is served "
                f"by the serial StreamDriver (got mode={self.config.mode!r})"
            )
        self.db = db or PatternDB(
            max_examples=self.config.max_examples,
            durable=self.config.db_durable,
        )
        self.n_workers = (
            n_workers
            or self.config.pool_workers
            or max(1, multiprocessing.cpu_count() - 1)
        )
        if self.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        #: shared runtime metrics registry: the in-process instance
        #: writes into it directly; worker deltas are merged in
        #: :meth:`_merge` and batch aggregates folded by the pool-level
        #: :class:`~repro.obs.observer.MetricsObserver`
        self.metrics = MetricsRegistry()
        # absorbs merged patterns with warm parsers, and serves
        # parser_for/parse needs of the parent process
        self._local = SequenceRTG(
            db=self.db, config=self.config, metrics=self.metrics
        )
        self._journal = PatternJournal()
        self._workers: list[_WorkerHandle | None] = [None] * self.n_workers
        self._closed = False
        #: test instrumentation: called after a batch's shards are
        #: dispatched, before outcomes are collected (crash injection)
        self._post_dispatch_hook = None
        self.telemetry = {
            "batches": 0,
            "spawns": 0,
            "respawns": 0,
            "sync_patterns": 0,
            "sync_bytes": 0,
            "seed_patterns": 0,
            "seed_bytes": 0,
        }
        self._pool_telemetry = _PoolTelemetry(self.telemetry)
        #: batch-level observers (``BatchResult.pool`` publisher by
        #: default); stage-level hooks fire inside the workers
        self.observers: list[StageObserver] = [self._pool_telemetry]
        if self.config.enable_metrics:
            # after _PoolTelemetry: folding reads ``result.pool``
            self.observers.append(
                MetricsObserver(
                    self.metrics,
                    db=self.db,
                    scan_backend=self.config.scanner.backend,
                    parse_backend=self.config.parser.backend,
                    analyze_backend=self.config.analyzer.backend,
                )
            )

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "PersistentParallelSequenceRTG":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker and mark the engine unusable (idempotent).

        The shared database stays open — closing the pool is how a
        deployment hands off to `export`/`report` tooling.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            if handle is None:
                continue
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            handle.conn.close()
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
        self._workers = [None] * self.n_workers

    # -- routing and sync ------------------------------------------------
    def worker_for(self, service: str) -> int:
        """Sticky worker index owning *service* (stable across batches)."""
        return route_service(service, self.n_workers)

    def _seed_for(self, index: int) -> list[dict]:
        """Every known pattern of the services routed to shard *index*.

        Shipped once at (re)spawn: the shared database is the union of
        everything ever merged, so this replay reconstructs exactly the
        worker's last reported state.
        """
        out: list[dict] = []
        for service in self.db.services():
            if route_service(service, self.n_workers) != index:
                continue
            out.extend(p.to_dict() for p in self.db.load_service(service))
        return out

    def _spawn(self, index: int, respawn: bool = False) -> _WorkerHandle:
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child_conn, self.config, index),
            name=f"sequence-rtg-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(
            index=index,
            process=process,
            conn=parent_conn,
            cursor=self._journal.head,
        )
        seed = self._seed_for(index)
        if seed:
            blob = pickle.dumps(seed)
            self.telemetry["seed_patterns"] += len(seed)
            self.telemetry["seed_bytes"] += len(blob)
            handle.conn.send(("sync", seed))
        self.telemetry["respawns" if respawn else "spawns"] += 1
        self._workers[index] = handle
        return handle

    def _ensure_worker(self, index: int) -> _WorkerHandle:
        handle = self._workers[index]
        if handle is None:
            return self._spawn(index)
        if not handle.process.is_alive():
            return self._respawn_after_failure(handle)
        return handle

    def _respawn_after_failure(self, handle: _WorkerHandle) -> _WorkerHandle:
        """Retire a dead worker's handle and bring up its replacement."""
        handle.conn.close()
        handle.process.join(timeout=5.0)
        replacement = self._spawn(handle.index, respawn=True)
        replacement.services.update(handle.services)
        return replacement

    def _delta_for(self, handle: _WorkerHandle) -> list[dict]:
        """Patterns new to this worker since its last sync — O(new).

        Entries the worker itself reported are skipped (it already has
        them); so are entries routed to other shards.  The cursor always
        advances to the journal head: skipped entries stay skippable
        forever, so they never need to be revisited.
        """
        entries = self._journal.since(handle.cursor)
        handle.cursor = self._journal.head
        return [
            e.pattern
            for e in entries
            if e.origin != handle.index
            and route_service(e.service, self.n_workers) == handle.index
        ]

    def publish_pattern(self, pattern) -> str:
        """Add a parent-side pattern (import, promotion, ad-hoc mining).

        Persists to the shared database and journals the addition so the
        owning worker receives it as a delta with its next batch instead
        of ever re-discovering it.  Returns the pattern id.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        pid = self._local.add_known_pattern(pattern)
        self._journal.append(pattern.service, pattern.to_dict(), origin=None)
        return pid

    # -- analysis --------------------------------------------------------
    def analyze_by_service(
        self, records: list[LogRecord], now: datetime | None = None
    ) -> BatchResult:
        """Analyse one batch across the persistent pool and merge results."""
        return self.analyze_sharded(
            shard_records(records, self.n_workers), now=now
        )

    def analyze_sharded(
        self, shards: list[list[LogRecord]], now: datetime | None = None
    ) -> BatchResult:
        """Analyse one pre-sharded batch across the persistent pool.

        *shards* must have exactly ``n_workers`` entries (empties
        allowed) with shard *i* holding only services that
        :func:`route_service` maps to *i* — the split
        :func:`shard_records` produces, which the serving tier's
        :class:`~repro.serve.router.ShardRouter` maintains incrementally
        so network batches skip the re-shard entirely.  Misrouted
        shards are not silently mined: cross-shard pattern collisions
        trip the disjoint-merge guard.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if len(shards) != self.n_workers:
            raise ValueError(
                f"expected {self.n_workers} shards, got {len(shards)}"
            )
        result = BatchResult(n_records=sum(len(s) for s in shards))
        result.n_services = len({r.service for s in shards for r in s})
        for observer in self.observers:
            observer.on_batch_start(result)

        dispatched: list[tuple[_WorkerHandle, list[LogRecord]]] = []
        for index, shard in enumerate(shards):
            if not shard:
                continue
            handle = self._ensure_worker(index)
            handle.services.update(r.service for r in shard)
            if self.config.enable_metrics:
                # read before _delta_for advances the cursor to head
                self.metrics.gauge(
                    "rtg_journal_lag", METRIC_HELP["rtg_journal_lag"]
                ).set(self._journal.lag(handle.cursor), worker=str(index))
            sync = self._delta_for(handle)
            try:
                handle.conn.send(("batch", shard, sync, now))
            except (BrokenPipeError, OSError):
                # died since the liveness check; replay and re-dispatch
                handle = self._respawn_after_failure(handle)
                handle.conn.send(("batch", shard, self._delta_for(handle), now))
            self._pool_telemetry.dispatched(
                len(sync), len(pickle.dumps(sync)) if sync else 0
            )
            dispatched.append((handle, shard))

        if self._post_dispatch_hook is not None:
            self._post_dispatch_hook()

        outcomes: list[tuple[int, _ShardOutcome]] = []
        for handle, shard in dispatched:
            try:
                outcome = handle.conn.recv()
            except (EOFError, OSError):
                # the worker died mid-batch.  Nothing of this batch was
                # merged, so replaying its patterns from the shared DB
                # and re-dispatching the shard reproduces the lost work
                # exactly (the replayed state is the worker's last
                # merged state).
                handle = self._respawn_after_failure(handle)
                handle.conn.send(("batch", shard, self._delta_for(handle), now))
                outcome = handle.conn.recv()
            outcomes.append((handle.index, outcome))

        self._merge(outcomes, result, now=now)
        self.telemetry["batches"] += 1
        self.telemetry["sync_patterns"] += self._pool_telemetry.sync_patterns
        self.telemetry["sync_bytes"] += self._pool_telemetry.sync_bytes
        for observer in self.observers:
            observer.on_batch_end(result)
        return result

    def _merge(
        self,
        outcomes: list[tuple[int, _ShardOutcome]],
        result: BatchResult,
        now: datetime | None = None,
    ) -> None:
        guard = _DisjointMerge()
        for shard_index, outcome in outcomes:
            result.n_matched += outcome.n_matched
            result.n_unmatched += outcome.n_unmatched
            result.n_partitions += outcome.n_partitions
            result.n_below_threshold += outcome.n_below_threshold
            result.max_trie_nodes = max(
                result.max_trie_nodes, outcome.max_trie_nodes
            )
            for key, value in outcome.cache.items():
                result.cache[key] = result.cache.get(key, 0) + value
            # summed across workers: total CPU seconds per stage, not
            # wall clock (workers overlap)
            for key, value in outcome.timings.items():
                result.timings[key] = result.timings.get(key, 0.0) + value
            if outcome.metrics:
                self.metrics.merge(outcome.metrics)
            for pattern_dict in outcome.new_patterns:
                pattern = Pattern.from_dict(pattern_dict)
                guard.claim(pattern.id, shard_index)
                self._local.add_known_pattern(pattern, now=now)
                self._journal.append(
                    pattern.service, pattern_dict, origin=shard_index
                )
                result.n_new_patterns += 1
                result.new_patterns.append(pattern)
            for pid, n in outcome.match_counts.items():
                guard.claim(pid, shard_index)
                self.db.record_match(pid, n=n, now=now)
                for example in outcome.match_examples.get(pid, ()):
                    self.db.add_example(pid, example)

    # ------------------------------------------------------------------
    def process_stream(self, batches, now: datetime | None = None):
        """Run ``analyze_by_service`` for every batch; yield results.

        *batches* is any iterable of record lists — typically
        :meth:`repro.core.ingest.StreamIngester.batches_pipelined`, so
        ingest of batch *N+1* overlaps analysis of batch *N* while the
        workers overlap each other within every batch.
        """
        return drive_stream(self, batches, now=now)
