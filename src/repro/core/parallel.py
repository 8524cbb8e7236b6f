"""Scale-out ``AnalyzeByService`` across processes.

"If the capacity of Sequence-RTG needed to be scaled up, the messages
could be divided simply by sending groups of services to any number
instances of Sequence-RTG, thanks to the newly introduced
AnalyzeByService method.  In this case each instance could have its own
database as there is no crossover with patterns between different
services." (paper §IV)

:class:`PersistentParallelSequenceRTG` is that sentence as code: a pool
of long-lived worker processes, each nothing but a serial
:class:`~repro.core.pipeline.SequenceRTG` over its *own* SQLite file —
one shard of the :class:`~repro.core.patterndb.PatternDB` the pool was
handed — for a *sticky* set of services: ``crc32(service) % n_workers``
never changes between batches, so a worker keeps its services and
parsers warm for the lifetime of the pool.  The parent
shards a batch, pipes each worker its records as two string lists and
sums the :class:`~repro.core.engine.BatchResult` counters that come
back; it holds no parser and no pattern state, and nothing is merged:
pattern ids are content-derived SHA1s and the shards service-disjoint,
so the union of the shard files — what every read of the handle serves
— *is* the database a serial run over the same batches writes, ids,
supports, match counts, dates and stored examples (asserted by the test
suite, also for runs with workers killed at every point of a call).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from dataclasses import dataclass
from datetime import datetime

from repro.core.config import RTGConfig
from repro.core.engine import BatchResult, drive_stream
from repro.core.patterndb import PatternDB, route_service
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord, new_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import fold_batch_result

__all__ = [
    "PersistentParallelSequenceRTG",
    "shard_records",
    "route_service",
]


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


def _worker_main(conn, shard: tuple, config: RTGConfig, index: int) -> None:
    """Loop of one long-lived worker process: a serial miner on one file.

    *shard* is the ``PatternDB`` arguments of that file — its path and
    the example cap and durability of the database the pool was handed,
    so a shard stores what the serial miner would.  Every request is
    ``(token, services, messages, now)`` — mine the records the two
    parallel string lists spell, stamped with *now* — and is answered
    with the pickled ``(token, BatchResult, metrics delta)`` of the
    call; ``None`` stops the loop.

    The call's writes, its *token* and its reply commit in one
    transaction, so a request whose token the file already holds was
    applied by a predecessor that died before answering: it is answered
    from the stored reply and not applied again.  The registry stamps
    every sample with a ``worker`` label and records stage-level series
    only — batch aggregates are folded once, parent side, from the
    summed :class:`BatchResult`.
    """
    rtg = SequenceRTG(
        db=PatternDB(*shard),
        config=config,
        metrics=MetricsRegistry(const_labels={"worker": str(index)}),
    )
    (observer,) = rtg.engine.observers
    observer.batch_level = False
    observer.db = None
    db, registry = rtg.db, rtg.metrics
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if request is None:
            break
        token, services, messages, now = request
        reply = db.stored_reply(token)
        if reply is None:
            before = registry.snapshot()
            with rtg.transaction():
                value = rtg.analyze_by_service(
                    list(map(new_record, services, messages)), now=now
                )
                delta = MetricsRegistry.snapshot_delta(before, registry.snapshot())
                reply = pickle.dumps(
                    (token, value, delta), pickle.HIGHEST_PROTOCOL
                )
                db.store_reply(token, reply)
        try:
            conn.send_bytes(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


@dataclass(slots=True)
class _Worker:
    """Parent-side view of one worker process."""

    index: int
    process: multiprocessing.Process
    conn: object  # multiprocessing.Connection


class PersistentParallelSequenceRTG:
    """Service-sharded Sequence-RTG over a persistent worker pool.

    Constructing the pool lays *db* out as *n_workers* shard files (by
    default one per CPU minus one for the parent;
    :meth:`PatternDB.shard` — rows a serial miner or a pool of another
    size left elsewhere move to their owner first); from then on *db*,
    and any later ``PatternDB(path)``, reads the union of the shards and
    refuses per-pattern writes.  Workers are spawned on first use and
    live as long as the engine.  Use as a context manager (or call
    :meth:`close`); worker processes are daemons, so an unclosed engine
    cannot outlive the interpreter.

    Worker death is handled, not tolerated.  Every call carries the
    shard's next sequence number and commits it with the call's writes
    (one transaction per mining call), so whenever a worker dies —
    between calls, mid-call or after its commit but before its reply —
    the parent respawns it on the same file and sends the call again: a
    call that never committed is mined from the state the file rolled
    back to, one that did is acknowledged from the stored reply.
    Either way every record is counted exactly once.

    Cumulative counters live in :attr:`telemetry`; per-batch values are
    published as ``BatchResult.pool``.  Stage-level hooks fire inside
    the workers; their registry deltas merge into :attr:`metrics`.
    """

    def __init__(
        self,
        db: PatternDB | None = None,
        config: RTGConfig | None = None,
        n_workers: int | None = None,
    ) -> None:
        self.config = config or RTGConfig()
        self.db = db or PatternDB()
        self.n_workers = n_workers or max(1, multiprocessing.cpu_count() - 1)
        self._shard_paths = self.db.shard(self.n_workers)
        #: the one registry behind ``/metrics``: worker deltas are merged
        #: in as replies arrive, batch aggregates folded once per batch
        #: by :func:`~repro.obs.observer.fold_batch_result`
        self.metrics = MetricsRegistry()
        # spawn, not fork: the parent runs threads (pipelined ingest
        # reader, serving tier) by the time workers start
        self._context = multiprocessing.get_context("spawn")
        #: process target (tests substitute one that dies on cue)
        self._worker_main = _worker_main
        self._workers: list[_Worker | None] = [None] * self.n_workers
        # tokens must not repeat across pools over the same files
        self._epoch = os.urandom(8).hex()
        self._seq = [0] * self.n_workers
        self._closed = False
        self.telemetry = {"batches": 0, "spawns": 0, "respawns": 0}

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "PersistentParallelSequenceRTG":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker and mark the engine unusable (idempotent).

        The database stays open and readable — closing the pool is how
        a deployment hands off to `export`/`report` tooling.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            worker.conn.close()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
        self._workers = [None] * self.n_workers

    # -- workers ---------------------------------------------------------
    def worker_for(self, service: str) -> int:
        """Sticky worker index owning *service* (stable across batches)."""
        return route_service(service, self.n_workers)

    def _spawn(self, index: int, event: str = "spawns") -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        shard = (self._shard_paths[index], self.db.max_examples, self.db.durable)
        process = self._context.Process(
            target=self._worker_main,
            args=(child_conn, shard, self.config, index),
            name=f"sequence-rtg-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.telemetry[event] += 1
        worker = self._workers[index] = _Worker(index, process, parent_conn)
        return worker

    def _respawn(self, worker: _Worker) -> _Worker:
        """Retire a dead worker's handle and bring up its replacement."""
        worker.conn.close()
        worker.process.join(timeout=5.0)
        return self._spawn(worker.index, "respawns")

    def _send(self, index: int, *args) -> tuple:
        """Send worker *index* its next call; returns the request, which
        :meth:`_receive` re-sends if the worker dies before answering."""
        if self._closed:
            raise RuntimeError("engine is closed")
        self._seq[index] += 1
        request = (f"{self._epoch}:{self._seq[index]}", *args)
        worker = self._workers[index]
        if worker is None:
            worker = self._spawn(index)
        elif not worker.process.is_alive():
            worker = self._respawn(worker)
        try:
            worker.conn.send(request)
        except (BrokenPipeError, OSError):
            # died since the liveness check
            self._respawn(worker).conn.send(request)
        return request

    def _receive(self, index: int, request: tuple):
        """The value worker *index* answers *request* with; its metrics
        delta is merged into :attr:`metrics` on the way."""
        worker = self._workers[index]
        token = None
        while token != request[0]:
            # (a reply to an earlier request is one whose caller gave up
            # on an error between send and receive: skip it)
            try:
                reply = worker.conn.recv_bytes()
            except (EOFError, OSError):
                # died with the call in flight: the file holds the call
                # entirely or not at all, and the token tells which
                worker = self._respawn(worker)
                worker.conn.send(request)
                try:
                    reply = worker.conn.recv_bytes()
                except (EOFError, OSError) as exc:
                    raise RuntimeError(
                        f"worker {index} died twice on the same call; see "
                        "its traceback on stderr"
                    ) from exc
            token, value, delta = pickle.loads(reply)
        self.metrics.merge(delta)
        return value

    # -- analysis --------------------------------------------------------
    def analyze_by_service(
        self, records: list[LogRecord], now: datetime | None = None
    ) -> BatchResult:
        """Analyse one batch across the persistent pool."""
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
        so network batches skip the re-shard entirely.
        """
        if len(shards) != self.n_workers:
            raise ValueError(
                f"expected {self.n_workers} shards, got {len(shards)}"
            )
        result = BatchResult(n_records=sum(len(s) for s in shards))
        before = dict(self.telemetry)

        sent = [
            (
                index,
                self._send(
                    index,
                    [r.service for r in shard],
                    [r.message for r in shard],
                    now,
                ),
            )
            for index, shard in enumerate(shards)
            if shard
        ]
        for index, request in sent:
            part: BatchResult = self._receive(index, request)
            result.n_services += part.n_services
            result.n_matched += part.n_matched
            result.n_unmatched += part.n_unmatched
            result.n_partitions += part.n_partitions
            result.n_new_patterns += part.n_new_patterns
            result.n_below_threshold += part.n_below_threshold
            result.max_trie_nodes = max(result.max_trie_nodes, part.max_trie_nodes)
            result.new_patterns.extend(part.new_patterns)
            for key, value in part.cache.items():
                result.cache[key] = result.cache.get(key, 0) + value
            # summed across workers: total CPU seconds per stage, not
            # wall clock (workers overlap)
            for key, value in part.timings.items():
                result.timings[key] = result.timings.get(key, 0.0) + value

        self.telemetry["batches"] += 1
        result.pool = {
            "workers": len(sent),
            "spawns": self.telemetry["spawns"] - before["spawns"],
            "respawns": self.telemetry["respawns"] - before["respawns"],
        }
        fold_batch_result(self.metrics, result, db=self.db)
        return result

    # ------------------------------------------------------------------
    def process_stream(self, batches, now: datetime | None = None):
        """Run ``analyze_by_service`` for every batch; yield results.

        *batches* is any iterable of record lists — typically
        :meth:`repro.core.ingest.StreamIngester.batches_pipelined`, so
        ingest of batch *N+1* overlaps analysis of batch *N* while the
        workers overlap each other within every batch.
        """
        return drive_stream(self, batches, now=now)
