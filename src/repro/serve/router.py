"""Consistent-hash shard router with bounded queues and backpressure.

The seam between the asyncio listener tier (producer: the event-loop
thread) and the mining dispatcher (consumer: one background thread that
feeds the engine).  Records are routed onto one of *n_shards* FIFO
queues by the **same** ``crc32(service) % n`` hash the persistent
worker pool uses for sticky routing
(:func:`repro.core.patterndb.route_service`), so shard *i*'s queue holds
exactly the records the file-fed path would have dispatched to worker
*i* — network serving changes where records wait, never where they
mine.

Every queue is bounded by a per-shard **high-water mark**; what happens
at the mark is the configurable overload policy:

* ``"block"`` — the producer is told to wait (:meth:`ShardRouter.offer_many`
  stops at the first record whose queue is full and reports how far it
  got).  The asyncio handler stops reading its socket until space
  frees, which propagates to the client as TCP flow control — nothing
  is lost, clients slow down.
* ``"shed"`` — the incoming record is refused and counted; the HTTP
  listener surfaces this as a 429.  Newest data is sacrificed, queue
  contents (oldest first) survive.
* ``"drop_oldest"`` — the shard's oldest *queued* record is evicted to
  make room.  Freshest data survives; the eviction is counted as shed.

Admission is per chunk: the listeners hand the router one decoded slice
of records at a time (:meth:`ShardRouter.offer_many`), which it admits
under one lock acquisition with one counter update and one gauge set
per touched shard and one wake-up of the dispatcher.  The outcome of
every record is the one a sequential per-record offer would have had.

Each enqueued record carries a global arrival sequence number, assigned
under the router lock.  :meth:`ShardRouter.take_batch` drains the *B*
globally-oldest records as per-shard lists via a k-way merge on those
sequence numbers — so consecutive ``take_batch(B)`` calls reproduce
exactly the shard splits ``shard_records(stream[k*B:(k+1)*B])`` would
produce on the same arrival order, which is what keeps the network-fed
pool bit-identical to the file-fed one.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from itertools import repeat

from repro.core.patterndb import route_service
from repro.core.records import LogRecord

__all__ = ["ShardRouter", "OVERLOAD_POLICIES"]

#: Recognised overload policies.
OVERLOAD_POLICIES = ("block", "shed", "drop_oldest")


class ShardRouter:
    """Route records onto bounded per-shard queues; drain in batches."""

    def __init__(
        self,
        n_shards: int,
        high_water: int,
        policy: str = "block",
        metrics=None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        if high_water <= 0:
            raise ValueError(f"high_water must be positive, got {high_water}")
        if policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"policy must be one of {OVERLOAD_POLICIES}, got {policy!r}"
            )
        self.n_shards = n_shards
        self.high_water = high_water
        self.policy = policy
        #: (seq, record) FIFOs, seq strictly increasing within each
        self._shards: list[deque] = [deque() for _ in range(n_shards)]
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._seq = 0
        self._total = 0
        self._interrupted = False
        self.accepted_total = 0
        self.shed_total = 0
        self._depth_gauge = None
        self._accepted_counter = None
        self._shed_counter = None
        if metrics is not None:
            from repro.obs.observer import METRIC_HELP

            self._accepted_counter = metrics.counter(
                "rtg_serve_accepted_total",
                METRIC_HELP["rtg_serve_accepted_total"],
            )
            self._shed_counter = metrics.counter(
                "rtg_serve_shed_total", METRIC_HELP["rtg_serve_shed_total"]
            )
            self._depth_gauge = metrics.gauge(
                "rtg_serve_queue_depth", METRIC_HELP["rtg_serve_queue_depth"]
            )

    # -- producer side (event-loop thread) --------------------------------
    def offer(self, record: LogRecord) -> str:
        """Route one record; returns ``"accepted"``, ``"shed"`` or
        ``"blocked"``.

        ``"blocked"`` (block policy, queue at the high-water mark) means
        nothing was enqueued — the caller must wait and retry.  A
        one-record :meth:`offer_many`.
        """
        taken, refused = self.offer_many((record,))
        if not taken:
            return "blocked"
        return "shed" if refused else "accepted"

    def offer_many(self, records) -> tuple[int, int]:
        """Route a slice of records, in order, under one lock.

        Returns ``(taken, refused)``: ``records[:taken]`` were dealt
        with — each queued, or (*refused* of them) refused by the shed
        policy — and ``records[taken:]`` were not touched.  *taken* is
        short only under the block policy: it stops at the first record
        whose queue is at the high-water mark, and the caller waits and
        offers the rest again.  ``drop_oldest`` evictions count in
        :attr:`shed_total`, not in *refused*: the incoming record was
        admitted.
        """
        n_shards = self.n_shards
        routes = (
            [route_service(record.service, n_shards) for record in records]
            if n_shards > 1
            else repeat(0)
        )
        shards = self._shards
        high_water = self.high_water
        policy = self.policy
        admitted = [0] * n_shards
        dropped = [0] * n_shards
        taken = len(records)
        with self._ready:
            seq = base = self._seq
            for shard, record in zip(routes, records):
                queue = shards[shard]
                if len(queue) >= high_water:
                    if policy == "block":  # every earlier record was queued
                        taken = seq - base
                        break
                    dropped[shard] += 1
                    if policy == "shed":
                        continue
                    # drop_oldest: evict the shard's stalest queued record
                    queue.popleft()
                queue.append((seq, record))
                seq += 1
                admitted[shard] += 1
            accepted = seq - base
            shed = sum(dropped)
            self._seq = seq
            self._total += accepted - (shed if policy == "drop_oldest" else 0)
            self.accepted_total += accepted
            self.shed_total += shed
            self._publish(admitted, dropped)
            if accepted:
                self._ready.notify()
        return taken, taken - accepted

    def refuse(self, records) -> int:
        """Count *records* as shed without offering them; returns how many.

        For a producer that cannot wait for space any longer (the
        dispatcher died, or the connection was cancelled mid-wait): the
        records it read are refused, never silently dropped, so
        ``frames = accepted + shed + malformed`` holds.  They are counted
        under the router's policy label.
        """
        n_shards = self.n_shards
        dropped = [0] * n_shards
        for record in records:
            dropped[route_service(record.service, n_shards)] += 1
        with self._lock:
            self.shed_total += len(records)
            self._publish([0] * n_shards, dropped)
        return len(records)

    def _publish(self, admitted: list[int], dropped: list[int]) -> None:
        """One counter update and one gauge set per touched shard (held
        under the router lock, so the gauge is the depth it reports)."""
        if self._accepted_counter is None:
            return
        for shard, (n_admitted, n_dropped) in enumerate(zip(admitted, dropped)):
            if n_admitted:
                self._accepted_counter.inc(n_admitted, shard=str(shard))
                self._depth_gauge.set(len(self._shards[shard]), shard=str(shard))
            if n_dropped:
                self._shed_counter.inc(n_dropped, shard=str(shard), policy=self.policy)

    def depth(self, shard: int) -> int:
        """Current queue depth of one shard."""
        with self._lock:
            return len(self._shards[shard])

    @property
    def total_queued(self) -> int:
        with self._lock:
            return self._total

    # -- consumer side (dispatcher thread) ---------------------------------
    def wait_for(self, count: int, timeout: float) -> int:
        """Block until *count* records are queued, *timeout* elapses, or
        :meth:`notify` interrupts the wait.

        Returns the total queued at wake-up (possibly 0).  The producer
        notifies on every enqueue, so a full batch never waits out the
        timeout; a drain signal returns immediately instead of letting
        the dispatcher sleep out its deadline.
        """
        deadline = time.monotonic() + timeout
        with self._ready:
            while self._total < count and not self._interrupted:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._ready.wait(remaining)
            self._interrupted = False
            return self._total

    def notify(self) -> None:
        """Interrupt a consumer blocked in :meth:`wait_for` (drain)."""
        with self._ready:
            self._interrupted = True
            self._ready.notify_all()

    def take_batch(self, max_records: int) -> tuple[list[list[LogRecord]], int]:
        """Drain the *max_records* globally-oldest records, per shard.

        Returns ``(shards, n)`` where ``shards[i]`` is shard *i*'s slice
        of the batch in arrival order (possibly empty) and *n* the total
        records taken.  Selection is a k-way merge on arrival sequence
        numbers, so batch membership matches the file-fed path's
        ``records[k*B:(k+1)*B]`` windows exactly.
        """
        out: list[list[LogRecord]] = [[] for _ in range(self.n_shards)]
        taken = 0
        with self._ready:
            heads = [
                (queue[0][0], index)
                for index, queue in enumerate(self._shards)
                if queue
            ]
            heapq.heapify(heads)
            while heads and taken < max_records:
                _, index = heapq.heappop(heads)
                queue = self._shards[index]
                _, record = queue.popleft()
                out[index].append(record)
                taken += 1
                if queue:
                    heapq.heappush(heads, (queue[0][0], index))
            self._total -= taken
            if self._depth_gauge is not None and taken:
                for index, shard_out in enumerate(out):
                    if shard_out:
                        self._depth_gauge.set(
                            len(self._shards[index]), shard=str(index)
                        )
        return out, taken
