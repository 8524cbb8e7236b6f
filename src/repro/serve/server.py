"""The serving tier: asyncio front door over the warm mining engines.

``sequence-rtg serve --listen tcp://…,http://…`` runs one
:class:`ServeServer`.  Three layers, three threads of control:

* the **event loop** (the calling thread) accepts connections and runs
  the listener handlers (:mod:`repro.serve.listeners`): read a chunk,
  decode its frames, and hand them to :meth:`ServeServer.submit` in
  slices of up to 512 — one JSON-decoding pass, one router admission
  and one update of each counter per slice.  Nothing here ever blocks
  on mining;
* the **shard router** (:mod:`repro.serve.router`) holds one bounded
  FIFO per mining shard, keyed by the same ``crc32(service)`` hash the
  persistent pool routes with, and applies the configured overload
  policy at each queue's high-water mark;
* the **dispatcher thread** runs one loop: it drains the globally-oldest
  records of each cycle (k-way merge on arrival order) and feeds them to
  the miner — ``batch_size`` windows as per-shard lists straight into
  :meth:`~repro.core.parallel.PersistentParallelSequenceRTG.analyze_sharded`
  (worker processes overlap each other and the event loop) or as the
  single ordered list into a serial
  :class:`~repro.core.pipeline.SequenceRTG`, or record-by-record into a
  :class:`~repro.core.streaming.StreamDriver`, which micro-batches them.

Because batch membership follows global arrival order and shard routing
is the pool's own hash, a single-connection network feed mines
**bit-identically** to the file-fed path over the same record stream —
the differential test in ``tests/serve/test_server.py`` asserts it.

Graceful drain (SIGTERM/SIGINT, or :meth:`ServeServer.request_drain`):
stop accepting, let live connections finish within a grace window,
flush every shard queue through the engine (a stream driver is closed,
running its final maintenance flush), then return — the
pattern database was committed per batch throughout, so the returning
server *is* the checkpoint.  Exit is clean: all accepted-and-queued
records are mined, shed counts are exact.
"""

from __future__ import annotations

import asyncio
import os
import signal
import stat
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from operator import methodcaller

from repro.core.ingest import parse_records
from repro.core.streaming import StreamDriver
from repro.obs.observer import METRIC_HELP
from repro.serve.listeners import (
    ListenSpec,
    handle_http_connection,
    handle_stream_connection,
)
from repro.serve.router import OVERLOAD_POLICIES, ShardRouter

__all__ = ["ServeConfig", "ServeServer", "ServeStats"]


#: a frame's text: invalid UTF-8 becomes U+FFFD, never an error
_utf8 = methodcaller("decode", "utf-8", "replace")


def _idle() -> None:
    """A batch miner's poll and close: it keeps no clock and no buffer."""


@dataclass(slots=True)
class ServeConfig:
    """Knobs of the network serving tier."""

    #: endpoints to bind (see :func:`repro.serve.listeners.parse_listen_specs`)
    listen: tuple[ListenSpec, ...]
    #: records per dispatch cycle — the mining batch size, same meaning
    #: as the file-fed path's ``--batch-size``
    batch_size: int = 100_000
    #: per-shard queue bound (records); 0 derives ``max(1024,
    #: 2 * batch_size / n_shards)`` so full cycles always fit
    high_water: int = 0
    #: what happens at the high-water mark: "block" (TCP pushback),
    #: "shed" (refuse newest, HTTP 429) or "drop_oldest"
    overload: str = "block"
    #: seconds a partial dispatch cycle waits for more records before
    #: mining what is queued (liveness under trickle traffic)
    dispatch_timeout_s: float = 1.0
    #: seconds live connections get to finish after drain starts before
    #: they are cancelled
    drain_grace_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.listen:
            raise ValueError("at least one listen endpoint is required")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.high_water < 0:
            raise ValueError(f"high_water must be >= 0, got {self.high_water}")
        if self.overload not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload must be one of {OVERLOAD_POLICIES}, got "
                f"{self.overload!r}"
            )
        if self.dispatch_timeout_s <= 0:
            raise ValueError(
                f"dispatch_timeout_s must be positive, got {self.dispatch_timeout_s}"
            )
        if self.drain_grace_s < 0:
            raise ValueError(
                f"drain_grace_s must be >= 0, got {self.drain_grace_s}"
            )


@dataclass(slots=True)
class ServeStats:
    """Counters of one server's lifetime (updated in place).

    ``accepted`` and ``shed`` are the shard router's own totals, so a
    ``drop_oldest`` eviction — which the router reports as an accepted
    offer — is counted as shed exactly once.
    """

    router: ShardRouter = field(repr=False)
    connections: int = 0
    frames: int = 0
    malformed: int = 0
    protocol_errors: int = 0
    batches: int = 0
    records_mined: int = 0
    new_patterns: int = 0
    drained: bool = False

    @property
    def accepted(self) -> int:
        """Records admitted into a shard queue."""
        return self.router.accepted_total

    @property
    def shed(self) -> int:
        """Records refused or evicted at a high-water mark."""
        return self.router.shed_total


class ServeServer:
    """Bind listeners, shard-route records, feed the mining engine.

    *miner* is a serial :class:`~repro.core.pipeline.SequenceRTG`, a
    :class:`~repro.core.parallel.PersistentParallelSequenceRTG` pool
    (shard count = its worker count) or a
    :class:`~repro.core.streaming.StreamDriver`.

    Run :meth:`run` on an event loop (the CLI does, with signal
    handlers installed), or :meth:`start_in_background` /
    :meth:`shutdown` from tests and embedding code.
    """

    def __init__(self, miner, config: ServeConfig, clock=time.monotonic) -> None:
        self.miner = miner
        self.config = config
        self.clock = clock
        # the one per-miner difference: what a dispatch cycle waits for
        # and takes, and how it hands the records over; *core* is the
        # miner that holds the configuration and the metrics registry
        if isinstance(miner, StreamDriver):
            # a driver micro-batches and times itself: wake for one
            # micro-batch or after 50 ms, hand over up to 4,096 records,
            # and let it poll its clocks every cycle
            core = miner.rtg
            chunk = miner.config.micro_batch_size
            self._wait = (chunk, 0.05)
            self._window = max(chunk, 4096)
            self._feed = self._offer
            self._poll = miner.poll
            self._close = self._close_driver
        else:
            core = miner
            self._wait = (config.batch_size, config.dispatch_timeout_s)
            self._window = config.batch_size
            self._feed = self._mine
            self._poll = self._close = _idle
        #: a pool mines one shard per worker, a serial miner one
        self.n_shards = getattr(core, "n_workers", 1)
        registry = core.metrics
        high_water = config.high_water or max(
            1024, (2 * config.batch_size) // self.n_shards
        )
        self.high_water = high_water
        self.router = ShardRouter(
            n_shards=self.n_shards,
            high_water=high_water,
            policy=config.overload,
            metrics=registry,
        )
        self.stats = ServeStats(self.router)
        self._latency_hist = registry.histogram(
            "rtg_serve_ingest_latency_seconds",
            METRIC_HELP["rtg_serve_ingest_latency_seconds"],
        )
        self._lines_counter = registry.counter(
            "rtg_ingest_lines_total", METRIC_HELP["rtg_ingest_lines_total"]
        )
        self._malformed_counter = registry.counter(
            "rtg_ingest_malformed_total",
            METRIC_HELP["rtg_ingest_malformed_total"],
        )
        self._connections_counter = registry.counter(
            "rtg_serve_connections_total",
            METRIC_HELP["rtg_serve_connections_total"],
        )
        #: resolved endpoints after binding (scheme, address) — ports are
        #: concrete even when a spec asked for port 0
        self.endpoints: list[tuple[str, str]] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_async: asyncio.Event | None = None
        self._drain_early = False
        self._drain_dispatch = threading.Event()
        self._started = threading.Event()
        self._active: set[asyncio.Task] = set()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._finished = False

    # -- ingress seam (called from the listener handlers) -----------------
    @property
    def closing(self) -> bool:
        """Whether drain has begun (health endpoint reports it)."""
        return self._drain_async is not None and self._drain_async.is_set()

    def connection_opened(self, source: str) -> None:
        self.stats.connections += 1
        self._connections_counter.inc(listener=source)

    def protocol_error(self, source: str) -> None:
        self.stats.protocol_errors += 1

    async def submit(
        self, frames: list[bytes], source: str, arrived: float
    ) -> tuple[int, int, int]:
        """Decode one slice of frames and route it; returns
        ``(accepted, shed, malformed)``.

        Admission is per chunk: one decoding pass
        (:func:`~repro.core.ingest.parse_records`), one update of each
        labelled counter, one :meth:`ShardRouter.offer_many` and one
        latency observation weighted by the records accepted.  Each
        record still has its own outcome: queued (accepted), not a valid
        two-field record (malformed, counted and dropped) or refused by
        the shed policy.  Under the block policy admission stops at the
        first record whose queue is full, and this coroutine *waits*
        (2 ms polls) to offer the rest — which stalls the calling
        reader: the explicit backpressure seam.  Records it can no
        longer wait for (the dispatcher died, or the wait was
        cancelled) are refused and counted as shed.
        """
        stats = self.stats
        router = self.router
        stats.frames += len(frames)
        self._lines_counter.inc(len(frames), source=source)
        records = parse_records(map(_utf8, frames))
        malformed = len(frames) - len(records)
        if malformed:
            stats.malformed += malformed
            self._malformed_counter.inc(malformed, source=source)
        accepted = shed = 0
        try:
            while records:
                taken, refused = router.offer_many(records)
                accepted += taken - refused
                shed += refused
                if taken == len(records):
                    break
                records = records[taken:]
                if self._error is not None:
                    shed += router.refuse(records)
                    break
                await asyncio.sleep(0.002)
        except asyncio.CancelledError:  # raised only by the sleep
            router.refuse(records)
            raise
        finally:
            if accepted:
                self._latency_hist.observe(self.clock() - arrived, n=accepted)
        return accepted, shed, malformed

    # -- dispatcher thread -------------------------------------------------
    def _mine(self, shards: list[list]) -> None:
        """Feed a batch miner one window: a pool its shards, a serial
        miner its one list."""
        if self.n_shards == 1:
            result = self.miner.analyze_by_service(shards[0])
        else:
            result = self.miner.analyze_sharded(shards)
        self.stats.new_patterns += result.n_new_patterns

    def _offer(self, shards: list[list]) -> None:
        """Feed the stream driver one window, record by record."""
        self._driven(self.miner.feed, shards[0])

    def _close_driver(self) -> None:
        self._driven(self.miner.close)

    def _driven(self, call, *args) -> None:
        """Run a driver call, crediting the patterns its flushes mined."""
        driver_stats = self.miner.stats
        before = driver_stats.n_new_patterns
        call(*args)
        self.stats.new_patterns += driver_stats.n_new_patterns - before

    def _dispatch_loop(self) -> None:
        """Take windows off the router until drain empties it, feeding
        each to the miner; then close the miner."""
        router = self.router
        stats = self.stats
        try:
            try:
                while True:
                    draining = self._drain_dispatch.is_set()
                    if not draining:
                        router.wait_for(*self._wait)
                    shards, taken = router.take_batch(self._window)
                    if taken:
                        self._feed(shards)
                        stats.batches += 1
                        stats.records_mined += taken
                    elif draining:
                        break
                    self._poll()
            finally:
                self._close()
        except BaseException as exc:  # surfaced by run()
            self._error = exc
            if self._loop is not None:
                try:
                    self._loop.call_soon_threadsafe(self._begin_drain)
                except RuntimeError:
                    pass

    # -- lifecycle ---------------------------------------------------------
    def request_drain(self) -> None:
        """Begin graceful drain (signal-handler and cross-thread safe)."""
        loop = self._loop
        if loop is None:
            self._drain_early = True
            return
        try:
            loop.call_soon_threadsafe(self._begin_drain)
        except RuntimeError:  # loop already closed
            pass

    def _begin_drain(self) -> None:
        if self._drain_async is not None:
            self._drain_async.set()

    async def _track(self, handler, reader, writer) -> None:
        task = asyncio.current_task()
        self._active.add(task)
        try:
            await handler(reader, writer)
        finally:
            self._active.discard(task)

    async def run(
        self, install_signals: bool = False, ready=None
    ) -> ServeStats:
        """Bind, serve until drain is requested, flush, return stats.

        *ready*, when given, is called once with the resolved endpoint
        list right after every listener is bound (the CLI prints them —
        with port 0 the kernel's choice is only known here).
        """
        if self._finished:
            raise RuntimeError("ServeServer instances are single-use")
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._drain_async = asyncio.Event()
        if self._drain_early:
            self._drain_async.set()

        servers: list[asyncio.AbstractServer] = []
        unix_paths: list[str] = []
        handled_signals: list[signal.Signals] = []
        dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        try:
            for spec in self.config.listen:
                if spec.scheme == "unix":
                    self._unlink_stale_socket(spec.path)
                    server = await asyncio.start_unix_server(
                        partial(
                            self._track,
                            partial(handle_stream_connection, self, source="unix"),
                        ),
                        path=spec.path,
                    )
                    unix_paths.append(spec.path)
                    self.endpoints.append(("unix", spec.path))
                else:
                    if spec.scheme == "http":
                        handler = partial(handle_http_connection, self)
                    else:
                        handler = partial(
                            handle_stream_connection, self, source="tcp"
                        )
                    server = await asyncio.start_server(
                        partial(self._track, handler), spec.host, spec.port
                    )
                    host, port = server.sockets[0].getsockname()[:2]
                    self.endpoints.append((spec.scheme, f"{host}:{port}"))
                servers.append(server)

            if install_signals:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(signum, self.request_drain)
                        handled_signals.append(signum)
                    except (NotImplementedError, RuntimeError):
                        break

            if ready is not None:
                ready(list(self.endpoints))
            dispatcher.start()
            self._started.set()
            await self._drain_async.wait()

            # 1. stop accepting
            for server in servers:
                server.close()
            for server in servers:
                await server.wait_closed()
            # 2. let live connections finish (EOF) within the grace window
            deadline = self.clock() + self.config.drain_grace_s
            while self._active and self.clock() < deadline:
                await asyncio.sleep(0.02)
            for task in list(self._active):
                task.cancel()
            if self._active:
                await asyncio.gather(*self._active, return_exceptions=True)
            # 3. flush every shard queue through the engine
            self._drain_dispatch.set()
            self.router.notify()
            await loop.run_in_executor(None, dispatcher.join)
        finally:
            self._finished = True
            self._started.set()
            for signum in handled_signals:
                loop.remove_signal_handler(signum)
            for server in servers:
                server.close()
            if dispatcher.is_alive():  # bind failure before start(); drain it
                self._drain_dispatch.set()
                self.router.notify()
            for path in unix_paths:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        if self._error is not None:
            raise self._error
        self.stats.drained = True
        return self.stats

    @staticmethod
    def _unlink_stale_socket(path: str) -> None:
        try:
            mode = os.stat(path).st_mode
        except OSError:
            return
        if stat.S_ISSOCK(mode):
            os.unlink(path)

    # -- embedding helpers -------------------------------------------------
    def start_in_background(self, timeout: float = 10.0) -> list[tuple[str, str]]:
        """Run the server on a private thread; return resolved endpoints."""
        if self._thread is not None:
            raise RuntimeError("server already started")

        def runner() -> None:
            try:
                asyncio.run(self.run(install_signals=False))
            except BaseException as exc:
                if self._error is None:
                    self._error = exc
                self._started.set()

        self._thread = threading.Thread(
            target=runner, name="serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server failed to start in time")
        if self._error is not None:
            raise self._error
        return list(self.endpoints)

    def shutdown(self, timeout: float = 60.0) -> ServeStats:
        """Drain a background server and return its final stats."""
        if self._thread is None:
            raise RuntimeError("server was not started in the background")
        self.request_drain()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server failed to drain in time")
        if self._error is not None:
            raise self._error
        return self.stats

    def summary(self) -> dict:
        """One JSON-ready dict of the server's lifetime counters."""
        stats = self.stats
        return {
            "endpoints": [f"{scheme}://{addr}" for scheme, addr in self.endpoints],
            "shards": self.n_shards,
            "high_water": self.high_water,
            "overload": self.config.overload,
            "connections": stats.connections,
            "frames": stats.frames,
            "accepted": stats.accepted,
            "shed": stats.shed,
            "malformed": stats.malformed,
            "protocol_errors": stats.protocol_errors,
            "batches": stats.batches,
            "records_mined": stats.records_mined,
            "new_patterns": stats.new_patterns,
            # upper bound of the histogram bucket holding the p99
            "p99_ingest_latency_s": self._latency_hist.quantile(0.99),
            "drained": stats.drained,
        }
