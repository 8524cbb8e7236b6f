"""The serving tier: asyncio front door over the warm mining engines.

``sequence-rtg serve --listen tcp://…,http://…`` runs one
:class:`ServeServer`.  Three layers, three threads of control:

* the **event loop** (the calling thread) accepts connections and runs
  the listener handlers (:mod:`repro.serve.listeners`): read a chunk,
  decode frames incrementally, JSON-parse each record and offer it to
  the shard router.  Nothing here ever blocks on mining;
* the **shard router** (:mod:`repro.serve.router`) holds one bounded
  FIFO per mining shard, keyed by the same ``crc32(service)`` hash the
  persistent pool routes with, and applies the configured overload
  policy at each queue's high-water mark;
* the **dispatcher thread** drains the globally-oldest ``batch_size``
  records per cycle (k-way merge on arrival order) and feeds them to
  the miner: per-shard lists straight into
  :meth:`~repro.core.parallel.PersistentParallelSequenceRTG.analyze_sharded`
  (worker processes overlap each other and the event loop), the
  single ordered list into a serial
  :class:`~repro.core.pipeline.SequenceRTG`, or record-by-record into a
  :class:`~repro.core.streaming.StreamDriver` in stream mode.

Because batch membership follows global arrival order and shard routing
is the pool's own hash, a single-connection network feed mines
**bit-identically** to the file-fed path over the same record stream —
the differential test in ``tests/serve/test_server.py`` asserts it.

Graceful drain (SIGTERM/SIGINT, or :meth:`ServeServer.request_drain`):
stop accepting, let live connections finish within a grace window,
flush every shard queue through the engine (stream mode closes its
driver, running the final maintenance flush), then return — the
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
from collections import deque
from dataclasses import dataclass, field
from functools import partial

from repro.core.ingest import parse_record
from repro.core.streaming import StreamDriver
from repro.serve.framing import MAX_FRAME_BYTES
from repro.serve.listeners import (
    ListenSpec,
    handle_http_connection,
    handle_stream_connection,
)
from repro.serve.router import OVERLOAD_POLICIES, ShardRouter

__all__ = ["ServeConfig", "ServeServer", "ServeStats"]


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
    #: per-frame payload bound for the listeners
    max_frame: int = MAX_FRAME_BYTES

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
    """Counters of one server's lifetime (updated in place)."""

    connections: int = 0
    frames: int = 0
    accepted: int = 0
    shed: int = 0
    malformed: int = 0
    protocol_errors: int = 0
    batches: int = 0
    records_mined: int = 0
    new_patterns: int = 0
    drained: bool = False
    #: recent ingest latencies (seconds, arrival → queue admission)
    latencies: deque = field(default_factory=lambda: deque(maxlen=65536))

    def latency_quantile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def p99(self) -> float:
        return self.latency_quantile(0.99)


class ServeServer:
    """Bind listeners, shard-route records, feed the mining engine.

    *miner* is a serial :class:`~repro.core.pipeline.SequenceRTG`, a
    :class:`~repro.core.parallel.PersistentParallelSequenceRTG` pool
    (shard count = its worker count) or a
    :class:`~repro.core.streaming.StreamDriver` for stream mode.

    Run :meth:`run` on an event loop (the CLI does, with signal
    handlers installed), or :meth:`start_in_background` /
    :meth:`shutdown` from tests and embedding code.
    """

    def __init__(self, miner, config: ServeConfig, clock=time.monotonic) -> None:
        self.miner = miner
        self.config = config
        self.clock = clock
        self.stats = ServeStats()
        if isinstance(miner, StreamDriver):
            self._mode = "stream"
            self.n_shards = 1
            rtg_config = miner.rtg.config
            registry = miner.rtg.metrics if rtg_config.enable_metrics else None
        elif hasattr(miner, "analyze_sharded"):
            self._mode = "pool"
            self.n_shards = miner.n_workers
            registry = miner.metrics if miner.config.enable_metrics else None
        else:
            self._mode = "serial"
            self.n_shards = 1
            registry = miner.metrics if miner.config.enable_metrics else None
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
        self._latency_hist = None
        self._lines_counter = None
        self._malformed_counter = None
        self._connections_counter = None
        if registry is not None:
            from repro.obs.observer import METRIC_HELP

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
        if self._connections_counter is not None:
            self._connections_counter.inc(listener=source)

    def protocol_error(self, source: str) -> None:
        self.stats.protocol_errors += 1

    async def submit(self, frame: bytes, source: str, arrived: float) -> str:
        """Decode one frame and route it; returns the admission outcome.

        ``"accepted"`` — queued (latency recorded); ``"malformed"`` —
        not a valid two-field record, counted and dropped;
        ``"shed"`` — refused by the shed policy.  Under the block
        policy this coroutine *waits* for queue space instead of
        returning, which stalls the calling reader — the explicit
        backpressure seam.
        """
        stats = self.stats
        stats.frames += 1
        if self._lines_counter is not None:
            self._lines_counter.inc(source=source)
        record = parse_record(frame.decode("utf-8", errors="replace"))
        if record is None:
            stats.malformed += 1
            if self._malformed_counter is not None:
                self._malformed_counter.inc(source=source)
            return "malformed"
        while True:
            outcome = self.router.offer(record)
            if outcome != "blocked":
                break
            if self._error is not None:
                return "shed"
            await asyncio.sleep(0.002)
        if outcome == "accepted":
            stats.accepted += 1
            latency = self.clock() - arrived
            stats.latencies.append(latency)
            if self._latency_hist is not None:
                self._latency_hist.observe(latency)
        else:
            stats.shed += 1
        return outcome

    # -- dispatcher thread -------------------------------------------------
    def _mine(self, shards: list[list]) -> None:
        if self._mode == "pool":
            result = self.miner.analyze_sharded(shards)
        else:
            result = self.miner.analyze_by_service(shards[0])
        self.stats.batches += 1
        self.stats.records_mined += result.n_records
        self.stats.new_patterns += result.n_new_patterns

    def _dispatch_loop(self) -> None:
        try:
            if self._mode == "stream":
                self._dispatch_stream()
            else:
                self._dispatch_batches()
        except BaseException as exc:  # surfaced by run()
            self._error = exc
            if self._loop is not None:
                try:
                    self._loop.call_soon_threadsafe(self._begin_drain)
                except RuntimeError:
                    pass

    def _dispatch_batches(self) -> None:
        batch_size = self.config.batch_size
        router = self.router
        while True:
            if self._drain_dispatch.is_set():
                while True:
                    shards, taken = router.take_batch(batch_size)
                    if not taken:
                        return
                    self._mine(shards)
            total = router.wait_for(batch_size, self.config.dispatch_timeout_s)
            if self._drain_dispatch.is_set():
                continue
            if total:
                shards, taken = router.take_batch(batch_size)
                if taken:
                    self._mine(shards)

    def _dispatch_stream(self) -> None:
        """Stream mode: feed the driver promptly, let it micro-batch."""
        driver = self.miner
        router = self.router
        chunk = max(1, driver.config.micro_batch_size)
        stats = self.stats
        try:
            while True:
                draining = self._drain_dispatch.is_set()
                if not draining:
                    router.wait_for(chunk, 0.05)
                shards, taken = router.take_batch(max(chunk, 4096))
                if taken:
                    before = driver.stats.n_new_patterns
                    for record in shards[0]:
                        driver.offer(record)
                    stats.batches += 1
                    stats.records_mined += taken
                    stats.new_patterns += driver.stats.n_new_patterns - before
                elif draining:
                    break
                driver.poll()
        finally:
            before = self.miner.stats.n_new_patterns
            self.miner.close()
            stats.new_patterns += self.miner.stats.n_new_patterns - before

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
            "mode": self._mode,
            "shards": self.n_shards,
            "high_water": self.high_water,
            "overload": self.config.overload,
            "connections": stats.connections,
            "frames": stats.frames,
            "accepted": stats.accepted,
            "shed": self.router.shed_total,
            "malformed": stats.malformed,
            "protocol_errors": stats.protocol_errors,
            "batches": stats.batches,
            "records_mined": stats.records_mined,
            "new_patterns": stats.new_patterns,
            "p99_ingest_latency_s": stats.p99(),
            "drained": stats.drained,
        }
