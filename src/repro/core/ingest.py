"""Data stream ingester.

"We added a listener for the command line that allows the data to be
piped in directly from the log management system without any message
pre-processing required and Sequence-RTG waits to execute until the
batch size is reached." (paper §III)

The ingester accepts an iterable of JSON lines (a file object, a pipe,
or any iterator of strings), validates the two-field schema, counts and
skips malformed items, and yields :class:`~repro.core.records.LogRecord`
batches of the configured size.  The final, possibly short, batch is
yielded on stream end.

Every feed shares one record decoder, :func:`parse_record` (the serve
tier's listeners too, through :func:`parse_records`).  It calls the C
JSON scanner directly and builds the record with
:func:`~repro.core.records.new_record`.  :meth:`StreamIngester.batches`
decodes ``islice`` slices of up to 512 lines, never more than the
current batch still needs, so a pipe is not read ahead of its consumer.

:meth:`StreamIngester.batches_pipelined` is the double-buffered variant:
a background reader thread parses and assembles batch *N+1* while the
caller is still analysing batch *N*, so JSON decoding overlaps analysis
instead of serialising with it.  Order is preserved (single reader,
FIFO queue) and closing the generator early stops the reader cleanly.
"""

from __future__ import annotations

import json
import logging
import queue
import threading
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice

from repro.core.records import LogRecord, new_record

__all__ = ["StreamIngester", "parse_record", "parse_records", "IngestStats"]

_log = logging.getLogger("repro.ingest")

#: queue marker for normal end of stream
_EOF = object()

#: lines decoded per step: few enough that the raw lines held at once
#: stay small next to the batch, enough to amortise the step
_DECODE_SLICE = 512

#: seconds :meth:`StreamIngester.batches_pipelined` waits for its reader
#: thread to exit when the generator closes; a reader still alive after
#: this is logged as a leak (and counted, when metrics are attached)
_JOIN_TIMEOUT_S = 5.0


#: the C scanner behind ``json.loads``, minus its Python wrapper
_scan_once = json.JSONDecoder().scan_once


def parse_record(line: str) -> LogRecord | None:
    """Parse one JSON stream item; return None when malformed.

    The schema is exactly two fields, ``service`` and ``message``, both
    strings.  Extra fields are tolerated (syslog-ng templates sometimes
    append metadata) but the two required ones must be present.

    Accepts exactly what ``json.loads(line.strip())`` accepts, and
    never raises: a line nested too deeply for the recursion limit, or
    holding an integer over the digit limit, is malformed too.
    """
    line = line.strip()
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    if end != len(line) or not isinstance(obj, dict):
        return None
    service = obj.get("service")
    message = obj.get("message")
    if not isinstance(service, str) or not isinstance(message, str) or not service:
        return None
    return new_record(service, message)


def parse_records(lines: Iterable[str]) -> list[LogRecord]:
    """The records of *lines* in order, malformed lines dropped.

    One pass of :func:`parse_record`; the malformed lines are the
    difference between the line count and ``len(result)``.
    """
    return list(filter(None, map(parse_record, lines)))


@dataclass(slots=True)
class IngestStats:
    """Counters accumulated while consuming the stream."""

    n_lines: int = 0
    n_records: int = 0
    n_malformed: int = 0
    n_batches: int = 0


@dataclass(slots=True)
class StreamIngester:
    """Batch JSON-lines input for the analysis pipeline.

    With a :class:`~repro.obs.metrics.MetricsRegistry` attached via
    *metrics*, the :class:`IngestStats` counters are also published as
    ``rtg_ingest_lines_total`` / ``rtg_ingest_malformed_total`` (flushed
    once per yielded batch, not per line, so the hot loop stays free of
    registry locking) — ingest health is scrapeable, not just visible on
    the dataclass after the fact.
    """

    batch_size: int = 100_000
    #: optional :class:`~repro.obs.metrics.MetricsRegistry`
    metrics: object | None = None
    stats: IngestStats = field(default_factory=IngestStats)
    _lines_counter: object | None = field(init=False, default=None, repr=False)
    _malformed_counter: object | None = field(init=False, default=None, repr=False)
    _leak_counter: object | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.metrics is not None:
            from repro.obs.observer import METRIC_HELP

            self._lines_counter = self.metrics.counter(
                "rtg_ingest_lines_total", METRIC_HELP["rtg_ingest_lines_total"]
            )
            self._malformed_counter = self.metrics.counter(
                "rtg_ingest_malformed_total",
                METRIC_HELP["rtg_ingest_malformed_total"],
            )
            self._leak_counter = self.metrics.counter(
                "rtg_ingest_reader_leaks_total",
                METRIC_HELP["rtg_ingest_reader_leaks_total"],
            )

    def _publish(self, lines: int, malformed: int) -> None:
        if self._lines_counter is not None and lines:
            self._lines_counter.inc(lines)
        if self._malformed_counter is not None and malformed:
            self._malformed_counter.inc(malformed)

    def batches(self, lines: Iterable[str]) -> Iterator[list[LogRecord]]:
        """Yield batches of parsed records from an iterable of JSON lines.

        Each step takes up to 512 of the lines the current batch still
        lacks (an ``islice`` of the source) and decodes them in one
        pass, so the source is never read past the line that completes
        a batch.
        """
        source = iter(lines)
        stats = self.stats
        size = self.batch_size
        batch: list[LogRecord] = []
        pending_lines = pending_malformed = 0
        try:
            while True:
                chunk: list[str] = []
                try:
                    chunk.extend(islice(source, min(size - len(batch), _DECODE_SLICE)))
                finally:
                    # lines read before a source error still count
                    records = parse_records(chunk)
                    n_malformed = len(chunk) - len(records)
                    stats.n_lines += len(chunk)
                    stats.n_malformed += n_malformed
                    stats.n_records += len(records)
                    pending_lines += len(chunk)
                    pending_malformed += n_malformed
                if not chunk:
                    break
                batch += records
                if len(batch) == size:
                    stats.n_batches += 1
                    self._publish(pending_lines, pending_malformed)
                    pending_lines = pending_malformed = 0
                    yield batch
                    batch = []
            if batch:
                stats.n_batches += 1
                yield batch
        finally:
            self._publish(pending_lines, pending_malformed)

    def batches_pipelined(
        self,
        lines: Iterable[str],
        prefetch: int = 2,
    ) -> Iterator[list[LogRecord]]:
        """Yield batches with parsing pipelined ahead of the consumer.

        A daemon reader thread runs :meth:`batches` and feeds a bounded
        queue of *prefetch* ready batches; while the caller analyses one
        batch, the reader is already JSON-decoding the next.  Batches
        arrive in exactly the order :meth:`batches` would produce them.
        Closing the generator early (or abandoning it) signals the
        reader to stop; batches already yielded are unaffected and the
        source iterable is not consumed further than the prefetch
        window.  An exception raised by the source is re-raised here.

        A consumer that dies mid-iteration must ``close()`` this
        generator (``drive_stream`` and the CLI do, in their
        ``finally``) for the cleanup to run immediately — a suspended
        generator's own ``finally`` otherwise waits for garbage
        collection.  Cleanup itself is robust either way: the stop flag
        is set and the queue drained *until the reader thread exits*, so
        a reader blocked on a full queue can never be leaked behind a
        single drain pass.  A reader stuck inside the *source* (a socket
        read, a blocked pipe) cannot be interrupted from here; after
        five seconds (``_JOIN_TIMEOUT_S``) the leak is logged and counted
        instead of silently abandoned.
        """
        if prefetch < 1:
            raise ValueError(f"prefetch must be >= 1, got {prefetch}")
        ready: queue.Queue = queue.Queue(maxsize=prefetch)
        stop = threading.Event()

        def offer(item) -> None:
            # a plain put() could block forever against a consumer that
            # went away; poll the stop flag while waiting for space
            while not stop.is_set():
                try:
                    ready.put(item, timeout=0.05)
                    return
                except queue.Full:
                    continue

        def read() -> None:
            try:
                for batch in self.batches(lines):
                    offer(batch)
                    if stop.is_set():
                        return
                offer(_EOF)
            except BaseException as exc:  # forwarded to the consumer
                offer(exc)

        reader = threading.Thread(
            target=read, name="ingest-pipeline", daemon=True
        )
        reader.start()
        try:
            while True:
                item = ready.get()
                if item is _EOF:
                    break
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            stop.set()
            # keep draining while the reader winds down: one drain pass
            # is not enough — the reader may complete a blocked put()
            # right after it and needs the stop-flag poll (≤50ms) to
            # notice it should exit
            deadline = time.monotonic() + _JOIN_TIMEOUT_S
            while reader.is_alive() and time.monotonic() < deadline:
                try:
                    ready.get_nowait()
                except queue.Empty:
                    pass
                reader.join(timeout=0.05)
            if reader.is_alive():
                _log.warning(
                    "pipelined ingest reader did not exit within %.1fs; "
                    "the daemon thread is leaked (source is blocking?)",
                    _JOIN_TIMEOUT_S,
                )
                if self._leak_counter is not None:
                    self._leak_counter.inc()
            # release anything still buffered so its memory frees now
            while True:
                try:
                    ready.get_nowait()
                except queue.Empty:
                    break
