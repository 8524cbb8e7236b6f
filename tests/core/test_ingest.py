"""Stream ingester: JSON-lines parsing, batching, malformed input."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ingest import StreamIngester, parse_record
from repro.core.records import LogRecord


class TestParseRecord:
    def test_valid_record(self):
        rec = parse_record('{"service": "sshd", "message": "hello world"}')
        assert rec == LogRecord("sshd", "hello world")

    def test_extra_fields_tolerated(self):
        rec = parse_record('{"service": "s", "message": "m", "host": "h"}')
        assert rec is not None

    @pytest.mark.parametrize(
        "line",
        [
            "",
            "   ",
            "not json",
            "[1, 2]",
            '"just a string"',
            '{"service": "s"}',  # missing message
            '{"message": "m"}',  # missing service
            '{"service": 5, "message": "m"}',  # wrong type
            '{"service": "", "message": "m"}',  # empty service
            '{"service": "s", "message": 7}',
        ],
    )
    def test_malformed(self, line):
        assert parse_record(line) is None

    def test_message_may_be_empty_string(self):
        assert parse_record('{"service": "s", "message": ""}') is not None

    @given(st.text(max_size=80))
    def test_never_raises(self, line):
        parse_record(line)  # must not throw on arbitrary input


def lines(n: int, service="svc"):
    return [json.dumps({"service": service, "message": f"msg {i}"}) for i in range(n)]


class TestBatching:
    def test_exact_batches(self):
        ingester = StreamIngester(batch_size=10)
        batches = list(ingester.batches(lines(30)))
        assert [len(b) for b in batches] == [10, 10, 10]
        assert ingester.stats.n_batches == 3

    def test_partial_final_batch(self):
        ingester = StreamIngester(batch_size=10)
        batches = list(ingester.batches(lines(25)))
        assert [len(b) for b in batches] == [10, 10, 5]

    def test_malformed_lines_skipped_and_counted(self):
        stream = lines(5) + ["garbage", "{bad json"] + lines(5)
        ingester = StreamIngester(batch_size=100)
        batches = list(ingester.batches(stream))
        assert len(batches) == 1 and len(batches[0]) == 10
        assert ingester.stats.n_malformed == 2
        assert ingester.stats.n_lines == 12
        assert ingester.stats.n_records == 10

    def test_empty_stream(self):
        ingester = StreamIngester(batch_size=10)
        assert list(ingester.batches([])) == []
        assert ingester.stats.n_batches == 0

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            StreamIngester(batch_size=0)

    def test_lazy_consumption(self):
        """The ingester must not drain the stream ahead of the consumer
        (production pipes are infinite)."""
        consumed = []

        def stream():
            for i in range(100):
                consumed.append(i)
                yield json.dumps({"service": "s", "message": str(i)})

        ingester = StreamIngester(batch_size=5)
        gen = ingester.batches(stream())
        next(gen)
        assert len(consumed) == 5


class TestPipelinedBatching:
    def test_same_batches_same_order_as_plain(self):
        plain = list(StreamIngester(batch_size=10).batches(lines(95)))
        piped = list(StreamIngester(batch_size=10).batches_pipelined(lines(95)))
        assert piped == plain
        assert [len(b) for b in piped] == [10] * 9 + [5]

    def test_stats_complete_after_consumption(self):
        ingester = StreamIngester(batch_size=10)
        stream = lines(20) + ["garbage"] + lines(4)
        n = sum(len(b) for b in ingester.batches_pipelined(stream))
        assert n == 24
        assert ingester.stats.n_records == 24
        assert ingester.stats.n_malformed == 1
        assert ingester.stats.n_batches == 3

    def test_early_close_stops_reader_without_loss(self):
        """Closing the generator early must neither lose nor reorder the
        batches already yielded, and must not keep draining the source
        beyond the prefetch window (production pipes are infinite)."""
        consumed = []

        def stream():
            for i in range(1000):
                consumed.append(i)
                yield json.dumps({"service": "s", "message": f"msg {i}"})

        ingester = StreamIngester(batch_size=10)
        gen = ingester.batches_pipelined(stream(), prefetch=2)
        first = next(gen)
        second = next(gen)
        gen.close()  # must return promptly, not hang on the reader
        assert [r.message for r in first] == [f"msg {i}" for i in range(10)]
        assert [r.message for r in second] == [f"msg {i}" for i in range(10, 20)]
        # 2 yielded + at most the prefetch window + one in-flight batch
        assert len(consumed) <= 10 * (2 + 2 + 1) + 1

    def test_source_exception_propagates(self):
        def exploding():
            yield from lines(15)
            raise OSError("pipe broke")

        ingester = StreamIngester(batch_size=10)
        gen = ingester.batches_pipelined(exploding())
        assert len(next(gen)) == 10
        with pytest.raises(OSError, match="pipe broke"):
            list(gen)

    def test_invalid_prefetch(self):
        ingester = StreamIngester(batch_size=10)
        with pytest.raises(ValueError):
            next(ingester.batches_pipelined(lines(5), prefetch=0))

    def test_prefetch_runs_ahead_of_consumer(self):
        """Double buffering: while the consumer sits on batch N, the
        reader should already have parsed batch N+1 into the queue."""
        import time

        consumed = []

        def stream():
            for i in range(60):
                consumed.append(i)
                yield json.dumps({"service": "s", "message": f"msg {i}"})

        ingester = StreamIngester(batch_size=10)
        gen = ingester.batches_pipelined(stream(), prefetch=2)
        next(gen)
        deadline = time.monotonic() + 2.0
        while len(consumed) < 30 and time.monotonic() < deadline:
            time.sleep(0.01)
        # without touching the generator again, the reader filled the
        # prefetch window (2 queued batches beyond the one yielded)
        assert len(consumed) >= 30
        gen.close()

    def test_consumer_exception_close_joins_reader(self):
        """A consumer that dies mid-iteration closes the generator; the
        cleanup must unblock a reader stuck on the full prefetch queue
        and join it, not leak it behind a single drain pass."""
        import threading
        import time

        started = threading.Event()

        def endless():
            i = 0
            while True:
                started.set()
                yield json.dumps({"service": "s", "message": f"msg {i}"})
                i += 1

        ingester = StreamIngester(batch_size=5)
        gen = ingester.batches_pipelined(endless(), prefetch=1)

        def consume():
            for _ in gen:
                raise OSError("consumer died")

        with pytest.raises(OSError, match="consumer died"):
            try:
                consume()
            finally:
                gen.close()
        started.wait(timeout=2.0)
        # the reader thread wound down instead of spinning on the queue
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            readers = [
                t for t in threading.enumerate()
                if t.name == "ingest-pipeline" and t.is_alive()
            ]
            if not readers:
                break
            time.sleep(0.01)
        assert not readers

    def test_abandoned_generator_cleanup_on_gc(self):
        """Even without an explicit close(), garbage collection runs the
        generator's finally and the reader exits."""
        import gc
        import threading
        import time

        ingester = StreamIngester(batch_size=5)
        gen = ingester.batches_pipelined(lines(100), prefetch=1)
        next(gen)
        del gen
        gc.collect()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            readers = [
                t for t in threading.enumerate()
                if t.name == "ingest-pipeline" and t.is_alive()
            ]
            if not readers:
                break
            time.sleep(0.01)
        assert not readers


class TestIngestMetrics:
    def registry(self):
        from repro.obs.metrics import MetricsRegistry

        return MetricsRegistry()

    def test_counters_published_per_batch(self):
        registry = self.registry()
        ingester = StreamIngester(batch_size=10, metrics=registry)
        stream = lines(15) + ["garbage", "{broken"] + lines(5)
        list(ingester.batches(stream))
        assert registry.counter("rtg_ingest_lines_total").value() == 22
        assert registry.counter("rtg_ingest_malformed_total").value() == 2

    def test_counters_match_stats_through_pipelined_path(self):
        registry = self.registry()
        ingester = StreamIngester(batch_size=10, metrics=registry)
        stream = lines(20) + ["not json"] + lines(3)
        list(ingester.batches_pipelined(stream))
        assert (
            registry.counter("rtg_ingest_lines_total").value()
            == ingester.stats.n_lines
            == 24
        )
        assert registry.counter("rtg_ingest_malformed_total").value() == 1

    def test_no_metrics_is_the_default(self):
        ingester = StreamIngester(batch_size=10)
        list(ingester.batches(lines(5)))  # must not touch a registry


class TestReaderJoinTimeout:
    def test_blocked_source_leak_is_logged_and_counted(self, caplog, monkeypatch):
        """A reader stuck inside the source cannot be joined; after
        the join timeout the leak is reported instead of hanging close()."""
        import logging
        import threading
        import time

        from repro.core import ingest
        from repro.obs.metrics import MetricsRegistry

        # the 5 s production wait, shortened so the test stays quick
        monkeypatch.setattr(ingest, "_JOIN_TIMEOUT_S", 0.3)

        registry = MetricsRegistry()
        forever = threading.Event()
        entered = threading.Event()

        def blocking_source():
            yield from lines(10)
            entered.set()
            forever.wait()  # a socket read that never returns

        ingester = StreamIngester(batch_size=5, metrics=registry)
        gen = ingester.batches_pipelined(blocking_source(), prefetch=1)
        assert len(next(gen)) == 5
        # wait until the reader is actually stuck inside the source —
        # closing earlier lets it notice the stop flag and exit cleanly
        assert entered.wait(timeout=5.0)
        start = time.monotonic()
        with caplog.at_level(logging.WARNING, logger="repro.ingest"):
            gen.close()
        elapsed = time.monotonic() - start
        assert elapsed < 5.0  # bounded by the join timeout, not forever
        assert any("did not exit" in r.message for r in caplog.records)
        assert (
            registry.counter("rtg_ingest_reader_leaks_total").value() == 1
        )
        forever.set()  # release the leaked daemon thread

    def test_fast_source_does_not_warn(self, caplog):
        import logging

        ingester = StreamIngester(batch_size=10)
        with caplog.at_level(logging.WARNING, logger="repro.ingest"):
            list(ingester.batches_pipelined(lines(25)))
        assert not caplog.records


class TestDriveStreamCleanup:
    def test_closing_the_driver_closes_the_source(self):
        """drive_stream propagates close() to the batches generator, so
        the pipelined ingester's reader joins when the consumer dies."""
        from repro.core.patterndb import PatternDB
        from repro.core.pipeline import SequenceRTG

        closed = []

        def source():
            try:
                while True:
                    yield [LogRecord("svc", "ping ok")]
            finally:
                closed.append(True)

        rtg = SequenceRTG(db=PatternDB())
        results = rtg.process_stream(source())
        next(results)
        results.close()
        assert closed == [True]


# ----------------------------------------------------------------------
# The shared decoder and the bulk ingester against their originals
# ----------------------------------------------------------------------

def _loads_parse_record(line: str):
    """``parse_record`` as it was before it called the C scanner directly:
    the oracle of :class:`TestParseRecordEqualsJsonLoads`."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict):
        return None
    service = obj.get("service")
    message = obj.get("message")
    if not isinstance(service, str) or not isinstance(message, str) or not service:
        return None
    return LogRecord(service=service, message=message)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_objects = st.dictionaries(
    st.sampled_from(["service", "message", "host", "level", "Service", ""]),
    st.text(max_size=20) | _json_values,
    max_size=4,
)
_padding = st.text(alphabet=" \t\r\n\x0b\x0c\x1c\x85\xa0 \u3000", max_size=3)


@st.composite
def _json_lines(draw):
    """JSON-ish lines: valid objects and values, re-spaced and escaped
    variously, behind optional BOMs and padding, with optional trailing
    data."""
    value = draw(_objects | _json_values)
    text = json.dumps(
        value,
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " :\t")])),
    )
    prefix = draw(st.sampled_from(["", "", "\ufeff", "\ufeff ", " \ufeff"]))
    trailer = draw(st.sampled_from(["", "", " x", "{}", ",", " 1", "\x00", "]"]))
    return draw(_padding) + prefix + text + trailer + draw(_padding)


class TestParseRecordEqualsJsonLoads:
    @given(st.text(max_size=120))
    @settings(max_examples=300)
    def test_arbitrary_text(self, line):
        assert parse_record(line) == _loads_parse_record(line)

    @given(_json_lines())
    @settings(max_examples=400)
    def test_json_shaped_lines(self, line):
        expected = _loads_parse_record(line)
        record = parse_record(line)
        assert record == expected
        assert type(record) is type(expected)

    @pytest.mark.parametrize(
        "line",
        [
            '{"service": "s", "message": "m"}',
            '\ufeff{"service": "s", "message": "m"}',  # BOM: malformed
            ' \t{"service": "s", "message": "m"}\r\n',
            '\xa0{"service": "s", "message": "m"} ',  # str.strip space
            '{"service": "s\\u00e9\\n", "message": "tab\\there \\"q\\" \\ud83d\\ude00"}',
            '{"service": "s", "message": "\\ud800"}',  # lone surrogate
            '{"service": "s", "message": "m"} {"service": "t", "message": "n"}',
            '{"service": "s", "message": "m"}x',
            '{"service": "s", "service": "t", "message": "m"}',  # last key wins
            '{"service": "", "message": "m"}',
            '{"message": "m", "extra": [1, {"a": null}]}',
            '["service", "message"]',
            '"{\\"service\\": \\"s\\"}"',
            "NaN",
            '{"service": "s", "message": "m", "n": NaN, "i": -Infinity}',
            '{"service": "s", "message": "m"',
        ],
    )
    def test_edge_cases(self, line):
        assert parse_record(line) == _loads_parse_record(line)

    def test_result_is_an_ordinary_record(self):
        import pickle

        record = parse_record('{"service": "sshd", "message": "hello"}')
        twin = LogRecord("sshd", "hello")
        assert type(record) is LogRecord
        assert record == twin and hash(record) == hash(twin)
        assert repr(record) == repr(twin)
        assert pickle.loads(pickle.dumps(record)) == twin
        with pytest.raises(AttributeError):
            record.service = "other"  # still frozen

    def test_deeply_nested_line_is_malformed_not_fatal(self):
        assert parse_record("[" * 100_000) is None
        assert parse_record('{"a": ' * 50_000) is None
        # the integer digit limit raises ValueError inside the scanner
        assert parse_record('{"service": "s", "message": "m", "n": ' + "1" * 5000 + "}") is None


class _LineByLineIngester(StreamIngester):
    """``StreamIngester.batches`` as it was before it decoded ``islice``
    slices: the oracle of :class:`TestBatchesEqualLineByLine`."""

    def batches(self, lines):
        batch = []
        pending_lines = pending_malformed = 0
        try:
            for line in lines:
                self.stats.n_lines += 1
                pending_lines += 1
                record = _loads_parse_record(line)
                if record is None:
                    self.stats.n_malformed += 1
                    pending_malformed += 1
                    continue
                self.stats.n_records += 1
                batch.append(record)
                if len(batch) >= self.batch_size:
                    self.stats.n_batches += 1
                    self._publish(pending_lines, pending_malformed)
                    pending_lines = pending_malformed = 0
                    yield batch
                    batch = []
            if batch:
                self.stats.n_batches += 1
                yield batch
        finally:
            self._publish(pending_lines, pending_malformed)


def _observed(cls, source_lines, fail_at=None, **kwargs):
    """Every yield of ``cls(**kwargs).batches``, each with the lines
    consumed, the stats and the published counters at that point; then
    the same at the end (or at the source's failure)."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    ingester = cls(metrics=registry, **kwargs)
    consumed = []

    def source():
        for index, line in enumerate(source_lines):
            if index == fail_at:
                raise OSError("source failed")
            consumed.append(line)
            yield line

    def snapshot():
        s = ingester.stats
        return (
            len(consumed),
            (s.n_lines, s.n_records, s.n_malformed, s.n_batches),
            registry.counter("rtg_ingest_lines_total").value(),
            registry.counter("rtg_ingest_malformed_total").value(),
        )

    events = []
    try:
        for batch in ingester.batches(source()):
            events.append((batch, snapshot()))
    except OSError:
        events.append(("failed", snapshot()))
    events.append(("end", snapshot()))
    return events


class TestBatchesEqualLineByLine:
    @given(
        kinds=st.lists(st.sampled_from(["ok", "ok", "ok", "bad", "empty"]), max_size=60),
        batch_size=st.integers(1, 12),
        fail_at=st.none() | st.integers(0, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_batches_stats_counters_and_reads(self, kinds, batch_size, fail_at):
        bad = {"bad": '{"service": "s"}', "empty": "   "}
        source_lines = [
            json.dumps({"service": f"s{i % 3}", "message": f"m {i}"})
            if kind == "ok" else bad[kind]
            for i, kind in enumerate(kinds)
        ]
        oracle, bulk = (
            _observed(cls, source_lines, fail_at, batch_size=batch_size)
            for cls in (_LineByLineIngester, StreamIngester)
        )
        assert bulk == oracle

    @pytest.mark.parametrize("fail_at", [None, 1700])
    def test_batches_longer_than_a_decode_step(self, fail_at):
        source_lines = [
            "{broken" if i % 7 == 3 else json.dumps({"service": "s", "message": f"m {i}"})
            for i in range(3000)
        ]
        oracle, bulk = (
            _observed(cls, source_lines, fail_at, batch_size=1300)
            for cls in (_LineByLineIngester, StreamIngester)
        )
        assert bulk == oracle

    def test_deep_line_is_counted_malformed(self):
        stream = lines(4) + ["[" * 100_000] + lines(3)
        ingester = StreamIngester(batch_size=5)
        assert [len(b) for b in ingester.batches(stream)] == [5, 2]
        assert (ingester.stats.n_lines, ingester.stats.n_malformed) == (8, 1)

    def test_pipelined_reader_survives_a_deep_line(self):
        stream = lines(4) + ["[" * 100_000] + lines(3)
        ingester = StreamIngester(batch_size=5)
        batches = list(ingester.batches_pipelined(stream))
        assert [len(b) for b in batches] == [5, 2]
        assert (ingester.stats.n_lines, ingester.stats.n_malformed) == (8, 1)
