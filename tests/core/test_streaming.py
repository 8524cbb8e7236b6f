"""Stream execution mode: incremental core, drift/TTL, equivalence.

The tentpole invariants:

* batch mode is a special case of the incremental core — a stream
  driver flushing at exactly the batch boundaries (drift/TTL off)
  produces a bit-identical database dump, on the compiled stage classes
  and on the reference oracles;
* free-running stream mode *converges*: on the 60-day production
  simulation its pattern set agrees with batch output on >= 95% of
  messages by template;
* incremental pattern churn (drift merge/split, TTL eviction) leaves
  the live parser agreeing with the database.
"""

import dataclasses
import sys
from datetime import timedelta

import pytest

from repro.analyzer.enrich import enrich_tokens
from repro.core.config import RTGConfig, StreamingConfig
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.core.state import ServiceState
from repro.core.streaming import StreamDriver
from repro.parser.compiled import CompiledParser
from repro.parser.parser import Parser
from repro.scanner import build_scanner
from repro.scanner.compiled import CompiledScanner
from repro.workflow.stream import ProductionStream, StreamConfig
from tests.core.test_engine import NOW, batches_for_test, full_dump


class FakeClock:
    """Injectable monotonic clock: timeout behaviour without sleeping."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def stream_rtg(streaming: StreamingConfig) -> SequenceRTG:
    config = RTGConfig(streaming=streaming)
    return SequenceRTG(db=PatternDB(), config=config)


# ----------------------------------------------------------------------
# Stream mode == batch mode when flushed at batch boundaries
# ----------------------------------------------------------------------

class TestStreamEqualsBatch:
    """Flushing at exactly the batch boundaries (drift/TTL off) must
    reproduce the batch-mode database bit-for-bit — supports, examples,
    timestamps, everything."""

    @pytest.mark.parametrize("stages", ["compiled", "reference"])
    def test_dump_bit_identical(self, stages, request):
        if stages == "reference":
            request.getfixturevalue("reference_stages")
        batches = batches_for_test()
        per_batch = len(batches[0])

        batch_rtg = SequenceRTG(db=PatternDB())
        for batch in batches:
            batch_rtg.analyze_by_service(batch, now=NOW)

        rtg = stream_rtg(StreamingConfig(
            micro_batch_size=per_batch,
            flush_pending=1,  # flush after every micro-batch
            drift_merge=False,
            drift_split=False,
        ))
        driver = rtg.stream_driver(clock=FakeClock())
        for batch in batches:
            driver.feed(batch, now=NOW)
        driver.close()

        reference = full_dump(batch_rtg.db)
        assert reference
        assert full_dump(rtg.db) == reference

    def test_smaller_micro_batches_same_flush_boundaries(self):
        """Micro-batch size does not affect the mined output as long as
        flushes land on the same boundaries: parse/absorb are
        associative across micro-batches."""
        batches = batches_for_test(n_batches=3)
        per_batch = len(batches[0])

        def run(micro):
            rtg = stream_rtg(StreamingConfig(
                micro_batch_size=micro,
                flush_pending=10 ** 9,
                drift_merge=False,
                drift_split=False,
            ))
            driver = rtg.stream_driver(clock=FakeClock())
            for batch in batches:
                driver.feed(batch, now=NOW)
                driver.flush()  # explicit batch boundary
            driver.close()
            return full_dump(rtg.db)

        assert run(per_batch) == run(25)


# ----------------------------------------------------------------------
# Convergence on the 60-day production simulation
# ----------------------------------------------------------------------

class TestConvergence:
    def agreement(self, db_a, db_b, records):
        """Fraction of *records* both pattern sets parse to the same
        template (or both leave unmatched)."""
        scanner = build_scanner()
        parsers_a: dict[str, Parser] = {}
        parsers_b: dict[str, Parser] = {}
        agree = 0
        for record in records:
            service = record.service
            parser_a = parsers_a.get(service)
            if parser_a is None:
                parser_a = parsers_a[service] = Parser(db_a.load_service(service))
                parsers_b[service] = Parser(db_b.load_service(service))
            parser_b = parsers_b[service]
            scanned = scanner.scan(record.message, service=service)
            hit_a = parser_a.match(scanned)
            hit_b = parser_b.match(scanned)
            if hit_a is None and hit_b is None:
                agree += 1
            elif (
                hit_a is not None
                and hit_b is not None
                and hit_a.pattern.text == hit_b.pattern.text
            ):
                agree += 1
        return agree / len(records)

    def test_stream_converges_to_batch_on_60_day_simulation(self):
        """The reference is batch mode over the *whole* horizon in one
        mining run — the pattern set batch mode produces when it has all
        the evidence.  (Batch mode replayed day by day is not a fixed
        point: it mints over-specific patterns from thin day-1 evidence
        and, lacking drift maintenance, never retires them.  The stream
        driver's whole job is to do better than that.)"""
        source = ProductionStream(StreamConfig(
            n_services=8, seed=13, duplicate_fraction=0.3,
        ))
        days = source.days(60, 150, churn_per_day=1)
        records = [record for day in days for record in day]

        batch_rtg = SequenceRTG(db=PatternDB())
        batch_rtg.analyze_by_service(records, now=NOW)

        rtg = stream_rtg(StreamingConfig(
            micro_batch_size=25,
            flush_pending=512,
            split_min_matches=256,
        ))
        driver = rtg.stream_driver(clock=FakeClock())
        for day in days:
            driver.feed(day, now=NOW)
        driver.close()

        assert driver.stats.n_micro_batches == len(records) // 25
        assert driver.stats.n_flushes >= 3  # genuinely incremental
        assert driver.stats.n_drift_merges > 0
        rate = self.agreement(batch_rtg.db, rtg.db, records)
        assert rate >= 0.95, f"stream/batch template agreement {rate:.3f}"


# ----------------------------------------------------------------------
# Driver mechanics: micro-batch timeout, flush interval, close
# ----------------------------------------------------------------------

def quiet_streaming(**kwargs) -> StreamingConfig:
    """Streaming config with every automatic trigger pushed out of the
    way unless the test overrides it."""
    defaults = dict(
        micro_batch_size=100,
        micro_batch_timeout_s=0.5,
        flush_pending=10 ** 9,
        flush_interval_s=30.0,
        drift_merge=False,
        drift_split=False,
    )
    defaults.update(kwargs)
    return StreamingConfig(**defaults)


class TestStreamDriver:
    def record(self, i=0):
        return LogRecord("svc", f"heartbeat {i} ok")

    def test_requires_stream_mode(self):
        """There is no mode to require: a default miner hands out a
        driver, which turns on drift tracking in the service states."""
        rtg = SequenceRTG(db=PatternDB())
        assert not rtg.track_drift
        driver = rtg.stream_driver(clock=FakeClock())
        assert rtg.track_drift
        driver.feed([self.record(i) for i in range(3)], now=NOW)
        driver.close()
        assert driver.stats.n_flushes == 1
        assert rtg.db.rows(service="svc")

    def test_micro_batch_fills_then_processes(self):
        rtg = stream_rtg(quiet_streaming(micro_batch_size=4))
        driver = rtg.stream_driver(clock=FakeClock())
        for i in range(3):
            driver.offer(self.record(i), now=NOW)
        assert driver.stats.n_micro_batches == 0
        driver.offer(self.record(3), now=NOW)
        assert driver.stats.n_micro_batches == 1
        assert driver.stats.n_messages == 4
        assert driver.pending == 4  # nothing known yet, all unmatched

    def test_micro_batch_timeout_via_poll(self):
        clock = FakeClock()
        rtg = stream_rtg(quiet_streaming())
        driver = rtg.stream_driver(clock=clock)
        driver.offer(self.record(), now=NOW)
        driver.poll()
        assert driver.stats.n_micro_batches == 0  # timeout not reached
        clock.advance(0.6)
        driver.poll()
        assert driver.stats.n_micro_batches == 1

    def test_flush_interval_via_poll(self):
        clock = FakeClock()
        rtg = stream_rtg(quiet_streaming(micro_batch_size=2))
        driver = rtg.stream_driver(clock=clock)
        driver.feed([self.record(i) for i in range(2)], now=NOW)
        assert driver.pending == 2
        assert driver.stats.n_flushes == 0
        clock.advance(31.0)
        driver.poll()
        assert driver.stats.n_flushes == 1
        assert driver.pending == 0
        assert rtg.db.rows(service="svc")

    def test_flush_pending_threshold(self):
        rtg = stream_rtg(quiet_streaming(micro_batch_size=2, flush_pending=4))
        driver = rtg.stream_driver(clock=FakeClock())
        driver.feed([self.record(i) for i in range(2)], now=NOW)
        assert driver.stats.n_flushes == 0
        driver.feed([self.record(i) for i in range(2, 4)], now=NOW)
        assert driver.stats.n_flushes == 1

    def test_close_drains_and_seals(self):
        rtg = stream_rtg(quiet_streaming())
        driver = rtg.stream_driver(clock=FakeClock())
        driver.offer(self.record(), now=NOW)  # partial micro-batch
        result = driver.close()
        assert driver.stats.n_micro_batches == 1
        assert driver.stats.n_flushes == 1
        assert result is not None and result.n_new_patterns >= 0
        assert driver.pending == 0
        assert driver.close() is None  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            driver.offer(self.record())

    def test_latency_quantiles_and_metrics(self):
        rtg = stream_rtg(quiet_streaming(micro_batch_size=4))
        driver = rtg.stream_driver(clock=FakeClock())
        driver.feed([self.record(i) for i in range(8)], now=NOW)
        driver.close()
        latency = rtg.metrics.histogram("rtg_stream_message_latency_seconds")
        assert latency.count() == 8
        assert latency.quantile(0.99) >= latency.quantile(0.5) > 0.0
        assert "rtg_stream_flushes_total" in rtg.metrics.snapshot()

    def test_empty_driver_quantile_is_zero(self):
        rtg = stream_rtg(quiet_streaming())
        rtg.stream_driver(clock=FakeClock())
        latency = rtg.metrics.histogram("rtg_stream_message_latency_seconds")
        assert latency.quantile(0.99) == 0.0


# ----------------------------------------------------------------------
# Drift maintenance and TTL eviction
# ----------------------------------------------------------------------

class TestTTLEviction:
    def test_stale_patterns_evicted_at_flush(self):
        rtg = stream_rtg(quiet_streaming(
            micro_batch_size=4, pattern_ttl_days=30.0,
        ))
        driver = rtg.stream_driver(clock=FakeClock())
        old_msgs = [
            LogRecord("svc", f"session {i} opened by u{i}") for i in range(4)
        ]
        driver.feed(old_msgs, now=NOW)
        driver.flush()
        assert rtg.db.rows(service="svc")

        later = NOW + timedelta(days=40)
        driver.feed(
            [LogRecord("svc", f"transfer {i} completed fine") for i in range(4)],
            now=later,
        )
        driver.flush()
        texts = [row.pattern_text for row in rtg.db.rows(service="svc")]
        assert all("session" not in text for text in texts)
        assert any("transfer" in text for text in texts)
        assert driver.stats.n_evicted >= 1

        # the live parser dropped the evicted pattern too: the old
        # traffic is unmatched again and goes back to the analyser
        driver.feed(old_msgs, now=later)
        assert driver.pending > 0

    def test_fresh_matches_keep_patterns_alive(self):
        rtg = stream_rtg(quiet_streaming(
            micro_batch_size=4, pattern_ttl_days=30.0,
        ))
        driver = rtg.stream_driver(clock=FakeClock())
        msgs = [LogRecord("svc", f"job {i} finished cleanly") for i in range(4)]
        driver.feed(msgs, now=NOW)
        driver.flush()
        # the same traffic keeps matching within the TTL window
        for day in (10, 20, 29):
            driver.feed(msgs, now=NOW + timedelta(days=day))
        driver.flush()
        assert driver.stats.n_evicted == 0
        assert rtg.db.rows(service="svc")


class TestDriftSplit:
    def make_driver(self):
        config = RTGConfig(streaming=StreamingConfig(
            micro_batch_size=6,
            flush_pending=6,
            flush_interval_s=10 ** 6,
            drift_merge=False,
            drift_split=True,
            split_min_matches=12,
        ))
        rtg = SequenceRTG(db=PatternDB(), config=config)
        return rtg, rtg.stream_driver(clock=FakeClock())

    # more than MERGE_THRESHOLD distinct names: the position mines as a
    # string variable
    NAMES = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")

    def seed_variable_pattern(self, driver):
        """Mine ``job <variable> started`` from varied names."""
        driver.feed(
            [LogRecord("svc", f"job {name} started") for name in self.NAMES],
            now=NOW,
        )

    def test_single_valued_variable_folds_to_constant(self):
        rtg, driver = self.make_driver()
        self.seed_variable_pattern(driver)
        (row,) = rtg.db.rows(service="svc")
        assert "%" in row.pattern_text
        old_id = row.id
        old_count = row.match_count

        # the variable position now only ever sees "omega"
        for _ in range(4):
            driver.feed(
                [LogRecord("svc", "job omega started") for _ in range(6)],
                now=NOW,
            )
        driver.flush()

        rows = rtg.db.rows(service="svc")
        assert old_id not in {row.id for row in rows}
        (folded,) = [r for r in rows if r.pattern_text == "job omega started"]
        assert folded.match_count >= old_count + 24
        assert driver.stats.n_drift_splits == 1

    def test_fastpath_cache_safe_across_split(self):
        """Identical messages matched the retired pattern before the
        split; afterwards they count toward the folded pattern and never
        resurrect the retired id."""
        rtg, driver = self.make_driver()
        self.seed_variable_pattern(driver)
        for _ in range(4):  # identical messages: cached match entries
            driver.feed(
                [LogRecord("svc", "job omega started") for _ in range(6)],
                now=NOW,
            )
        driver.flush()
        rows = {row.pattern_text: row for row in rtg.db.rows(service="svc")}
        folded = rows["job omega started"]
        before = folded.match_count

        driver.feed(
            [LogRecord("svc", "job omega started") for _ in range(6)], now=NOW
        )
        rows = {row.pattern_text: row for row in rtg.db.rows(service="svc")}
        assert rows["job omega started"].match_count == before + 6

    def test_multi_valued_variable_never_splits(self):
        rtg, driver = self.make_driver()
        self.seed_variable_pattern(driver)
        for i in range(8):
            driver.feed(
                [LogRecord("svc", f"job sigma{i % 3} started")
                 for _ in range(6)],
                now=NOW,
            )
        driver.flush()
        assert driver.stats.n_drift_splits == 0


class TestDriftMerge:
    def test_general_pattern_subsumes_specific(self):
        config = RTGConfig(streaming=StreamingConfig(
            micro_batch_size=4,
            flush_pending=4,
            flush_interval_s=10 ** 6,
            drift_merge=True,
            drift_split=False,
        ))
        # a roomy example cap so the fold-in below is observable
        rtg = SequenceRTG(db=PatternDB(max_examples=8), config=config)
        driver = rtg.stream_driver(clock=FakeClock())

        # first flush only varies the port: the ip mines as a constant
        driver.feed(
            [LogRecord("svc", f"connection from 10.0.0.1 port {4000 + i}")
             for i in range(4)],
            now=NOW,
        )
        (specific,) = rtg.db.rows(service="svc")
        assert "10.0.0.1" in specific.pattern_text
        specific_count = specific.match_count

        # later traffic varies the ip too: the general pattern appears
        # and the specific one's examples all match it
        driver.feed(
            [LogRecord("svc", f"connection from 10.0.0.{2 + i} port {5000 + i}")
             for i in range(4)],
            now=NOW,
        )
        rows = rtg.db.rows(service="svc")
        assert specific.id not in {row.id for row in rows}
        (general,) = [row for row in rows if row.match_count >= specific_count]
        assert general.pattern_text.count("%") > specific.pattern_text.count("%")
        assert general.match_count >= specific_count + 4
        assert driver.stats.n_drift_merges == 1
        # the specific pattern's examples were folded into the general
        assert any("10.0.0.1" in example for example in general.examples)

    def test_probes_run_the_compiled_path(self, monkeypatch):
        """While a drift merge runs, nothing calls the reference parser's
        ``match``, the token-building ``CompiledScanner.scan`` or
        ``enrich_tokens``: the probes scan to columns and match them."""
        calls = {"inside": [], "outside": []}
        inside = False

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls["inside" if inside else "outside"].append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Parser, "match", spy("Parser.match", Parser.match))
        monkeypatch.setattr(
            CompiledScanner, "scan", spy("CompiledScanner.scan", CompiledScanner.scan)
        )
        # every module that bound the function by name
        for module in list(sys.modules.values()):
            if getattr(module, "enrich_tokens", None) is enrich_tokens:
                monkeypatch.setattr(
                    module, "enrich_tokens", spy("enrich_tokens", enrich_tokens)
                )

        rtg = stream_rtg(StreamingConfig(
            micro_batch_size=4, flush_pending=4, flush_interval_s=10 ** 6,
            drift_merge=True, drift_split=False,
        ))
        driver = rtg.stream_driver(clock=FakeClock())
        merge = driver._drift_merge

        def watched(new_patterns):
            nonlocal inside
            inside = True
            try:
                return merge(new_patterns)
            finally:
                inside = False

        driver._drift_merge = watched
        for ips in (["10.0.0.1"] * 4, [f"10.0.0.{2 + i}" for i in range(4)]):
            driver.feed(
                [LogRecord("svc", f"connection from {ip} port {4000 + i}")
                 for i, ip in enumerate(ips)],
                now=NOW,
            )
        assert driver.stats.n_drift_merges == 1
        assert calls["inside"] == []
        # outside the merge the miner builds no tokens either, and the
        # spies are live: a direct call through a module lands in them
        assert calls["outside"] == []
        sys.modules["repro.analyzer.enrich"].enrich_tokens([])
        assert calls["outside"] == ["enrich_tokens"]


class TestDriftTracks:
    """The drift tracks a service state keeps of its live matches."""

    def state(self):
        return ServiceState("svc", PatternDB())

    def test_overflowing_track_gives_up(self):
        from repro.analyzer.pattern import Pattern
        from repro.analyzer.trie import VALUE_CAP

        pattern = Pattern.from_text("user %user% logged in", service="svc")
        state = self.state()
        for i in range(VALUE_CAP):
            state.observe(pattern.id, pattern, {"user": f"u{i}"}, 10)
        track = state.tracks[pattern.id][1]["user"]
        assert not track.overflow and len(track.values) == VALUE_CAP
        state.observe(pattern.id, pattern, {"user": "one more"}, 10)
        assert track.overflow and track.count == 10 * (VALUE_CAP + 1)
        assert state.split_candidates(1) == []

    def test_retire_and_drop_forget(self):
        from repro.analyzer.pattern import Pattern

        pattern = Pattern.from_text("user %user% logged in", service="svc")
        state = self.state()
        state.observe(pattern.id, pattern, {"user": "bob"}, 5)
        assert state.split_candidates(5) == [
            (pattern.id, pattern, "user", "bob")
        ]
        state.retire([pattern.id])
        assert state.tracks == {}
        assert state.split_candidates(1) == []
        state.observe(pattern.id, pattern, {"user": "bob"}, 5)
        state.drop()
        assert state.tracks == {}

    def test_time_and_rest_variables_never_tracked(self):
        from repro.analyzer.pattern import Pattern

        pattern = Pattern.from_text(
            "%msgtime% backup done %ignorerest%", service="svc"
        )
        state = self.state()
        state.observe(
            pattern.id, pattern,
            {"msgtime": "Jan  1 00:00:00", "ignorerest": "x y z"}, 100,
        )
        assert state.split_candidates(1) == []


# ----------------------------------------------------------------------
# Incremental pattern removal: parser and config guards
# ----------------------------------------------------------------------

class TestRemovePatterns:
    @pytest.mark.parametrize(
        "cls", [Parser, CompiledParser], ids=["reference", "compiled"]
    )
    def test_removal_rebuilds_the_bucket(self, cls):
        from repro.analyzer.pattern import Pattern

        keep = Pattern.from_text("transfer %integer% completed", service="s")
        drop = Pattern.from_text("user %user% logged in", service="s")
        parser = cls([keep, drop])
        scanner = build_scanner()
        assert parser.match(scanner.scan("user bob logged in")) is not None

        assert parser.remove_patterns([drop.id]) == 1
        assert len(parser) == 1
        assert parser.match(scanner.scan("user bob logged in")) is None
        assert parser.match(scanner.scan("transfer 5 completed")) is not None

    def test_removing_unknown_ids_is_a_noop(self):
        from repro.analyzer.pattern import Pattern

        keep = Pattern.from_text("transfer %integer% completed", service="s")
        parser = Parser([keep])
        assert parser.remove_patterns(["no-such-id"]) == 0
        assert len(parser) == 1

    def test_retire_patterns_without_cached_parser(self):
        """Retiring patterns of a service whose parser is not cached
        must still leave the next parser_for load consistent."""
        rtg = stream_rtg(quiet_streaming(micro_batch_size=4))
        driver = rtg.stream_driver(clock=FakeClock())
        driver.feed(
            [LogRecord("svc", f"probe {i} sent") for i in range(4)], now=NOW
        )
        driver.flush()
        (row,) = rtg.db.rows(service="svc")
        rtg.states["svc"].drop()  # drop the cached parser
        assert rtg.retire_patterns("svc", [row.id]) == 1
        assert rtg.db.rows(service="svc") == []
        assert rtg.parser_for("svc").match(
            build_scanner().scan("probe 1 sent", service="svc")
        ) is None


class TestModeGuards:
    def test_unknown_mode_rejected(self):
        """The mode is the call made, not a setting: ``mode`` is a class
        constant, and passing one is a ``TypeError``."""
        with pytest.raises(TypeError):
            RTGConfig(mode="firehose")
        with pytest.raises(TypeError):
            RTGConfig(mode="stream")
        assert RTGConfig.mode == RTGConfig().mode == "stream"
        assert "mode" not in {f.name for f in dataclasses.fields(RTGConfig)}

    def test_batch_mode_flush_is_empty_noop(self):
        rtg = SequenceRTG(db=PatternDB())
        result = rtg.engine.flush(now=NOW)
        assert result.n_new_patterns == 0
        assert result.n_services == 0


class TestStreamingConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"micro_batch_size": 0},
        {"micro_batch_timeout_s": 0.0},
        {"flush_pending": 0},
        {"flush_interval_s": -1.0},
        # deleted knobs: flush_pending bounds the evolving state, and a
        # drift track keeps the analysis trie's VALUE_CAP values
        {"max_partition_pending": 8192},
        {"pattern_ttl_days": -0.5},
        {"split_min_matches": 0},
        {"drift_max_values": 8},
        # a deleted knob: latency quantiles come from the registry histogram
        {"latency_window": 8192},
    ])
    def test_invalid_values_rejected(self, kwargs):
        deleted = {"max_partition_pending", "drift_max_values", "latency_window"}
        error = TypeError if deleted & set(kwargs) else ValueError
        with pytest.raises(error):
            StreamingConfig(**kwargs)


# ----------------------------------------------------------------------
# Indexed drift merge == the brute-force pass it replaced
# ----------------------------------------------------------------------

class BruteForceMergeDriver(StreamDriver):
    """Test-only oracle: the drift merge as a plain double loop — every
    general pattern against every stored row of its service, each row
    decoded and each example scanned afresh for every general."""

    def _drift_merge(self, new_patterns):
        rtg = self.rtg
        n_retired = 0
        by_service = {}
        for pattern in new_patterns:
            if pattern.n_variables > 0:
                by_service.setdefault(pattern.service, []).append(pattern)
        for service, generals in by_service.items():
            rows = rtg.db.rows(service=service)
            retired = set()
            for general in generals:
                probe = Parser([general])
                general_id = general.id
                for row in rows:
                    if (
                        row.id == general_id
                        or row.id in retired
                        or not row.examples
                    ):
                        continue
                    old = row.to_pattern()
                    if (
                        len(old.tokens) != len(general.tokens)
                        or old.n_variables >= general.n_variables
                    ):
                        continue
                    if not all(
                        probe.match(rtg.scanner.scan(example, service=service))
                        is not None
                        for example in row.examples
                    ):
                        continue
                    rtg.db.record_match(
                        general_id, n=row.match_count, now=self._now
                    )
                    for example in row.examples:
                        rtg.db.add_example(general_id, example)
                    retired.add(row.id)
            if retired:
                rtg.retire_patterns(service, retired)
                n_retired += len(retired)
        return n_retired


def drifting_days(n_days=8, seed=5):
    """LogHub corpora (constant typed tokens: drift splits) interleaved
    with a churning production stream (merges, evictions), per day."""
    import random

    from repro.loghub.corpus import load_dataset

    rng = random.Random(seed)
    per_day = 40
    loghub = {}
    for index, name in enumerate(("HDFS", "Linux", "OpenSSH", "Zookeeper")):
        lines = load_dataset(name, n=per_day * n_days, seed=seed + index).lines
        loghub[name] = [LogRecord(name, line.raw) for line in lines]
        rng.shuffle(loghub[name])
    production = ProductionStream(
        StreamConfig(n_services=6, seed=seed, duplicate_fraction=0.3)
    ).days(n_days, 160, churn_per_day=3)
    days = []
    for day in range(n_days):
        records = list(production[day])
        for name in loghub:
            records.extend(loghub[name][day * per_day:(day + 1) * per_day])
        rng.shuffle(records)
        days.append(records)
    return days


def undated(db):
    return [
        {k: v for k, v in entry.items() if k not in ("first_seen", "last_matched")}
        for entry in full_dump(db)
    ]


class TestIndexedDriftMergeMatchesBruteForce:
    def test_same_retirements_same_database(self):
        streaming = StreamingConfig(
            micro_batch_size=64,
            flush_pending=32,
            flush_interval_s=10 ** 6,
            pattern_ttl_days=2,
            split_min_matches=24,
        )
        retired = {}
        dumps = {}
        stats = {}
        for cls in (StreamDriver, BruteForceMergeDriver):
            rtg = stream_rtg(streaming)
            log = retired[cls] = []
            retire = rtg.retire_patterns

            def recording(service, ids, log=log, retire=retire):
                ids = list(ids)
                log.append((service, sorted(ids)))
                return retire(service, ids)

            rtg.retire_patterns = recording
            driver = cls(rtg, clock=FakeClock())
            for day, records in enumerate(drifting_days()):
                driver.feed(records, now=NOW + timedelta(days=day))
            driver.close()
            dumps[cls] = undated(rtg.db)
            stats[cls] = driver.stats

        indexed, brute = stats[StreamDriver], stats[BruteForceMergeDriver]
        # all three maintenance passes fired, or the comparison is idle
        assert indexed.n_drift_merges > 0
        assert indexed.n_drift_splits > 0
        assert indexed.n_evicted > 0
        assert retired[StreamDriver] == retired[BruteForceMergeDriver]
        assert dumps[StreamDriver] == dumps[BruteForceMergeDriver]
        assert indexed == brute
