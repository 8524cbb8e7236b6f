"""Stream execution mode: incremental core, drift/TTL, equivalence.

The tentpole invariants:

* batch mode is a special case of the incremental core — a stream
  driver flushing at exactly the batch boundaries (drift/TTL off)
  produces a bit-identical database dump, on the compiled stage classes
  and on the reference oracles;
* free-running stream mode *converges*: on the 60-day production
  simulation its pattern set agrees with batch output on >= 95% of
  messages by template;
* incremental pattern churn (drift merge/split, TTL eviction) is
  version-safe against the fast lane's cached match entries.
"""

from datetime import timedelta

import pytest

from repro.analyzer import AnalyzerConfig, build_analyzer
from repro.analyzer.evolving import EvolvingAnalyzer
from repro.core.config import RTGConfig, StreamingConfig
from repro.core.parallel import PersistentParallelSequenceRTG
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.core.streaming import StreamDriver, ValueDriftTracker
from repro.parser.compiled import CompiledParser
from repro.parser.parser import Parser
from repro.scanner import build_scanner
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
    config = RTGConfig(mode="stream", streaming=streaming)
    return SequenceRTG(db=PatternDB(), config=config)


# ----------------------------------------------------------------------
# The evolving analyzer: batch mining as the degenerate case
# ----------------------------------------------------------------------

class TestEvolvingAnalyzer:
    def scan(self, messages, service="svc"):
        scanner = build_scanner()
        return [scanner.scan(m, service=service) for m in messages]

    def test_absorb_then_flush_equals_one_batch_analyze(self):
        messages = self.scan(
            [f"user u{i} logged in from 10.0.0.{i}" for i in range(6)]
        )
        expected = build_analyzer(AnalyzerConfig()).analyze(messages)

        evolving = EvolvingAnalyzer()
        length = messages[0].token_count()
        evolving.absorb("svc", length, messages[:2])
        evolving.absorb("svc", length, messages[2:])
        ((patterns, n_nodes),) = list(evolving.flush_service("svc"))
        assert [p.text for p in patterns] == [p.text for p in expected]
        assert [p.support for p in patterns] == [p.support for p in expected]
        assert n_nodes > 0
        assert evolving.pending_messages == 0

    def test_absorb_dedups_into_weighted_counts(self):
        distinct = self.scan(
            ["session 1 opened", "session 2 opened", "session 3 opened"]
        )
        expected = build_analyzer(AnalyzerConfig()).analyze(
            distinct, counts=[3, 2, 1]
        )

        evolving = EvolvingAnalyzer()
        length = distinct[0].token_count()
        # 3x the first, 2x the second, 1x the third, interleaved
        replay = [distinct[0], distinct[1], distinct[2], distinct[0],
                  distinct[1], distinct[0]]
        evolving.absorb("svc", length, replay)
        assert evolving.pending_messages == 3  # distinct, not occurrences
        patterns, _ = evolving.flush_partition("svc", length)
        assert [(p.text, p.support) for p in patterns] == [
            (p.text, p.support) for p in expected
        ]

    def test_partition_bound_bookkeeping(self):
        evolving = EvolvingAnalyzer(max_partition_pending=3)
        messages = self.scan([f"job {i} done" for i in range(4)])
        length = messages[0].token_count()
        evolving.absorb("a", length, messages[:2])
        assert not evolving.over_partition_bound
        assert evolving.max_partition == 2
        evolving.absorb("b", length, messages)
        assert evolving.over_partition_bound
        assert evolving.pending_for("a") == 2
        assert evolving.services() == ["a", "b"]
        evolving.flush_partition("b", length)
        assert evolving.max_partition == 2
        assert not evolving.over_partition_bound

    def test_flush_of_unknown_partition_is_empty(self):
        evolving = EvolvingAnalyzer()
        assert evolving.flush_partition("nope", 5) == ([], 0)
        assert list(evolving.flush_service("nope")) == []


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
        rtg = SequenceRTG(db=PatternDB())
        with pytest.raises(ValueError, match="mode == 'stream'"):
            StreamDriver(rtg)
        with pytest.raises(ValueError, match="mode == 'stream'"):
            rtg.stream_driver()

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

    def test_partition_bound_forces_flush(self):
        rtg = stream_rtg(quiet_streaming(
            micro_batch_size=2, max_partition_pending=4,
        ))
        driver = rtg.stream_driver(clock=FakeClock())
        driver.feed([self.record(i) for i in range(4)], now=NOW)
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
        assert len(driver.latencies) == 8
        assert driver.p99() >= driver.latency_quantile(0.5) >= 0.0
        snapshot = rtg.metrics.snapshot()
        assert "rtg_stream_message_latency_seconds" in snapshot
        assert "rtg_stream_flushes_total" in snapshot

    def test_empty_driver_quantile_is_zero(self):
        rtg = stream_rtg(quiet_streaming())
        driver = rtg.stream_driver(clock=FakeClock())
        assert driver.p99() == 0.0


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
        config = RTGConfig(mode="stream", streaming=StreamingConfig(
            micro_batch_size=6,
            flush_pending=6,
            flush_interval_s=10 ** 6,
            drift_merge=False,
            drift_split=True,
            split_min_matches=12,
        ))
        rtg = SequenceRTG(db=PatternDB(), config=config)
        return rtg, rtg.stream_driver(clock=FakeClock())

    # more than merge_threshold distinct names: the position mines as a
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
        """The fast lane served the retired pattern from its match cache
        before the split; afterwards its version-pinned entry must go
        stale, not resurrect the retired id."""
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
        config = RTGConfig(mode="stream", streaming=StreamingConfig(
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


class TestValueDriftTracker:
    def test_overflowing_track_gives_up(self):
        from repro.analyzer.pattern import Pattern

        pattern = Pattern.from_text("user %user% logged in", service="svc")
        tracker = ValueDriftTracker(max_values=2)
        for i in range(5):
            tracker.observe(pattern.id, pattern, {"user": f"u{i}"}, 10)
        assert tracker.split_candidates(1) == []

    def test_discard_forgets(self):
        from repro.analyzer.pattern import Pattern

        pattern = Pattern.from_text("user %user% logged in", service="svc")
        tracker = ValueDriftTracker()
        tracker.observe(pattern.id, pattern, {"user": "bob"}, 5)
        assert tracker.split_candidates(5) != []
        tracker.discard(pattern.id)
        assert len(tracker) == 0
        assert tracker.split_candidates(1) == []

    def test_time_and_rest_variables_never_tracked(self):
        from repro.analyzer.pattern import Pattern

        pattern = Pattern.from_text(
            "%msgtime% backup done %ignorerest%", service="svc"
        )
        tracker = ValueDriftTracker()
        tracker.observe(
            pattern.id, pattern,
            {"msgtime": "Jan  1 00:00:00", "ignorerest": "x y z"}, 100,
        )
        assert tracker.split_candidates(1) == []


# ----------------------------------------------------------------------
# Incremental pattern removal: parser and config guards
# ----------------------------------------------------------------------

class TestRemovePatterns:
    @pytest.mark.parametrize(
        "cls", [Parser, CompiledParser], ids=["reference", "compiled"]
    )
    def test_removal_rebuilds_and_version_stays_monotone(self, cls):
        from repro.analyzer.pattern import Pattern

        keep = Pattern.from_text("transfer %integer% completed", service="s")
        drop = Pattern.from_text("user %user% logged in", service="s")
        parser = cls([keep, drop])
        scanner = build_scanner()
        assert parser.match(scanner.scan("user bob logged in")) is not None
        version_before = parser.version

        assert parser.remove_patterns([drop.id]) == 1
        assert parser.version > version_before
        assert len(parser) == 1
        assert parser.match(scanner.scan("user bob logged in")) is None
        assert parser.match(scanner.scan("transfer 5 completed")) is not None

    def test_removing_unknown_ids_is_a_noop(self):
        from repro.analyzer.pattern import Pattern

        keep = Pattern.from_text("transfer %integer% completed", service="s")
        parser = Parser([keep])
        version = parser.version
        assert parser.remove_patterns(["no-such-id"]) == 0
        assert parser.version == version
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
        rtg.invalidate_service("svc")  # drop the cached parser
        assert rtg.retire_patterns("svc", [row.id]) == 1
        assert rtg.db.rows(service="svc") == []
        assert rtg.parser_for("svc").match(
            build_scanner().scan("probe 1 sent", service="svc")
        ) is None


class TestModeGuards:
    def test_pool_refuses_stream_mode(self):
        config = RTGConfig(mode="stream")
        with pytest.raises(ValueError, match="batch mode only"):
            PersistentParallelSequenceRTG(
                db=PatternDB(), config=config, n_workers=2
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            RTGConfig(mode="firehose")

    def test_batch_mode_flush_is_empty_noop(self):
        rtg = SequenceRTG(db=PatternDB())
        result = rtg.flush(now=NOW)
        assert result.n_new_patterns == 0
        assert result.n_services == 0


class TestStreamingConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"micro_batch_size": 0},
        {"micro_batch_timeout_s": 0.0},
        {"flush_pending": 0},
        {"flush_interval_s": -1.0},
        {"max_partition_pending": -1},
        {"pattern_ttl_days": -0.5},
        {"split_min_matches": 0},
        {"drift_max_values": 0},
        {"latency_window": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
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
                self.stats.n_drift_merges += len(retired)


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
