"""MetricsObserver semantics on the serial engine, and the fold helpers."""

import pytest

from repro.core.config import RTGConfig, StreamingConfig
from repro.core.engine import StageObserver
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import (
    METRIC_HELP,
    MetricsObserver,
    fold_batch_result,
    observe_patterndb,
)
from repro.scanner.scanner import Scanner

from tests.conftest import MessageGenerator


def mined(n=300, **config):
    rtg = SequenceRTG(db=PatternDB(), config=RTGConfig(**config))
    result = rtg.analyze_by_service(
        MessageGenerator(seed=3).records(n, n_services=3)
    )
    return rtg, result


class TestSerialPath:
    def test_expected_families_present(self):
        rtg, _ = mined()
        names = {m.name for m in rtg.metrics.collect()}
        assert {
            "rtg_stage_latency_seconds",
            "rtg_records_total",
            "rtg_matched_total",
            "rtg_unmatched_total",
            "rtg_patterns_total",
            "rtg_batches_total",
            "rtg_matched_fraction",
            "rtg_fastlane_events_total",
            "rtg_patterndb_rows",
            "rtg_patterndb_patterns",
        } <= names

    def test_every_metric_has_registered_help(self):
        rtg, _ = mined()
        for metric in rtg.metrics.collect():
            assert metric.help == METRIC_HELP[metric.name]

    def test_stage_latency_counts_stage_executions(self):
        """One observation per stage per service group."""
        rtg, result = mined()
        hist = rtg.metrics.histogram("rtg_stage_latency_seconds")
        # scan, parse and analyze samples additionally carry the name of
        # the stage's implementation as their backend label
        for stage in ("scan", "parse", "analyze"):
            assert (
                hist.count(stage=stage, backend="compiled")
                == result.n_services
            )
        for stage in ("partition_length", "persist"):
            assert hist.count(stage=stage) == result.n_services

    def test_analyze_trie_nodes_histogram(self):
        """One trie-node observation per mined length partition, labelled
        ``backend="compiled"``."""
        rtg, result = mined()
        hist = rtg.metrics.histogram("rtg_analyze_trie_nodes")
        assert result.n_partitions > 0
        assert hist.count(backend="compiled") == result.n_partitions
        assert hist.sum(backend="compiled") >= result.n_partitions

    def test_counters_agree_with_batch_result(self):
        rtg, result = mined()
        snap = rtg.metrics.snapshot()

        def total(name):
            return sum(snap[name]["samples"].values())

        assert total("rtg_records_total") == result.n_records
        assert total("rtg_matched_total") == result.n_matched
        assert total("rtg_unmatched_total") == result.n_unmatched
        assert total("rtg_patterns_total") == result.n_new_patterns
        assert rtg.metrics.counter("rtg_batches_total").value() == 1

    def test_rolled_back_call_counts_nothing(self):
        """The outcome counters count committed calls only: when the
        second service group's persist raises, the whole call rolls
        back, the first group's finished persist included."""
        rtg = SequenceRTG(db=PatternDB())
        persist = rtg.engine.persist_stage
        real = persist.run

        def failing(ctx):
            if ctx.service == "b":
                raise RuntimeError("disk full")
            real(ctx)

        persist.run = failing
        records = [LogRecord("a", f"job {i} done") for i in range(5)] + [
            LogRecord("b", f"disk {i} full") for i in range(5)
        ]
        with pytest.raises(RuntimeError, match="disk full"):
            rtg.analyze_by_service(records)
        assert rtg.db.rows() == []
        for name in (
            "rtg_records_total", "rtg_matched_total",
            "rtg_unmatched_total", "rtg_patterns_total",
        ):
            assert rtg.metrics.counter(name).value(service="a") == 0, name
        persist.run = real
        rtg.analyze_by_service(records)  # committed: now it counts
        assert rtg.metrics.counter("rtg_records_total").value(service="a") == 5
        assert rtg.metrics.counter("rtg_patterns_total").value(service="a") == 1

    def test_db_gauges_track_database_state(self):
        rtg, _ = mined()
        counts = rtg.db.counts()
        rows = rtg.metrics.gauge("rtg_patterndb_rows")
        assert rows.value(table="patterns") == counts["patterns"]
        per_service = rtg.metrics.gauge("rtg_patterndb_patterns")
        for service, n in rtg.db.counts_by_service().items():
            assert per_service.value(service=service) == n

    def test_matched_fraction_gauge(self):
        rtg = SequenceRTG(db=PatternDB())
        records = MessageGenerator(seed=3).records(200, n_services=2)
        rtg.analyze_by_service(records)
        result = rtg.analyze_by_service(records[:100])
        gauge = rtg.metrics.gauge("rtg_matched_fraction")
        assert gauge.value() == pytest.approx(result.matched_fraction)
        assert gauge.value() > 0

    def test_fastlane_counters_mirror_cache_delta(self):
        rtg, result = mined()
        fastlane = rtg.metrics.counter("rtg_fastlane_events_total")
        assert fastlane.value(cache="dedup", event="unique") == result.cache[
            "dedup_unique"
        ]
        assert fastlane.value(cache="dedup", event="duplicate") == result.cache[
            "dedup_duplicates"
        ]

    def test_stream_flush_leaves_matched_fraction_alone(self):
        """A flush carries no records, so it has no matched fraction to
        publish: the gauge keeps the last micro-batch's value."""
        rtg = SequenceRTG(
            db=PatternDB(),
            config=RTGConfig(streaming=StreamingConfig(micro_batch_size=8)),
        )
        known = [LogRecord("svc", f"user {u} logged in") for u in "abcdefg"]
        rtg.analyze_by_service(known * 2)  # mines the known shape
        driver = rtg.stream_driver(clock=lambda: 0.0)
        driver.feed(known + [LogRecord("svc", "disk full on /dev/sda1")])
        gauge = rtg.metrics.gauge("rtg_matched_fraction")
        assert gauge.value() == pytest.approx(7 / 8)
        flushed = driver.flush()
        assert flushed.n_records == 0 and flushed.n_services == 1
        assert gauge.value() == pytest.approx(7 / 8)

    def test_disabled_metrics_record_nothing(self):
        """Metrics are not a setting: the knob is a constant."""
        with pytest.raises(TypeError):
            RTGConfig(enable_metrics=False)
        assert RTGConfig.enable_metrics is True


def telemetry_batches():
    """A fixed pair of batches: the second repeats half the first (so
    it parses against what the first mined), and multi-line records put
    REST markers into the token counts."""
    generator = MessageGenerator(seed=5)
    traces = [LogRecord("svc0", f"worker {i} crashed\n  at frame {i}") for i in range(6)]
    pairs = [
        LogRecord("svc1", f"user = u{i} mail u{i}@example.com via node{i}.example.com")
        for i in range(6)
    ]
    first = generator.records(240, n_services=3) + traces + pairs
    return [first, first[::2] + traces + generator.records(60, n_services=3) + first[:40]]


class TestScanAndParseTelemetry:
    """Dedup tallies, scan token counts and parse frontiers on a fixed
    batch pair, pinned to the values the scan stage published when it
    still built a ``Token`` per token of every distinct message."""

    def test_pinned_values(self):
        rtg = SequenceRTG(db=PatternDB())
        caches = [rtg.analyze_by_service(b).cache for b in telemetry_batches()]
        assert caches == [
            {"dedup_unique": 252, "dedup_duplicates": 0},
            {"dedup_unique": 209, "dedup_duplicates": 23},
        ]
        tokens = rtg.metrics.counter("rtg_scan_tokens_total")
        assert {
            s: tokens.value(service=s, backend="compiled")
            for s in ("svc0", "svc1", "svc2")
        } == {"svc0": 878, "svc1": 965, "svc2": 1075}
        candidates = rtg.metrics.snapshot()["rtg_parse_candidates"]["samples"]
        assert candidates == {
            (("backend", "compiled"),): (
                (134, 13, 62, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 323.0, 209
            )
        }

    def test_scan_tokens_count_the_rest_marker(self):
        """The counter is the reference scan's token count, summed over
        each batch's distinct messages per service, REST markers included."""
        rtg = SequenceRTG(db=PatternDB())
        expected: dict[str, int] = {}
        reference = Scanner()
        for batch in telemetry_batches():
            rtg.analyze_by_service(batch)
            for service, message in dict.fromkeys((r.service, r.message) for r in batch):
                n = len(reference.scan(message).tokens)
                expected[service] = expected.get(service, 0) + n
        assert any("\n" in r.message for r in telemetry_batches()[0])
        tokens = rtg.metrics.counter("rtg_scan_tokens_total")
        assert {
            s: tokens.value(service=s, backend="compiled") for s in expected
        } == expected


class TestFoldedObservations:
    def test_same_histograms_as_one_observation_per_entry(self):
        """The observer folds a stage's frontier sizes and trie node
        counts into one weighted observation per distinct value; the
        histograms equal observing every entry on its own."""

        class Entries(StageObserver):
            def __init__(self):
                self.frontiers, self.nodes = [], []

            def on_stage_end(self, stage, ctx):
                if stage == "parse":
                    self.frontiers.extend(ctx.parse_frontiers)
                elif stage == "analyze":
                    self.nodes.extend(ctx.trie_node_sizes)

        rtg = SequenceRTG(db=PatternDB())
        entries = Entries()
        rtg.engine.observers.append(entries)
        generator = MessageGenerator(seed=3)
        for _ in range(2):  # the second batch parses against the first's
            rtg.analyze_by_service(generator.records(400, n_services=3))
        # repeated values, or the fold is not exercised
        assert len(entries.frontiers) > len(set(entries.frontiers))

        per_entry = MetricsRegistry()
        for name, values in (
            ("rtg_parse_candidates", entries.frontiers),
            ("rtg_analyze_trie_nodes", entries.nodes),
        ):
            folded = rtg.metrics.histogram(name)
            reference = per_entry.histogram(name, buckets=folded.buckets)
            for value in values:
                reference.observe(value, backend="compiled")
            assert values
            assert folded.samples() == reference.samples()


class TestFoldBatchResult:
    def test_pool_counters_folded(self):
        rtg, result = mined()
        result.pool = {
            "workers": 3,
            "spawns": 3,
            "respawns": 1,
        }
        registry = MetricsRegistry()
        fold_batch_result(registry, result)
        assert registry.gauge("rtg_pool_workers").value() == 3
        events = registry.counter("rtg_pool_events_total")
        assert events.value(event="spawn") == 3
        assert events.value(event="respawn") == 1


class TestObservePatternDB:
    def test_snapshot_of_existing_database(self):
        rtg, _ = mined()
        registry = MetricsRegistry()
        observe_patterndb(registry, rtg.db)
        assert registry.gauge("rtg_patterndb_rows").value(
            table="patterns"
        ) == rtg.db.counts()["patterns"]


class TestWorkerMode:
    def test_batch_level_off_skips_batch_aggregates(self):
        registry = MetricsRegistry(const_labels={"worker": "0"})
        rtg = SequenceRTG(db=PatternDB(), metrics=registry)
        (observer,) = rtg.engine.observers
        assert isinstance(observer, MetricsObserver)
        observer.batch_level = False
        observer.db = None
        result = rtg.analyze_by_service(
            [LogRecord("svc", f"event {i} done") for i in range(10)]
        )
        names = {m.name for m in registry.collect() if m.samples()}
        assert "rtg_batches_total" not in names
        assert "rtg_patterndb_rows" not in names
        assert "rtg_stage_latency_seconds" in names
        # the outcome counters ride the reply's delta
        assert "rtg_records_total" in names
        # the pool sums these from every worker's reply
        assert set(result.timings) == {
            "scan", "parse", "partition_length", "analyze", "persist",
        }
        assert result.cache["dedup_unique"] == 10
        # every sample carries the worker const label
        for metric in registry.collect():
            for key in metric.samples():
                assert dict(key)["worker"] == "0"
