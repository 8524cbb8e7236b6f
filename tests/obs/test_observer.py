"""MetricsObserver semantics on the serial engine, and the fold helpers."""

import pytest

from repro.core.config import RTGConfig
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

    def test_db_gauges_track_database_state(self):
        rtg, _ = mined()
        counts = rtg.db.counts()
        rows = rtg.metrics.gauge("rtg_patterndb_rows")
        assert rows.value(table="patterns") == counts["patterns"]
        per_service = rtg.metrics.gauge("rtg_patterndb_patterns")
        for service, n in rtg.db.counts_by_service().items():
            assert per_service.value(service=service) == n

    def test_batch_result_carries_metrics_delta(self):
        """``BatchResult.metrics`` is the per-batch registry delta, not
        the cumulative state: the second batch reports its own counts."""
        rtg = SequenceRTG(db=PatternDB())
        generator = MessageGenerator(seed=3)
        rtg.analyze_by_service(generator.records(200, n_services=2))
        second = rtg.analyze_by_service(generator.records(100, n_services=2))
        batches = second.metrics["rtg_batches_total"]["samples"][0]["value"]
        assert batches == 1
        records = sum(
            s["value"] for s in second.metrics["rtg_records_total"]["samples"]
        )
        assert records == second.n_records

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

    def test_disabled_metrics_record_nothing(self):
        rtg, result = mined(enable_metrics=False)
        assert rtg.metrics.collect() == []
        assert result.metrics == {}


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
        for observer in rtg.engine.observers:
            if isinstance(observer, MetricsObserver):
                observer.batch_level = False
                observer.db = None
        result = rtg.analyze_by_service(
            [LogRecord("svc", f"event {i} done") for i in range(10)]
        )
        names = {m.name for m in registry.collect() if m.samples()}
        assert "rtg_batches_total" not in names
        assert "rtg_patterndb_rows" not in names
        assert "rtg_stage_latency_seconds" in names
        assert result.metrics == {}
        # every sample carries the worker const label
        for metric in registry.collect():
            for key in metric.samples():
                assert dict(key)["worker"] == "0"
