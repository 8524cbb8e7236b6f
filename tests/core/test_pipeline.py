"""AnalyzeByService pipeline: the Fig. 2 workflow semantics."""

import dataclasses

import pytest

from repro.core.config import RTGConfig
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord


class TestFirstBatch:
    def test_discovers_per_service(self, rtg, ssh_records, hdfs_records):
        result = rtg.analyze_by_service(ssh_records + hdfs_records)
        assert result.n_records == len(ssh_records) + len(hdfs_records)
        assert result.n_services == 2
        assert result.n_matched == 0  # empty database: nothing parses
        assert result.n_unmatched == result.n_records
        assert result.n_new_patterns == 2
        services = {p.service for p in result.new_patterns}
        assert services == {"sshd", "hdfs"}

    def test_length_partitioning(self, rtg):
        records = [
            LogRecord("svc", "a b c"),
            LogRecord("svc", "a b c d"),
            LogRecord("svc", "a b"),
        ]
        result = rtg.analyze_by_service(records)
        assert result.n_partitions == 3

    def test_timings_and_trie_telemetry(self, rtg, ssh_records):
        result = rtg.analyze_by_service(ssh_records)
        assert set(result.timings) >= {"scan", "parse", "analyze", "persist"}
        assert result.max_trie_nodes > 0


class TestParseFirst:
    """"If a match is found ... no further processing occurs for this
    message" (paper §III)."""

    def test_second_batch_matches_known(self, rtg, ssh_records):
        rtg.analyze_by_service(ssh_records)
        more = [
            LogRecord("sshd", "Accepted password for user99 from 10.9.9.9 port 41999 ssh2")
        ]
        result = rtg.analyze_by_service(more)
        assert result.n_matched == 1
        assert result.n_unmatched == 0
        assert result.n_new_patterns == 0

    def test_match_updates_db_statistics(self, rtg, ssh_records):
        rtg.analyze_by_service(ssh_records)
        (row_before,) = rtg.db.rows(service="sshd")
        rtg.analyze_by_service(
            [LogRecord("sshd", "Accepted password for userx from 10.1.1.1 port 40100 ssh2")]
        )
        (row_after,) = rtg.db.rows(service="sshd")
        assert row_after.match_count == row_before.match_count + 1

    def test_services_do_not_cross_match(self, rtg, ssh_records):
        rtg.analyze_by_service(ssh_records)
        # the same message under a new service must not match sshd patterns
        result = rtg.analyze_by_service(
            [LogRecord("other", ssh_records[0].message)]
        )
        assert result.n_matched == 0
        assert result.n_new_patterns >= 0  # analysed under its own service


class TestSaveThreshold:
    def test_below_threshold_not_persisted(self):
        config = RTGConfig(save_threshold=3)
        rtg = SequenceRTG(db=PatternDB(), config=config)
        records = [LogRecord("svc", "rare event 1 x")]
        result = rtg.analyze_by_service(records)
        assert result.n_new_patterns == 0
        assert result.n_below_threshold == 1
        assert rtg.db.rows() == []

    def test_at_threshold_persisted(self):
        config = RTGConfig(save_threshold=3)
        rtg = SequenceRTG(db=PatternDB(), config=config)
        records = [LogRecord("svc", f"evt blk_{i} done") for i in range(3)]
        result = rtg.analyze_by_service(records)
        assert result.n_new_patterns == 1


class TestParserCache:
    def test_parser_reused_and_extended(self, rtg, ssh_records):
        parser1 = rtg.parser_for("sshd")
        assert len(parser1) == 0
        rtg.analyze_by_service(ssh_records)
        parser2 = rtg.parser_for("sshd")
        assert parser2 is parser1  # same cached object, updated in place
        assert len(parser2) == 1

    def test_invalidate_reloads_from_db(self, rtg, ssh_records):
        rtg.analyze_by_service(ssh_records)
        rtg.invalidate_parsers()
        parser = rtg.parser_for("sshd")
        assert len(parser) == 1  # reloaded from the database

    def test_persistence_across_instances(self, ssh_records, tmp_path):
        path = str(tmp_path / "p.db")
        rtg1 = SequenceRTG(db=PatternDB(path))
        rtg1.analyze_by_service(ssh_records)
        rtg2 = SequenceRTG(db=PatternDB(path))
        result = rtg2.analyze_by_service(
            [LogRecord("sshd", "Accepted password for usery from 10.2.2.2 port 40222 ssh2")]
        )
        assert result.n_matched == 1


class TestProcessStream:
    def test_yields_one_result_per_batch(self, rtg, ssh_records):
        batches = [ssh_records[:4], ssh_records[4:]]
        results = list(rtg.process_stream(batches))
        assert len(results) == 2
        assert results[0].n_records == 4


class TestLegacyMode:
    def test_single_trie_over_everything(self, rtg, ssh_records, hdfs_records):
        patterns = rtg.analyze_legacy(ssh_records + hdfs_records)
        assert patterns  # mixed services, one trie
        assert rtg.last_legacy_trie_nodes > 0
        # legacy mode persists nothing
        assert rtg.db.rows() == []

    def test_matched_fraction_property(self, rtg, ssh_records):
        result = rtg.analyze_by_service(ssh_records)
        assert result.matched_fraction == 0.0
        assert rtg.analyze_by_service(ssh_records[:1]).matched_fraction == 1.0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"save_threshold": 0},
            {"mode": "online"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RTGConfig(**kwargs)

    @pytest.mark.parametrize("name", [
        "max_examples", "db_durable", "export_min_count", "export_max_complexity",
        "enable_fastpath", "scan_cache_size", "match_cache_size", "pool_workers",
        "ingest_prefetch",
    ])
    def test_deleted_fields_rejected(self, name):
        with pytest.raises(TypeError):
            RTGConfig(**{name: 1})

    def test_fast_lane_is_a_constant(self):
        with pytest.raises(AttributeError):
            RTGConfig().enable_fastpath = False
        assert [f.name for f in dataclasses.fields(RTGConfig)] == [
            "batch_size", "save_threshold", "enable_metrics", "mode",
            "streaming", "scanner", "parser", "analyzer",
        ]


class TestDeterminism:
    def test_two_runs_identical_database(self, ssh_records, hdfs_records):
        """Reproducibility end to end: two pipelines over the same batch
        produce byte-identical pattern rows (ids, texts, counts)."""
        from repro.workflow.stream import ProductionStream, StreamConfig

        records = list(
            ProductionStream(StreamConfig(n_services=20, seed=77)).records(800)
        )

        def run():
            rtg = SequenceRTG(db=PatternDB())
            rtg.analyze_by_service(records)
            return sorted(
                (r.id, r.pattern_text, r.match_count) for r in rtg.db.rows()
            )

        assert run() == run()

    def test_batch_order_within_service_does_not_change_ids(self, ssh_records):
        """Shuffling a batch changes nothing: the trie is order-insensitive
        for same-length messages of one service."""
        import random

        shuffled = list(ssh_records)
        random.Random(5).shuffle(shuffled)
        a = SequenceRTG(db=PatternDB())
        a.analyze_by_service(ssh_records)
        b = SequenceRTG(db=PatternDB())
        b.analyze_by_service(shuffled)
        assert {r.id for r in a.db.rows()} == {r.id for r in b.db.rows()}
