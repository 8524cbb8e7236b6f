"""The fast lane: the scan stage's batch dedup, and parser invalidation.

The load-bearing guarantee is byte-identical mining output through
batch dedup and the ``per_occurrence_lane`` fixture — pattern ids, match
counts, examples and every ``BatchResult`` aggregate — over shuffled,
duplicate-heavy streams, serial and service-sharded.  Asserted, not assumed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import ScanStage
from repro.core.parallel import PersistentParallelSequenceRTG
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.workflow.stream import ProductionStream, StreamConfig


def duplicate_heavy_records(n=1200, seed=99, duplicate_fraction=0.8, n_services=20):
    stream = ProductionStream(
        StreamConfig(
            n_services=n_services, seed=seed, duplicate_fraction=duplicate_fraction
        )
    )
    return list(stream.records(n))


def db_state(db: PatternDB):
    """Everything that must be identical between the two lanes."""
    return sorted(
        (r.id, r.pattern_text, r.match_count, tuple(r.examples)) for r in db.rows()
    )


def result_aggregates(result):
    return (
        result.n_records,
        result.n_services,
        result.n_matched,
        result.n_unmatched,
        result.n_partitions,
        result.n_new_patterns,
        result.n_below_threshold,
        result.max_trie_nodes,
        sorted(p.id for p in result.new_patterns),
    )


class TestScanCache:
    def test_dedup_groups_and_counts(self, rtg):
        group = [
            LogRecord("svc", "alpha 1"),
            LogRecord("svc", "beta 2"),
            LogRecord("svc", "alpha 1"),
            LogRecord("svc", "alpha 1"),
        ]
        scanned, counts = ScanStage(rtg).scan_group("svc", group)
        # first-occurrence order plus multiplicities: what weighted trie
        # insertion needs to reproduce the per-occurrence result
        assert scanned.originals == ["alpha 1", "beta 2"]
        assert counts == [3, 1]


class TestPipelineInvalidation:
    def test_invalidate_service_drops_only_that_parser(self, rtg, ssh_records, hdfs_records):
        rtg.analyze_by_service(ssh_records + hdfs_records)
        ssh_parser = rtg.parser_for("sshd")
        hdfs_parser = rtg.parser_for("hdfs")
        rtg.states["sshd"].drop()
        assert rtg.parser_for("sshd") is not ssh_parser
        assert rtg.parser_for("hdfs") is hdfs_parser

    def test_add_known_pattern_extends_parser_in_place(self, rtg, ssh_records):
        from repro.analyzer.pattern import Pattern

        rtg.analyze_by_service(ssh_records)
        parser = rtg.parser_for("sshd")
        n_before = len(parser)
        pattern = Pattern.from_text("banner printed for %user%", "sshd")
        pattern.support = 1
        rtg.add_known_pattern(pattern)
        assert rtg.parser_for("sshd") is parser  # not rebuilt
        assert len(parser) == n_before + 1
        result = rtg.analyze_by_service(
            [LogRecord("sshd", "banner printed for alice")]
        )
        assert result.n_matched == 1

class TestEquivalence:
    """Batch dedup mines exactly what the per-occurrence lane mines."""

    def _run_serial(self, batches):
        rtg = SequenceRTG(db=PatternDB())
        aggregates = [
            result_aggregates(rtg.analyze_by_service(batch)) for batch in batches
        ]
        return aggregates, db_state(rtg.db)

    def _shuffled_batches(self, n_batches=4, per_batch=700):
        records = duplicate_heavy_records(n=n_batches * per_batch)
        batches = [
            records[i * per_batch : (i + 1) * per_batch] for i in range(n_batches)
        ]
        for i, batch in enumerate(batches):
            random.Random(i).shuffle(batch)
        return batches

    def test_serial_duplicate_heavy_stream(self, request):
        batches = self._shuffled_batches()
        fast = self._run_serial(batches)
        request.getfixturevalue("per_occurrence_lane")
        assert self._run_serial(batches) == fast

    def test_parallel_duplicate_heavy_stream(self, request):
        batches = self._shuffled_batches(n_batches=2, per_batch=600)
        # the pool's workers are fresh processes: they run batch dedup
        request.getfixturevalue("per_occurrence_lane")
        _, naive_db = self._run_serial(batches)

        with PatternDB() as db, PersistentParallelSequenceRTG(
            db=db, n_workers=3
        ) as parallel:
            results = [parallel.analyze_by_service(batch) for batch in batches]
            # the union of the shards is the serial truth
            naive_counts = {pid: count for pid, _, count, _ in naive_db}
            parallel_counts = {r.id: r.match_count for r in parallel.db.rows()}
        assert parallel_counts == naive_counts
        for result, batch in zip(results, batches):
            assert result.n_records == len(batch)
            assert result.n_matched + result.n_unmatched == len(batch)

class TestDuplicateStream:
    def test_duplicate_fraction_produces_repeats(self):
        records = duplicate_heavy_records(n=1000, duplicate_fraction=0.8)
        distinct = {(r.service, r.message) for r in records}
        assert len(distinct) < len(records) * 0.45

    def test_zero_fraction_reproduces_historic_stream(self):
        a = ProductionStream(StreamConfig(n_services=10, seed=3))
        b = ProductionStream(
            StreamConfig(n_services=10, seed=3, duplicate_fraction=0.0)
        )
        assert [(r.service, r.message) for r in a.records(200)] == [
            (r.service, r.message) for r in b.records(200)
        ]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            StreamConfig(duplicate_fraction=1.0)
        with pytest.raises(ValueError):
            StreamConfig(duplicate_window=0)
