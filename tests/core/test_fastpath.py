"""Duplicate-aware fast lane: LRU caches, dedup, invalidation, equivalence.

The load-bearing guarantee is byte-identical mining output through the
fast lane and the ``per_occurrence_lane`` fixture — pattern ids, match
counts, examples and every ``BatchResult`` aggregate — over shuffled,
duplicate-heavy streams, serial and service-sharded.  Asserted, not assumed.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.core import pipeline
from repro.core.fastpath import FastPath, LRUCache, token_signature
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


class TestLRUCache:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: b is now the oldest
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_put_refresh_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh existing key at capacity
        assert cache.evictions == 0
        assert cache.get("a") == 10

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


class TestScanCache:
    def test_identical_message_scanned_once(self, scanner):
        lane = FastPath(scan_cache_size=16, match_cache_size=16)
        group = [LogRecord("svc", "connection from 10.0.0.1 closed")]
        (first,), _, _ = lane.scan_group(scanner, "svc", group)
        (again,), _, _ = lane.scan_group(scanner, "svc", group)
        assert again is first  # the cached object is shared
        snap = lane.snapshot()
        assert snap["scan_hits"] == 1 and snap["scan_misses"] == 1

    def test_eviction_keeps_results_correct(self, scanner):
        lane = FastPath(scan_cache_size=2)
        group = [LogRecord("svc", f"event {i} done") for i in range(5)]
        first, _, _ = lane.scan_group(scanner, "svc", group)
        again, _, _ = lane.scan_group(scanner, "svc", group)
        # every entry was evicted and rescanned at least once by the end
        assert lane.snapshot()["scan_evictions"] >= 3
        assert [m.token_texts() for m in again] == [m.token_texts() for m in first]

    def test_dedup_groups_and_counts(self, scanner):
        lane = FastPath(scan_cache_size=16, match_cache_size=16)
        group = [
            LogRecord("svc", "alpha 1"),
            LogRecord("svc", "beta 2"),
            LogRecord("svc", "alpha 1"),
            LogRecord("svc", "alpha 1"),
        ]
        scanned, counts, cached = lane.scan_group(scanner, "svc", group)
        assert [m.original for m in scanned] == ["alpha 1", "beta 2"]
        assert counts == [3, 1]
        assert cached == [False, False]  # first sighting of both
        snap = lane.snapshot()
        assert snap["dedup_unique"] == 2 and snap["dedup_duplicates"] == 2
        again, _, cached = lane.scan_group(scanner, "svc", group[:2])
        assert again[0] is scanned[0] and cached == [True, True]


class TestMatchCache:
    def _warm_rtg(self, records):
        rtg = SequenceRTG(db=PatternDB())
        rtg.analyze_by_service(records)
        return rtg

    def test_outcomes_cached_by_token_signature(self, ssh_records, scanner):
        rtg = self._warm_rtg(ssh_records)
        parser = rtg.parser_for("sshd")
        lane = FastPath(match_cache_size=16)
        msg = scanner.scan(ssh_records[0].message, service="sshd")
        first = lane.match("sshd", parser, msg)
        second = lane.match("sshd", parser, msg)
        assert second is first
        snap = lane.snapshot()
        assert snap["match_hits"] == 1 and snap["match_misses"] == 1

    def test_negative_outcomes_cached(self, ssh_records, scanner):
        rtg = self._warm_rtg(ssh_records)
        parser = rtg.parser_for("sshd")
        lane = FastPath(match_cache_size=16)
        msg = scanner.scan("no pattern knows this shape", service="sshd")
        assert lane.match("sshd", parser, msg) is None
        assert lane.match("sshd", parser, msg) is None
        assert lane.snapshot()["match_hits"] == 1

    def test_add_pattern_invalidates_cached_outcomes(self, ssh_records, scanner):
        from repro.analyzer.pattern import Pattern

        rtg = self._warm_rtg(ssh_records)
        parser = rtg.parser_for("sshd")
        lane = FastPath(match_cache_size=16)
        msg = scanner.scan("session sess01 throttled hard", service="sshd")
        assert lane.match("sshd", parser, msg) is None  # cached negative
        pattern = Pattern.from_text("session %alphanum% throttled hard", "sshd")
        parser.add_pattern(pattern)  # version bump
        hit = lane.match("sshd", parser, msg)
        assert hit is not None and hit.pattern.id == pattern.id

    def test_invalidation_is_per_service(self, ssh_records, hdfs_records, scanner):
        rtg = self._warm_rtg(ssh_records + hdfs_records)
        lane = FastPath(match_cache_size=16)
        ssh_msg = scanner.scan(ssh_records[0].message, service="sshd")
        hdfs_msg = scanner.scan(hdfs_records[0].message, service="hdfs")
        lane.match("sshd", rtg.parser_for("sshd"), ssh_msg)
        lane.match("hdfs", rtg.parser_for("hdfs"), hdfs_msg)
        lane.invalidate_service("sshd")
        lane.match("sshd", rtg.parser_for("sshd"), ssh_msg)  # miss again
        lane.match("hdfs", rtg.parser_for("hdfs"), hdfs_msg)  # still a hit
        snap = lane.snapshot()
        assert snap["match_hits"] == 1 and snap["match_misses"] == 3

    def test_signature_shares_outcomes_across_whitespace(self, ssh_records, scanner):
        rtg = self._warm_rtg(ssh_records)
        parser = rtg.parser_for("sshd")
        lane = FastPath(match_cache_size=16)
        a = scanner.scan(
            "Accepted password for eve from 9.9.9.9 port 22 ssh2", service="sshd"
        )
        b = scanner.scan(
            "Accepted  password for eve from 9.9.9.9  port 22 ssh2", service="sshd"
        )
        assert token_signature(a.tokens) == token_signature(b.tokens)
        lane.match("sshd", parser, a)
        lane.match("sshd", parser, b)
        assert lane.snapshot()["match_hits"] == 1


class TestPipelineInvalidation:
    def test_invalidate_service_drops_only_that_parser(self, rtg, ssh_records, hdfs_records):
        rtg.analyze_by_service(ssh_records + hdfs_records)
        ssh_parser = rtg.parser_for("sshd")
        hdfs_parser = rtg.parser_for("hdfs")
        rtg.invalidate_service("sshd")
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

    def test_cache_telemetry_in_batch_result(self, rtg, ssh_records):
        rtg.analyze_by_service(ssh_records)
        second = rtg.analyze_by_service(ssh_records)  # scans cached
        assert second.cache["scan_hits"] == len(ssh_records)
        assert second.cache["match_misses"] == len(ssh_records)
        third = rtg.analyze_by_service(ssh_records)  # matches cached too
        assert third.cache["match_hits"] == len(ssh_records)


class TestEquivalence:
    """The fast lane mines exactly what the per-occurrence lane mines."""

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

    def test_serial_with_tiny_caches_forcing_eviction(self, monkeypatch, request):
        batches = self._shuffled_batches(n_batches=2)
        monkeypatch.setattr(pipeline, "FastPath", partial(FastPath, 8, 8))
        fast = self._run_serial(batches)
        request.getfixturevalue("per_occurrence_lane")
        assert self._run_serial(batches) == fast

    def test_parallel_duplicate_heavy_stream(self, request):
        batches = self._shuffled_batches(n_batches=2, per_batch=600)
        # the pool's workers are fresh processes: they run the fast lane
        request.getfixturevalue("per_occurrence_lane")
        _, naive_db = self._run_serial(batches)

        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=3) as parallel:
            results = [parallel.analyze_by_service(batch) for batch in batches]
            # the union of the shards is the serial truth
            naive_counts = {pid: count for pid, _, count, _ in naive_db}
            parallel_counts = {r.id: r.match_count for r in parallel.db.rows()}
        assert parallel_counts == naive_counts
        for result, batch in zip(results, batches):
            assert result.n_records == len(batch)
            assert result.n_matched + result.n_unmatched == len(batch)

    def test_pool_workers_keep_their_caches_warm_across_batches(self):
        records = [
            LogRecord("sshd", f"Accepted password for u{i} from 10.0.0.{i} port {4000+i} ssh2")
            for i in range(8)
        ]
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=2) as parallel:
            parallel.analyze_by_service(records)  # one service → one worker
            result = parallel.analyze_by_service(records[:4])
            assert result.n_matched == 4
            assert result.cache["scan_hits"] == 4  # warm across batches
            result = parallel.analyze_by_service(records[:4])
            assert result.cache["match_hits"] == 4


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


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs", [{"scan_cache_size": -1}, {"match_cache_size": -1}]
    )
    def test_negative_cache_sizes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FastPath(**kwargs)
        (name,) = kwargs
        with pytest.raises(ValueError):  # a cache may shrink, not vanish
            FastPath(**{name: 0})
