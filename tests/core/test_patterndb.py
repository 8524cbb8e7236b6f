"""Pattern database: persistence, statistics, example cap, pruning."""

from datetime import datetime, timezone

import pytest

from repro.analyzer.pattern import Pattern, VarClass
from repro.core.patterndb import PatternDB


def make_pattern(text="login %string% ok", service="sshd", support=1, examples=()):
    pattern = Pattern.from_text(text, service)
    pattern.support = support
    for e in examples:
        pattern.add_example(e)
    return pattern


T0 = datetime(2021, 9, 1, tzinfo=timezone.utc)
T1 = datetime(2021, 9, 2, tzinfo=timezone.utc)


class TestUpsert:
    def test_insert_and_load(self):
        db = PatternDB()
        pid = db.upsert(make_pattern(support=3, examples=["login a ok"]), now=T0)
        rows = db.rows()
        assert len(rows) == 1
        assert rows[0].id == pid
        assert rows[0].match_count == 3
        assert rows[0].examples == ["login a ok"]
        assert rows[0].first_seen == T0.isoformat()

    def test_reupsert_accumulates(self):
        db = PatternDB()
        db.upsert(make_pattern(support=3), now=T0)
        db.upsert(make_pattern(support=2), now=T1)
        (row,) = db.rows()
        assert row.match_count == 5
        assert row.first_seen == T0.isoformat()
        assert row.last_matched == T1.isoformat()

    def test_requires_service(self):
        db = PatternDB()
        with pytest.raises(ValueError):
            db.upsert(make_pattern(service=""))

    def test_round_trip_to_pattern(self):
        db = PatternDB()
        original = make_pattern("conn from %srcip% port %srcport%", "sshd")
        db.upsert(original, now=T0)
        (row,) = db.rows()
        restored = row.to_pattern()
        assert restored.text == original.text
        assert restored.id == original.id
        assert restored.tokens[2].var_class is VarClass.IPV4


class TestExamples:
    def test_example_cap_three_unique(self):
        db = PatternDB()
        pid = db.upsert(make_pattern(examples=["e1", "e2"]), now=T0)
        db.add_example(pid, "e2")  # duplicate ignored
        db.add_example(pid, "e3")
        db.add_example(pid, "e4")  # over cap
        (row,) = db.rows()
        assert row.examples == ["e1", "e2", "e3"]

    def test_examples_merged_on_reupsert(self):
        db = PatternDB()
        db.upsert(make_pattern(examples=["e1"]), now=T0)
        db.upsert(make_pattern(examples=["e2"]), now=T1)
        (row,) = db.rows()
        assert row.examples == ["e1", "e2"]


class TestQueries:
    def _seed(self, db):
        db.upsert(make_pattern("a %integer%", "svc1", support=10), now=T0)
        db.upsert(make_pattern("b %string% %string1%", "svc1", support=2), now=T0)
        db.upsert(make_pattern("c literal only", "svc2", support=5), now=T0)

    def test_filter_by_service(self):
        db = PatternDB()
        self._seed(db)
        assert len(db.rows(service="svc1")) == 2
        assert len(db.rows(service="svc2")) == 1
        assert db.rows(service="nope") == []

    def test_filter_by_min_count(self):
        db = PatternDB()
        self._seed(db)
        assert len(db.rows(min_count=5)) == 2

    def test_filter_by_complexity(self):
        db = PatternDB()
        self._seed(db)
        rows = db.rows(max_complexity=0.55)
        assert {r.pattern_text for r in rows} == {"a %integer%", "c literal only"}

    def test_services_listing(self):
        db = PatternDB()
        self._seed(db)
        assert db.services() == ["svc1", "svc2"]

    def test_load_service_returns_patterns(self):
        db = PatternDB()
        self._seed(db)
        patterns = db.load_service("svc1")
        assert {p.text for p in patterns} == {"a %integer%", "b %string% %string1%"}
        assert all(p.service == "svc1" for p in patterns)

    def test_counts(self):
        db = PatternDB()
        self._seed(db)
        counts = db.counts()
        assert counts["patterns"] == 3
        assert counts["services"] == 2


class TestRowLookup:
    def test_row_equals_the_rows_entry(self):
        db = PatternDB()
        pid = db.upsert(
            make_pattern(support=3, examples=["login a ok", "login b ok"]), now=T0
        )
        db.upsert(make_pattern("logout %string%", support=2), now=T1)
        (expected,) = [row for row in db.rows() if row.id == pid]
        assert db.row(pid) == expected
        assert db.row(pid).examples == ["login a ok", "login b ok"]

    def test_unknown_id_is_none(self):
        db = PatternDB()
        db.upsert(make_pattern(), now=T0)
        assert db.row("no-such-id") is None


class TestRecordMatch:
    def test_bumps_count_and_date(self):
        db = PatternDB()
        pid = db.upsert(make_pattern(support=1), now=T0)
        db.record_match(pid, n=4, now=T1)
        (row,) = db.rows()
        assert row.match_count == 5
        assert row.last_matched == T1.isoformat()


class TestPrune:
    def test_save_threshold(self):
        """Paper §IV: patterns matched fewer times than the threshold are
        considered useless and not kept."""
        db = PatternDB()
        db.upsert(make_pattern("rare %integer%", support=1), now=T0)
        db.upsert(make_pattern("common %integer%", support=50), now=T0)
        removed = db.prune(save_threshold=5)
        assert removed == 1
        (row,) = db.rows()
        assert row.pattern_text == "common %integer%"

    def test_prune_removes_orphan_examples(self):
        db = PatternDB()
        db.upsert(make_pattern("rare %integer%", support=1, examples=["x"]), now=T0)
        db.prune(save_threshold=5)
        assert db.counts()["examples"] == 0


class TestDiskPersistence:
    def test_patterns_survive_reopen(self, tmp_path):
        path = str(tmp_path / "patterns.db")
        with PatternDB(path) as db:
            db.upsert(make_pattern(support=7), now=T0)
        with PatternDB(path) as db2:
            (row,) = db2.rows()
            assert row.match_count == 7


class TestRecordMatches:
    def test_equivalent_to_per_id_record_match(self):
        a, b = PatternDB(), PatternDB()
        pids = []
        for text in ("login %string% ok", "logout %string% ok"):
            pids.append(a.upsert(make_pattern(text), now=T0))
            b.upsert(make_pattern(text), now=T0)
        counts = {pids[0]: 3, pids[1]: 7}
        a.record_matches(counts, now=T1)
        for pid, n in counts.items():
            b.record_match(pid, n=n, now=T1)
        assert a.dump() == b.dump()

    def test_empty_counts_is_a_no_op(self):
        db = PatternDB()
        db.record_matches({}, now=T1)  # must not even open a statement
        assert db.counts()["patterns"] == 0


class TestTransaction:
    def test_rollback_on_error(self, tmp_path):
        path = str(tmp_path / "patterns.db")
        db = PatternDB(path)
        db.upsert(make_pattern("kept %integer%"), now=T0)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.upsert(make_pattern("doomed %integer%"), now=T0)
                raise RuntimeError("boom")
        db.close()
        with PatternDB(path) as reopened:
            (row,) = reopened.rows()
            assert row.pattern_text == "kept %integer%"

    def test_commit_deferred_until_block_exit(self, tmp_path):
        path = str(tmp_path / "patterns.db")
        db = PatternDB(path)
        observer = PatternDB(path)  # separate connection, sees commits only
        with db.transaction():
            db.upsert(make_pattern(), now=T0)
            assert observer.rows() == []
        assert len(observer.rows()) == 1
        observer.close()
        db.close()

    def test_nested_blocks_commit_once_at_outermost(self, tmp_path):
        path = str(tmp_path / "patterns.db")
        db = PatternDB(path)
        observer = PatternDB(path)
        with db.transaction():
            with db.transaction():
                db.upsert(make_pattern(), now=T0)
            # inner exit must not commit: the outermost block owns it
            assert observer.rows() == []
        assert len(observer.rows()) == 1
        observer.close()
        db.close()


class TestJournalMode:
    def test_default_opens_wal_with_normal_sync(self, tmp_path):
        db = PatternDB(str(tmp_path / "patterns.db"))
        assert db._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        # synchronous: 1 == NORMAL
        assert db._conn.execute("PRAGMA synchronous").fetchone()[0] == 1
        db.close()

    def test_durable_keeps_rollback_journal(self, tmp_path):
        db = PatternDB(str(tmp_path / "patterns.db"), durable=True)
        assert db._conn.execute("PRAGMA journal_mode").fetchone()[0] == "delete"
        # synchronous: 2 == FULL (sqlite default)
        assert db._conn.execute("PRAGMA synchronous").fetchone()[0] == 2
        db.close()

    def test_wal_db_readable_by_second_connection(self, tmp_path):
        path = str(tmp_path / "patterns.db")
        db = PatternDB(path)
        db.upsert(make_pattern(), now=T0)
        other = PatternDB(path)
        assert len(other.rows()) == 1
        other.close()
        db.close()

    def test_memory_db_unaffected(self):
        db = PatternDB()  # :memory: cannot use WAL; pragmas are no-ops
        assert db._conn.execute("PRAGMA journal_mode").fetchone()[0] == "memory"
        db.upsert(make_pattern(), now=T0)
        assert len(db.rows()) == 1
        db.close()


class TestDeletePatterns:
    def test_deletes_rows_and_examples(self):
        db = PatternDB()
        keep = db.upsert(make_pattern(text="kept %string% row"), now=T0)
        drop_a = db.upsert(
            make_pattern(text="dropped %string% row", examples=["dropped x row"]),
            now=T0,
        )
        drop_b = db.upsert(make_pattern(text="dropped %string% too"), now=T0)
        assert db.delete_patterns([drop_a, drop_b]) == 2
        assert [r.id for r in db.rows()] == [keep]
        # no orphan examples behind the deleted rows
        n_examples = db._conn.execute("SELECT COUNT(*) FROM examples").fetchone()[0]
        assert n_examples == 0

    def test_unknown_ids_count_zero(self):
        db = PatternDB()
        pid = db.upsert(make_pattern(), now=T0)
        assert db.delete_patterns(["nope", "also-nope"]) == 0
        assert db.delete_patterns([]) == 0
        assert [r.id for r in db.rows()] == [pid]

    def test_delete_inside_transaction_rolls_back(self, tmp_path):
        db = PatternDB(str(tmp_path / "p.db"))
        pid = db.upsert(make_pattern(), now=T0)
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.delete_patterns([pid])
                raise RuntimeError("abort")
        assert [r.id for r in db.rows()] == [pid]


class TestStalePatterns:
    def test_stale_by_last_matched(self):
        db = PatternDB()
        old = db.upsert(make_pattern(text="old %string% row"), now=T0)
        fresh = db.upsert(make_pattern(text="fresh %string% row"), now=T0)
        late = datetime(2021, 10, 15, tzinfo=timezone.utc)
        db.record_match(fresh, n=1, now=late)
        stale = db.stale_patterns(30.0, now=late)
        assert stale == [("sshd", old)]

    def test_never_matched_rows_are_not_stale(self):
        db = PatternDB()
        pid = db.upsert(make_pattern(), now=T0)
        db._conn.execute(
            "UPDATE patterns SET last_matched = NULL WHERE id = ?", (pid,)
        )
        far = datetime(2022, 9, 1, tzinfo=timezone.utc)
        assert db.stale_patterns(1.0, now=far) == []

    def test_evict_stale_deletes_and_counts(self):
        db = PatternDB()
        db.upsert(make_pattern(text="old %string% row"), now=T0)
        fresh = db.upsert(make_pattern(text="fresh %string% row"), now=T0)
        late = datetime(2021, 10, 15, tzinfo=timezone.utc)
        db.record_match(fresh, n=1, now=late)
        assert db.evict_stale(30.0, now=late) == 1
        assert [r.id for r in db.rows()] == [fresh]

    def test_upsert_refreshes_last_matched(self):
        """Re-upserting (the warm pool's delta merge path) counts as a
        match: the row must not look stale afterwards."""
        db = PatternDB()
        pid = db.upsert(make_pattern(support=2), now=T0)
        late = datetime(2021, 10, 15, tzinfo=timezone.utc)
        db.upsert(make_pattern(support=3), now=late)
        (row,) = db.rows()
        assert row.id == pid
        assert row.last_matched == late.isoformat()
        assert db.stale_patterns(30.0, now=late) == []
