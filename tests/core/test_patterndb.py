"""Pattern database: persistence, statistics, example cap, pruning."""

import os
import sqlite3
from datetime import datetime, timezone

import pytest

from repro.analyzer.pattern import Pattern, VarClass
from repro.cli import main
from repro.core.patterndb import PatternDB, route_service


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


def populated(path=":memory:", n_services=10):
    """Several services, ties in match count, examples, two dates."""
    db = PatternDB(path)
    for s in range(n_services):
        for p in range(1 + s % 4):
            db.upsert(
                make_pattern(
                    f"event {p} of %string% took %integer% ms",
                    service=f"svc-{s}",
                    support=1 + (s + p) % 3,
                    examples=[f"event {p} of x{e} took {e} ms" for e in range(p + 1)],
                ),
                now=T0 if p % 2 else T1,
            )
    return db


def without_dates(dump):
    return [
        {k: v for k, v in entry.items() if k not in ("first_seen", "last_matched")}
        for entry in dump
    ]


class TestShardedLayout:
    def test_shard_moves_every_row_to_its_owner_unchanged(self, tmp_path):
        path = str(tmp_path / "p.db")
        db = populated(path)
        before = db.dump()
        counts, per_service = db.counts(), db.counts_by_service()
        paths = db.shard(3)
        assert paths == [f"{path}.{i}" for i in range(3)]
        placed = []
        for index, shard_path in enumerate(paths):
            services = PatternDB(shard_path).services()
            assert all(route_service(s, 3) == index for s in services)
            placed += services
        assert sorted(placed) == sorted(per_service)
        # the main file keeps the manifest and nothing else
        raw = sqlite3.connect(path)
        assert raw.execute("SELECT COUNT(*) FROM patterns").fetchone() == (0,)
        assert raw.execute("SELECT COUNT(*) FROM services").fetchone() == (0,)
        assert raw.execute("SELECT n_shards FROM shard_manifest").fetchall() == [(3,)]
        for handle in (db, PatternDB(path)):
            assert handle.dump() == before
            assert handle.counts() == counts
            assert handle.counts_by_service() == per_service
            assert handle.services() == sorted(per_service)

    def test_union_reads_equal_one_file_built_by_merge_from(self, tmp_path):
        sharded = populated(str(tmp_path / "p.db"))
        sharded.shard(4)
        single = PatternDB()
        assert single.merge_from(sharded) == sharded.counts()["patterns"]
        assert without_dates(sharded.dump()) == without_dates(single.dump())
        assert sharded.counts() == single.counts()
        assert sharded.counts_by_service() == single.counts_by_service()
        assert sharded.services() == single.services()
        for service in single.services() + ["no-such-service"]:
            assert [r.id for r in sharded.rows(service=service)] == [
                r.id for r in single.rows(service=service)
            ]
            assert [p.text for p in sharded.load_service(service)] == [
                p.text for p in single.load_service(service)
            ]
        assert [r.id for r in sharded.rows(min_count=2)] == [
            r.id for r in single.rows(min_count=2)
        ]
        for row in single.rows():
            found = sharded.row(row.id)
            assert (found.service, found.match_count, found.examples) == (
                row.service, row.match_count, row.examples
            )
        assert sharded.row("0" * 40) is None
        # T0-stamped rows are stale half a day into T1, in (service, id) order
        stale = sharded.stale_patterns(0.5, now=T1)
        assert stale == sorted(
            (r.service, r.id) for r in sharded.rows() if r.last_matched < T1.isoformat()
        )
        assert stale

    def test_more_shards_than_sqlite_can_attach(self, tmp_path):
        db = populated(str(tmp_path / "p.db"), n_services=30)
        before = db.dump()
        assert len(db.shard(12)) == 12
        assert PatternDB(db.path).dump() == before

    def test_manifest_naming_a_missing_file_raises(self, tmp_path):
        path = str(tmp_path / "p.db")
        db = populated(path)
        db.shard(2)
        db.close()
        os.remove(path + ".1")
        with pytest.raises(FileNotFoundError, match=r"p\.db\.1"):
            PatternDB(path)

    def test_direct_writes_through_a_sharded_handle_raise(self, tmp_path):
        db = populated(str(tmp_path / "p.db"))
        db.shard(2)
        before = db.dump()
        pid = before[0]["id"]
        for write in (
            lambda: db.upsert(make_pattern()),
            lambda: db.add_example(pid, "one more"),
            lambda: db.record_match(pid),
            lambda: db.record_matches({pid: 2}),
            lambda: db.delete_patterns([pid]),
            lambda: db.transaction(),
        ):
            with pytest.raises(RuntimeError, match="sharded over 2 files"):
                write()
        assert db.dump() == before

    def test_prune_acts_on_every_shard(self, tmp_path):
        sharded = populated(str(tmp_path / "p.db"))
        sharded.shard(3)
        single = PatternDB()
        single.merge_from(sharded)
        assert sharded.prune(2) == single.prune(2) > 0
        assert without_dates(sharded.dump()) == without_dates(single.dump())
        assert sharded.counts() == single.counts()

    def test_merge_from_routes_each_pattern_to_its_owner(self, tmp_path):
        target = PatternDB(str(tmp_path / "p.db"))
        paths = target.shard(3)
        source = populated()
        assert target.merge_from(source) == source.counts()["patterns"]
        assert without_dates(target.dump()) == without_dates(source.dump())
        for index, shard_path in enumerate(paths):
            for service in PatternDB(shard_path).services():
                assert route_service(service, 3) == index
        # match counts accumulate in place, as in one file
        target.merge_from(source)
        assert [e["match_count"] for e in target.dump()] == [
            2 * e["match_count"] for e in source.dump()
        ]

    def test_reshard_under_another_count(self, tmp_path):
        path = str(tmp_path / "p.db")
        db = populated(path)
        before = db.dump()
        for n in (2, 3, 1, 4):
            db.shard(n)
            assert db.dump() == before
            assert PatternDB(path).dump() == before
            present = sorted(
                name for name in os.listdir(tmp_path)
                if not name.endswith(("-wal", "-shm"))
            )
            assert present == ["p.db"] + [f"p.db.{i}" for i in range(n)]

    def test_interrupted_move_is_redone(self, tmp_path, monkeypatch):
        """Copies made, sources not yet emptied, manifest not written:
        the next call starts the destination files over."""
        path = str(tmp_path / "p.db")
        db = populated(path)
        before = db.dump()

        def crash(self, services):
            if services:  # the first file to be emptied: the copies exist
                raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(PatternDB, "_drop_services", crash)
            with pytest.raises(KeyboardInterrupt):
                PatternDB(path).shard(2)
        assert PatternDB(path + ".0").counts()["patterns"] > 0
        # still one file as far as any reader can tell; a pattern retired
        # meanwhile must not come back from the abandoned copy
        db.delete_patterns([before[0]["id"]])
        assert db.dump() == before[1:]
        db.shard(2)
        assert db.dump() == before[1:]
        assert PatternDB(path).dump() == before[1:]

    def test_in_memory_database_owns_its_shard_directory(self):
        db = populated()
        before = db.dump()
        paths = db.shard(2)
        directory = os.path.dirname(paths[0])
        assert os.path.isdir(directory)
        assert db.dump() == before
        db.close()
        assert not os.path.exists(directory)

    def test_stored_reply_is_the_last_call_only(self, tmp_path):
        db = PatternDB(str(tmp_path / "p.db"))
        assert db.stored_reply("a:1") is None
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.upsert(make_pattern(), now=T0)
                db.store_reply("a:1", b"lost")
                raise RuntimeError("worker dies before the commit")
        assert db.stored_reply("a:1") is None and db.rows() == []
        with db.transaction():
            db.upsert(make_pattern(), now=T0)
            db.store_reply("a:1", b"kept")
        assert PatternDB(db.path).stored_reply("a:1") == b"kept"
        db.store_reply("a:2", b"next")
        assert db.stored_reply("a:1") is None
        assert db.stored_reply("a:2") == b"next"


class TestCliOnAShardedPath:
    """``export``/``report``/``stats``/``parse``/``metrics`` print for a
    sharded database what they print for the same rows in one file."""

    @pytest.fixture()
    def paths(self, tmp_path):
        single, sharded = str(tmp_path / "one.db"), str(tmp_path / "many.db")
        for path in (single, sharded):
            populated(path).close()
        db = PatternDB(sharded)
        db.shard(3)
        db.close()
        return single, sharded

    @pytest.mark.parametrize(
        "command",
        [
            ["export"],
            ["export", "--format", "grok", "--service", "svc-3"],
            ["export", "--format", "yaml", "--min-count", "2"],
            ["report"],
            ["report", "--service", "svc-7", "--limit", "2"],
            ["stats"],
            ["metrics"],
            ["parse", "--service", "svc-3"],
        ],
    )
    def test_same_output(self, paths, command, capsys, tmp_path):
        if command[0] == "parse":
            log = tmp_path / "in.log"
            log.write_text("event 1 of x9 took 9 ms\nno such event\n")
            command = [command[0], str(log), *command[1:]]
        printed = []
        for path in paths:
            assert main(["--db", path, *command]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] and printed[0] == printed[1]

    def test_prune_and_merge_act_on_every_shard(self, paths, capsys, tmp_path):
        single, sharded = paths
        for path in paths:
            assert main(["--db", path, "prune", "--threshold", "2"]) == 0
        errs = capsys.readouterr().err.splitlines()
        assert errs[0] == errs[1] and errs[0].startswith("pruned ")
        assert PatternDB(sharded).dump() == PatternDB(single).dump()

        extra = str(tmp_path / "extra.db")
        other = PatternDB(extra)
        other.upsert(make_pattern("disk %string% full", "svc-new", support=4), now=T0)
        other.close()
        for path in paths:
            assert main(["--db", path, "merge", extra]) == 0
        assert without_dates(PatternDB(sharded).dump()) == without_dates(
            PatternDB(single).dump()
        )
        # and a sharded database can be folded back into one file
        folded = str(tmp_path / "folded.db")
        assert main(["--db", folded, "merge", sharded]) == 0
        assert without_dates(PatternDB(folded).dump()) == without_dates(
            PatternDB(sharded).dump()
        )
