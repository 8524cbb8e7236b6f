"""Service-sharded AnalyzeByService: every pool worker a serial miner
over its own shard file, the database the union of the shards."""

import os
import signal
from datetime import datetime, timezone
from functools import partial

import pytest

from repro.core.parallel import (
    PersistentParallelSequenceRTG,
    _worker_main,
    route_service,
    shard_records,
)
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.workflow.stream import ProductionStream, StreamConfig

DAYS = [datetime(2026, 3, day, tzinfo=timezone.utc) for day in range(1, 7)]


def records_for_test(n=600, n_services=12, seed=6):
    stream = ProductionStream(StreamConfig(n_services=n_services, seed=seed))
    return list(stream.records(n))


def batches_for_test(n_batches=5, per_batch=250, n_services=12, seed=6,
                     duplicate_fraction=0.5):
    """Consecutive batches from one continuous stream: pattern discovery
    spans batches, later batches mostly match earlier patterns."""
    stream = ProductionStream(StreamConfig(
        n_services=n_services, seed=seed,
        duplicate_fraction=duplicate_fraction,
    ))
    return [list(stream.records(per_batch)) for _ in range(n_batches)]


def serial_reference(batches):
    """A clean serial run, batch *i* stamped with ``DAYS[i]``."""
    serial = SequenceRTG(db=PatternDB())
    results = [
        serial.analyze_by_service(batch, now=now)
        for batch, now in zip(batches, DAYS)
    ]
    return serial, results


def total_matches(db):
    return sum(row.match_count for row in db.rows())


def sshd_records(n=8):
    return [
        LogRecord("sshd", f"Accepted password for u{i} from 10.0.0.{i} port {4000+i} ssh2")
        for i in range(n)
    ]


class TestSharding:
    def test_services_never_split_across_shards(self):
        records = records_for_test()
        shards = shard_records(records, 4)
        seen: dict[str, int] = {}
        for i, shard in enumerate(shards):
            for record in shard:
                assert seen.setdefault(record.service, i) == i
                assert route_service(record.service, 4) == i

    def test_all_records_covered(self):
        records = records_for_test()
        shards = shard_records(records, 3)
        assert sum(len(s) for s in shards) == len(records)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_records([], 0)
        with pytest.raises(ValueError):
            PersistentParallelSequenceRTG(db=PatternDB(), n_workers=-1)


class TestEquivalence:
    def test_multi_batch_dump_identical_to_serial(self):
        """≥5 consecutive batches with discovery spanning batches: the
        union of the shards is the serial database — ids, supports,
        match counts, dates, examples, in ``rows()`` order."""
        batches = batches_for_test(n_batches=5)
        serial, serial_results = serial_reference(batches)

        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=3) as engine:
            for batch, now, expected in zip(batches, DAYS, serial_results):
                result = engine.analyze_by_service(batch, now=now)
                # per-batch aggregate counters match serial too
                assert result.n_records == expected.n_records
                assert result.n_services == expected.n_services
                assert result.n_matched == expected.n_matched
                assert result.n_unmatched == expected.n_unmatched
                assert result.n_new_patterns == expected.n_new_patterns
                assert sorted(p.id for p in result.new_patterns) == sorted(
                    p.id for p in expected.new_patterns
                )
            assert engine.db.dump() == serial.db.dump()
            assert engine.db.services() == serial.db.services()
            assert engine.db.counts() == serial.db.counts()
            assert engine.telemetry == {"batches": 5, "spawns": 3, "respawns": 0}
            assert result.pool == {"workers": 3, "spawns": 0, "respawns": 0}

    def test_on_disk_database_reopens_as_the_union(self, tmp_path):
        batches = batches_for_test(n_batches=3)
        serial, _ = serial_reference(batches)
        path = str(tmp_path / "patterns.db")
        with PersistentParallelSequenceRTG(db=PatternDB(path), n_workers=2) as engine:
            for batch, now in zip(batches, DAYS):
                engine.analyze_by_service(batch, now=now)
        assert {"patterns.db", "patterns.db.0", "patterns.db.1"} <= set(
            os.listdir(tmp_path)
        )
        assert PatternDB(path).dump() == serial.db.dump()

    def test_shards_take_the_databases_example_cap(self):
        """Shard files open with the settings of the database the pool
        was handed, so a non-default example cap stores what the serial
        miner stores."""
        serial = SequenceRTG(db=PatternDB(max_examples=8))
        with PersistentParallelSequenceRTG(PatternDB(max_examples=8), n_workers=2) as engine:
            for miner in (serial, engine):
                for now in DAYS[:2]:
                    miner.analyze_by_service(sshd_records(n=20), now=now)
            assert [len(entry["examples"]) for entry in serial.db.dump()] == [8]
            assert engine.db.dump() == serial.db.dump()

    def test_second_batch_parses_against_known(self):
        records = records_for_test()
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=2) as engine:
            engine.analyze_by_service(records)
            n_patterns = len(engine.db.rows())
            # replay some of the same traffic: should match, not re-discover
            result = engine.analyze_by_service(records[:100])
            assert result.n_matched > 0
            assert len(engine.db.rows()) == n_patterns

    def test_publish_pattern_goes_to_the_owning_worker(self):
        """A parent-side addition is persisted and learnt by the worker
        that owns its service: it matches from the next batch on."""
        records = sshd_records()
        pattern = SequenceRTG(db=PatternDB()).analyze_by_service(
            records
        ).new_patterns[0]
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=2) as engine:
            # the sshd worker already holds a live parser
            engine.analyze_by_service(
                [LogRecord("sshd", f"session opened for root{i}") for i in range(4)]
            )
            assert engine.publish_pattern(pattern) == pattern.id
            result = engine.analyze_by_service(records[:5])
            assert result.n_matched == 5
            assert result.n_new_patterns == 0
            row = engine.db.row(pattern.id)
            assert row.match_count == pattern.support + 5
            owner = PatternDB(engine._shard_paths[engine.worker_for("sshd")])
            assert owner.row(pattern.id) is not None


class TestStickyRouting:
    def test_routing_is_stable_across_batches(self):
        """The same worker owns the same services for the pool's whole
        life: no process is replaced and no service ever moves."""
        batches = batches_for_test(n_batches=4)
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=3) as engine:
            engine.analyze_by_service(batches[0])
            pids = [worker.process.pid for worker in engine._workers]
            for batch in batches[1:]:
                engine.analyze_by_service(batch)
            assert [worker.process.pid for worker in engine._workers] == pids
            # every shard file holds exactly the services crc32 routes to it
            seen = set()
            for index, path in enumerate(engine._shard_paths):
                for service in PatternDB(path).services():
                    assert engine.worker_for(service) == index
                    seen.add(service)
            assert seen == {r.service for batch in batches for r in batch}


class TestReshard:
    """Rows live in the file of ``route_service(service, N)``, whatever
    wrote them before the pool started."""

    def test_serial_then_pool_equals_all_serial(self, tmp_path):
        batches = batches_for_test(n_batches=5)
        serial, _ = serial_reference(batches)
        path = str(tmp_path / "patterns.db")
        first = SequenceRTG(db=PatternDB(path))
        for batch, now in zip(batches[:2], DAYS):
            first.analyze_by_service(batch, now=now)
        first.db.close()

        db = PatternDB(path)
        with PersistentParallelSequenceRTG(db=db, n_workers=2) as engine:
            for batch, now in zip(batches[2:], DAYS[2:]):
                engine.analyze_by_service(batch, now=now)
        assert db.dump() == serial.db.dump()
        assert PatternDB(path).dump() == serial.db.dump()

    def test_two_then_three_workers_equals_serial(self, tmp_path):
        batches = batches_for_test(n_batches=5)
        serial, _ = serial_reference(batches)
        path = str(tmp_path / "patterns.db")
        with PersistentParallelSequenceRTG(db=PatternDB(path), n_workers=2) as engine:
            for batch, now in zip(batches[:2], DAYS):
                engine.analyze_by_service(batch, now=now)
        with PersistentParallelSequenceRTG(db=PatternDB(path), n_workers=3) as engine:
            for batch, now in zip(batches[2:], DAYS[2:]):
                engine.analyze_by_service(batch, now=now)
            for index, shard_path in enumerate(engine._shard_paths):
                for service in PatternDB(shard_path).services():
                    assert route_service(service, 3) == index
        assert PatternDB(path).dump() == serial.db.dump()

    def test_three_then_two_workers_retires_the_third_file(self, tmp_path):
        batches = batches_for_test(n_batches=4)
        serial, _ = serial_reference(batches)
        path = str(tmp_path / "patterns.db")
        with PersistentParallelSequenceRTG(db=PatternDB(path), n_workers=3) as engine:
            for batch, now in zip(batches[:2], DAYS):
                engine.analyze_by_service(batch, now=now)
        with PersistentParallelSequenceRTG(db=PatternDB(path), n_workers=2) as engine:
            for batch, now in zip(batches[2:], DAYS[2:]):
                engine.analyze_by_service(batch, now=now)
        assert not os.path.exists(path + ".2")
        assert PatternDB(path).dump() == serial.db.dump()

    def test_serial_miner_on_a_sharded_path_fails_loudly(self, tmp_path):
        path = str(tmp_path / "patterns.db")
        with PersistentParallelSequenceRTG(db=PatternDB(path), n_workers=2) as engine:
            engine.analyze_by_service(records_for_test(n=200))
        before = PatternDB(path).dump()
        serial = SequenceRTG(db=PatternDB(path))
        # reads are fine (``parse`` loads parsers from the union) ...
        assert len(serial.parser_for(before[0]["service"])) > 0
        # ... mining is not: it would fork state into the main file
        with pytest.raises(RuntimeError, match="sharded over 2 files"):
            serial.analyze_by_service(records_for_test(n=50))
        assert PatternDB(path).dump() == before


def _dying_worker(conn, shard, config, index, *, victim, point, at_call, marker):
    """Worker target whose *victim* ``kill -9``s itself at *point* of
    its *at_call*-th call: ``"before_commit"`` — every write of the call
    made, the transaction still open — or ``"before_reply"`` — the call
    committed, nothing sent yet.  The respawned worker runs this target
    too: a *marker* path makes the death happen once, ``None`` every
    time."""
    calls = 0

    def die():
        nonlocal calls
        calls += 1
        if calls == at_call and not (marker and os.path.exists(marker)):
            if marker:
                open(marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)

    if index == victim and point == "before_commit":
        store_reply = PatternDB.store_reply

        def store_then_die(self, token, reply):
            store_reply(self, token, reply)
            die()

        PatternDB.store_reply = store_then_die
    elif index == victim:
        pipe = conn

        class conn:  # the worker's end of the pipe, dying before a send
            recv = pipe.recv
            close = pipe.close

            @staticmethod
            def send_bytes(reply):
                die()
                pipe.send_bytes(reply)

    _worker_main(conn, shard, config, index)


class TestWorkerCrash:
    """The crash contract: whenever a worker dies, exactly one respawn,
    the database of a run that never crashed (dates included) and every
    record counted once."""

    MINING_COUNTERS = (
        "rtg_records_total",
        "rtg_matched_total",
        "rtg_unmatched_total",
        "rtg_patterns_total",
    )

    def mining_counters(self, registry):
        """Full labelled samples of the four mining counters (worker
        labels included: routing is sticky, so a respawned worker keeps
        its index)."""
        snapshot = registry.snapshot()
        return {
            name: dict(sorted(snapshot[name]["samples"].items()))
            for name in self.MINING_COUNTERS
        }

    def run_pool(self, batches, worker_main=None, kill_before=None):
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=3) as engine:
            if worker_main is not None:
                engine._worker_main = worker_main
            for i, (batch, now) in enumerate(zip(batches, DAYS)):
                if i == kill_before:
                    victim = engine._workers[0]
                    victim.process.kill()
                    victim.process.join(timeout=5.0)
                    assert not victim.process.is_alive()
                engine.analyze_by_service(batch, now=now)
            return (
                engine.db.dump(),
                total_matches(engine.db),
                self.mining_counters(engine.metrics),
                engine.telemetry["respawns"],
            )

    def assert_survived(self, batches, outcome):
        serial, _ = serial_reference(batches)
        clean_dump, _, clean_counters, clean_respawns = self.run_pool(batches)
        dump, matches, counters, respawns = outcome
        assert clean_respawns == 0
        assert respawns == 1
        assert dump == clean_dump == serial.db.dump()
        assert matches == sum(len(batch) for batch in batches)
        # lost in-flight work is mined again, committed work is
        # acknowledged from the stored reply: never counted twice
        assert counters == clean_counters

    def test_kill_between_batches(self):
        batches = batches_for_test(n_batches=6)
        self.assert_survived(batches, self.run_pool(batches, kill_before=3))

    @pytest.mark.parametrize("point", ["before_commit", "before_reply"])
    def test_kill_inside_a_call(self, point, tmp_path):
        batches = batches_for_test(n_batches=5)
        marker = str(tmp_path / "died")
        worker_main = partial(
            _dying_worker, victim=1, point=point, at_call=3, marker=marker
        )
        outcome = self.run_pool(batches, worker_main=worker_main)
        assert os.path.exists(marker)  # the victim did die where asked
        self.assert_survived(batches, outcome)

    def test_worker_that_cannot_run_the_call_raises(self):
        """A call that kills its worker twice is an error, not a loop."""
        worker_main = partial(
            _dying_worker, victim=0, point="before_commit", at_call=1, marker=None
        )
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=1) as engine:
            engine._worker_main = worker_main
            with pytest.raises(RuntimeError, match="died twice"):
                engine.analyze_by_service(records_for_test(n=50))


class TestEngineLifecycle:
    def test_close_is_idempotent_and_terminates_workers(self):
        engine = PersistentParallelSequenceRTG(db=PatternDB(), n_workers=2)
        engine.analyze_by_service(records_for_test(n=120))
        procs = [w.process for w in engine._workers if w is not None]
        assert procs
        engine.close()
        engine.close()
        for proc in procs:
            assert not proc.is_alive()

    def test_closed_engine_rejects_work(self):
        engine = PersistentParallelSequenceRTG(db=PatternDB(), n_workers=2)
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.analyze_by_service(records_for_test(n=10))

    def test_context_manager_closes(self):
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=2) as engine:
            engine.analyze_by_service(records_for_test(n=120))
            procs = [w.process for w in engine._workers if w is not None]
        for proc in procs:
            assert not proc.is_alive()

    def test_db_stays_readable_after_close(self):
        engine = PersistentParallelSequenceRTG(db=PatternDB(), n_workers=2)
        engine.analyze_by_service(records_for_test(n=200))
        n_patterns = len(engine.db.rows())
        engine.close()
        assert len(engine.db.rows()) == n_patterns
        assert engine.db.counts()["patterns"] == n_patterns
