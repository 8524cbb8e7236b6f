"""Staged mining engine: cross-path equivalence and observer contract.

The tentpole invariant: the serial front end and the worker pool run the
*same* :class:`~repro.core.engine.MiningEngine` — a pool worker is a
serial miner over its own shard file — so their full database dumps
(ids, texts, token structures, supports, examples, timestamps) are
bit-identical.  Differential tests tie the engine to its oracles: the
same records mined with the reference scanner, parser and analyser
swapped in, or through the per-occurrence lane instead of the fast
lane, leave the same database.
"""

from datetime import datetime, timezone

import pytest

from repro.analyzer.analyzer import Analyzer
from repro.analyzer.compiled import CompiledAnalyzer
from repro.core.config import RTGConfig, StreamingConfig
from repro.core.engine import (
    MiningEngine,
    PersistStage,
    StageObserver,
    TimingObserver,
)
from repro.core.fastpath import FastPath
from repro.core.parallel import PersistentParallelSequenceRTG
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.parser.compiled import CompiledParser
from repro.parser.parser import Parser
from repro.scanner.compiled import CompiledScanner
from repro.scanner.scanner import Scanner
from repro.workflow.stream import ProductionStream, StreamConfig

NOW = datetime(2026, 1, 1, tzinfo=timezone.utc)

#: the Fig. 2 workflow order every execution path must follow
STAGE_ORDER = ["scan", "parse", "partition_length", "analyze", "persist"]


def batches_for_test(n_batches=4, per_batch=250, n_services=9, seed=11,
                     duplicate_fraction=0.5):
    stream = ProductionStream(StreamConfig(
        n_services=n_services, seed=seed,
        duplicate_fraction=duplicate_fraction,
    ))
    return [list(stream.records(per_batch)) for _ in range(n_batches)]


def full_dump(db):
    """The whole database, order-normalised: ``rows()`` breaks
    match-count ties by insertion order, which no front end promises."""
    return sorted(db.dump(), key=lambda entry: entry["id"])


class TestCrossPathEquivalence:
    """Same engine + same batches ⇒ same database, whatever drives it."""

    def test_serial_and_pool_dumps_bit_identical(self):
        batches = batches_for_test()

        serial = SequenceRTG(db=PatternDB())
        for _ in serial.process_stream(batches, now=NOW):
            pass

        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=3) as pool:
            for _ in pool.process_stream(batches, now=NOW):
                pass
            reference = full_dump(serial.db)
            assert reference  # the stream must actually mine something
            assert full_dump(pool.db) == reference

    def test_fastpath_does_not_change_the_dump(self, request):
        batches = batches_for_test()
        dumps = []
        for lane in ("fast", "per_occurrence"):
            if lane == "per_occurrence":
                request.getfixturevalue("per_occurrence_lane")
            rtg = SequenceRTG(db=PatternDB())
            for batch in batches:
                rtg.analyze_by_service(batch, now=NOW)
            dumps.append(full_dump(rtg.db))
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("lane", ["fast", "per_occurrence"])
    @pytest.mark.parametrize("mode", ["batch", "stream"])
    def test_reference_oracles_mine_the_same_database(self, mode, lane, request):
        """The compiled scanner, parser and analyser against the
        reference classes, through the whole engine: stream mode adds
        deferred flushes and drift merges (whose probes and retirements
        go through the parser) on top of batch mode, and through the
        per-occurrence lane the analyser receives raw, undeduplicated
        partitions."""
        if lane == "per_occurrence":
            request.getfixturevalue("per_occurrence_lane")
        batches = batches_for_test()
        config = RTGConfig(
            mode=mode,
            streaming=StreamingConfig(micro_batch_size=64, flush_pending=32),
        )

        def mine():
            rtg = SequenceRTG(db=PatternDB(), config=config)
            if mode == "stream":
                driver = rtg.stream_driver(clock=lambda: 0.0)
                for batch in batches:
                    driver.feed(batch, now=NOW)
                driver.close()
            else:
                for batch in batches:
                    rtg.analyze_by_service(batch, now=NOW)
            return rtg, full_dump(rtg.db)

        def stage_classes(rtg):
            return (
                type(rtg.scanner),
                type(rtg.parser_for(batches[0][0].service)),
                type(rtg.engine.analyze_stage.evolving._analyzer),
            )

        production, expected = mine()
        assert expected
        assert stage_classes(production) == (
            CompiledScanner, CompiledParser, CompiledAnalyzer,
        )
        request.getfixturevalue("reference_stages")
        oracle, dump = mine()
        assert stage_classes(oracle) == (Scanner, Parser, Analyzer)
        assert dump == expected

    def test_serial_and_pool_bit_identical_all_compiled(self, reference_stages):
        """The pool against the oracles directly: its workers are fresh
        processes running the compiled classes, the serial miner here
        runs the reference ones."""
        batches = batches_for_test()
        oracle = SequenceRTG(db=PatternDB())
        assert type(oracle.scanner) is Scanner
        for _ in oracle.process_stream(batches, now=NOW):
            pass
        expected = full_dump(oracle.db)
        assert expected

        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=3) as pool:
            for _ in pool.process_stream(batches, now=NOW):
                pass
            assert full_dump(pool.db) == expected


class _RecordingObserver(StageObserver):
    def __init__(self):
        self.events = []

    def on_batch_start(self, result):
        self.events.append(("batch_start", None, None))

    def on_stage_start(self, stage, ctx):
        self.events.append(("start", stage, ctx.service))

    def on_stage_end(self, stage, ctx):
        self.events.append(("end", stage, ctx.service))

    def on_batch_end(self, result):
        self.events.append(("batch_end", None, None))


class TestObserverContract:
    def test_stage_events_paired_in_workflow_order(self):
        rtg = SequenceRTG(db=PatternDB())
        recorder = _RecordingObserver()
        rtg.engine.observers.append(recorder)
        records = [
            LogRecord("sshd", "Accepted password for alice from 10.0.0.1"),
            LogRecord("hdfs", "Block blk_1 replicated to node-7"),
        ]
        rtg.analyze_by_service(records, now=NOW)

        events = recorder.events
        assert events[0] == ("batch_start", None, None)
        assert events[-1] == ("batch_end", None, None)
        inner = events[1:-1]
        # per service group: a start/end pair per stage, Fig. 2 order
        assert len(inner) == 2 * len(STAGE_ORDER) * 2
        for g in range(2):
            group = inner[g * 2 * len(STAGE_ORDER):(g + 1) * 2 * len(STAGE_ORDER)]
            (service,) = {svc for _, _, svc in group}
            assert [(kind, stage) for kind, stage, _ in group] == [
                (kind, stage)
                for stage in STAGE_ORDER
                for kind in ("start", "end")
            ]

    def test_timing_observer_counts_stage_executions(self):
        rtg = SequenceRTG(db=PatternDB())
        timing = next(
            o for o in rtg.engine.observers if isinstance(o, TimingObserver)
        )
        batches = batches_for_test(n_batches=2, per_batch=80, n_services=5)
        for batch in batches:
            result = rtg.analyze_by_service(batch)
            # the timer is reset per batch and driven purely by stage
            # events: one completed execution per stage per service group
            for stage in STAGE_ORDER:
                assert timing.timer.count(stage) == result.n_services
            assert set(result.timings) == set(STAGE_ORDER)


class TestSnapshotDelta:
    def test_new_counter_deltas_against_zero(self):
        # a key present only in the after-snapshot must not raise
        before = {"scan_hits": 3}
        after = {"scan_hits": 5, "brand_new_counter": 2}
        assert FastPath.snapshot_delta(before, after) == {
            "scan_hits": 2,
            "brand_new_counter": 2,
        }

    def test_matches_live_snapshots(self):
        rtg = SequenceRTG(db=PatternDB())
        before = rtg.fastpath.snapshot()
        result = rtg.analyze_by_service(
            [LogRecord("svc", "dup msg"), LogRecord("svc", "dup msg")]
        )
        after = rtg.fastpath.snapshot()
        assert result.cache == FastPath.snapshot_delta(before, after)
        assert result.cache["dedup_duplicates"] == 1


class _FailingPersist(PersistStage):
    """Writes like the real stage, then fails on its *fail_at*-th
    service of the armed call — after that service's rows and parser
    extensions are already in.  Swapped into the engine of *rtg* in
    place of its persist stage."""

    def __init__(self, rtg):
        super().__init__(rtg)
        self.fail_at = None
        self.runs = 0
        engine = rtg.engine
        engine.stages[engine.stages.index(engine.persist_stage)] = self
        engine.persist_stage = self

    def arm(self, fail_at):
        self.fail_at, self.runs = fail_at, 0

    def run(self, ctx):
        super().run(ctx)
        self.runs += 1
        if self.runs == self.fail_at:
            raise RuntimeError("disk full")


def _assert_parsers_mirror_db(rtg, services):
    """No live parser holds a pattern the database does not."""
    for service in services:
        rows = rtg.db.rows(service=service)
        parser = rtg.parser_for(service)
        assert len(parser) == len(rows)
        assert all(parser.get(row.id) is not None for row in rows)


class TestOneTransactionPerMiningCall:
    def test_failed_batch_rolls_back_and_leaves_no_trace(self):
        batches = batches_for_test(n_batches=3)
        clean = SequenceRTG(db=PatternDB())
        faulty = SequenceRTG(db=PatternDB())
        persist = _FailingPersist(faulty)

        clean.analyze_by_service(batches[0], now=NOW)
        faulty.analyze_by_service(batches[0], now=NOW)
        before = full_dump(faulty.db)
        assert before

        services = list(dict.fromkeys(r.service for r in batches[1]))
        assert len(services) >= 3
        persist.arm(fail_at=3)
        with pytest.raises(RuntimeError, match="disk full"):
            faulty.analyze_by_service(batches[1], now=NOW)
        # services one and two had been persisted when the third failed
        assert persist.runs == 3
        assert full_dump(faulty.db) == before
        _assert_parsers_mirror_db(faulty, services)

        persist.arm(fail_at=None)
        clean.analyze_by_service(batches[2], now=NOW)
        faulty.analyze_by_service(batches[2], now=NOW)
        assert full_dump(faulty.db) == full_dump(clean.db)

    def test_failed_flush_rolls_back(self):
        from repro.core.config import StreamingConfig

        config = RTGConfig(mode="stream", streaming=StreamingConfig(
            micro_batch_size=50, flush_pending=10 ** 6, flush_interval_s=10 ** 6,
        ))
        rtg = SequenceRTG(db=PatternDB(), config=config)
        rtg.engine = MiningEngine(rtg, deferred_analysis=True)
        persist = _FailingPersist(rtg)
        first, second, _ = batches_for_test(n_batches=3)
        rtg.engine.run(first, now=NOW)
        rtg.flush(now=NOW)
        before = full_dump(rtg.db)
        assert before

        rtg.engine.run(second, now=NOW)
        matched = full_dump(rtg.db)  # match statistics of the micro-batch
        services = rtg.engine.analyze_stage.evolving.services()
        assert len(services) >= 2
        persist.arm(fail_at=2)
        with pytest.raises(RuntimeError, match="disk full"):
            rtg.flush(now=NOW)
        assert full_dump(rtg.db) == matched
        _assert_parsers_mirror_db(rtg, services)

    def test_one_commit_per_call(self):
        class CountingConnection:
            def __init__(self, conn):
                self._conn = conn
                self.commits = 0

            def commit(self):
                self.commits += 1
                self._conn.commit()

            def __getattr__(self, name):
                return getattr(self._conn, name)

        rtg = SequenceRTG(db=PatternDB())
        conn = rtg.db._conn = CountingConnection(rtg.db._conn)
        (batch,) = batches_for_test(n_batches=1)
        assert len({r.service for r in batch}) > 1
        result = rtg.analyze_by_service(batch, now=NOW)
        assert result.n_new_patterns > 0
        assert conn.commits == 1
