"""Staged mining engine: cross-path equivalence and observer contract.

The tentpole invariant: the serial front end and the worker pool run the
*same* :class:`~repro.core.engine.MiningEngine` — a pool worker is a
serial miner over its own shard file — so their full database dumps
(ids, texts, token structures, supports, examples, timestamps) are
bit-identical.  Differential tests tie the engine to its oracles: the
same records mined with the reference scanner, parser and analyser
swapped in, or through the per-occurrence lane instead of the scan
stage's batch dedup, leave the same database.
"""

import random
import sys
from datetime import datetime, timezone

import pytest

from repro.analyzer.compiled import CompiledAnalyzer
from repro.analyzer.enrich import enrich_tokens
from repro.core.config import RTGConfig, StreamingConfig
from repro.core.engine import (
    PersistStage,
    StageObserver,
)
from repro.core.parallel import PersistentParallelSequenceRTG
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.obs.observer import MetricsObserver
from repro.parser.compiled import CompiledParser
from repro.scanner.compiled import CompiledScanner, TokenColumns
from repro.scanner.scanner import ScannedMessage
from repro.workflow.stream import ProductionStream, StreamConfig
from tests.conftest import OracleAnalyzer, OracleParser, OracleScanner

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

        with PatternDB() as db, PersistentParallelSequenceRTG(
            db=db, n_workers=3
        ) as pool:
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
        reference classes, through the whole engine: a stream driver
        adds policy flushes and drift merges (whose probes and
        retirements go through the parser) on top of batch calls, and
        through the
        per-occurrence lane the analyser receives raw, undeduplicated
        partitions."""
        if lane == "per_occurrence":
            request.getfixturevalue("per_occurrence_lane")
        batches = batches_for_test()
        config = RTGConfig(
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
                type(rtg.analyzer),
            )

        production, expected = mine()
        assert expected
        assert stage_classes(production) == (
            CompiledScanner, CompiledParser, CompiledAnalyzer,
        )
        request.getfixturevalue("reference_stages")
        oracle, dump = mine()
        assert stage_classes(oracle) == (OracleScanner, OracleParser, OracleAnalyzer)
        assert dump == expected

    def test_serial_and_pool_bit_identical_all_compiled(self, reference_stages):
        """The pool against the oracles directly: its workers are fresh
        processes running the compiled classes, the serial miner here
        runs the reference ones."""
        batches = batches_for_test()
        oracle = SequenceRTG(db=PatternDB())
        assert type(oracle.scanner) is OracleScanner
        for _ in oracle.process_stream(batches, now=NOW):
            pass
        expected = full_dump(oracle.db)
        assert expected

        with PatternDB() as db, PersistentParallelSequenceRTG(
            db=db, n_workers=3
        ) as pool:
            for _ in pool.process_stream(batches, now=NOW):
                pass
            assert full_dump(pool.db) == expected


def column_cell_batches(n_batches=3, per_batch=200, seed=23):
    """Batches whose messages reach the special cells of the column
    path: multi-line messages (the REST marker), k=v pairs, e-mail
    addresses and host names — half of each later batch repeats."""
    rng = random.Random(seed)
    hosts = ("node1.example.com", "db.internal", "gw", "10.0.0.7")
    shapes = (
        "login user = {u} from {h}",
        "mail to {u}@example.com queued id={i}",
        "job {i} failed\n  at frame {f}\n  at main",
        "session {u} key = value{f} host {h}",
        "job {i} done",
    )
    seen: list[LogRecord] = []
    batches = []
    for _ in range(n_batches):
        batch = []
        for i in range(per_batch):
            if seen and rng.random() < 0.5:
                batch.append(rng.choice(seen))
                continue
            message = rng.choice(shapes).format(
                u=rng.choice("abcdef") * 3, h=rng.choice(hosts), i=i, f=i % 3
            )
            seen.append(LogRecord(rng.choice(("auth", "mail")), message))
            batch.append(seen[-1])
        batches.append(batch)
    return batches


class TestColumnPath:
    """Hits and misses stay token columns: the dump of the fast,
    compiled lane is the dump of the per-occurrence lane and of the
    reference oracles on messages that exercise the REST marker and
    every enrichment rule."""

    @staticmethod
    def mine(batches):
        rtg = SequenceRTG(db=PatternDB())
        matched = [rtg.analyze_by_service(b, now=NOW).n_matched for b in batches]
        return full_dump(rtg.db), matched

    @pytest.mark.parametrize("lane,stages", [
        ("per_occurrence", "compiled"),
        ("fast", "reference"),
        ("per_occurrence", "reference"),
    ])
    def test_dump_equals_the_fast_compiled_dump(self, lane, stages, request):
        batches = column_cell_batches()
        expected = self.mine(batches)
        assert expected[0] and expected[1][-1] > 0  # later batches match
        if lane == "per_occurrence":
            request.getfixturevalue("per_occurrence_lane")
        if stages == "reference":
            request.getfixturevalue("reference_stages")
        assert self.mine(batches) == expected


class TestNoTokensOnTheMiningPath:
    def test_batch_micro_batch_and_flush_build_no_tokens(self, monkeypatch):
        """A batch call, stream micro-batches and a flush, all with
        misses, make no ``TokenColumns.scanned``, ``enrich_tokens`` or
        ``ScannedMessage`` call: a miss is matched, partitioned, held
        pending and analysed as column slices."""
        calls = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            TokenColumns, "scanned", spy("TokenColumns.scanned", TokenColumns.scanned)
        )
        monkeypatch.setattr(
            ScannedMessage, "__init__", spy("ScannedMessage", ScannedMessage.__init__)
        )
        # every module that bound the function by name
        for module in list(sys.modules.values()):
            if getattr(module, "enrich_tokens", None) is enrich_tokens:
                monkeypatch.setattr(
                    module, "enrich_tokens", spy("enrich_tokens", enrich_tokens)
                )

        def novel(tag):
            return [
                LogRecord("auth", f"quota {tag} exceeded on vol{i} by u{i}")
                for i in range(8)
            ]

        batches = column_cell_batches()
        rtg = SequenceRTG(db=PatternDB(), config=RTGConfig(streaming=StreamingConfig(
            micro_batch_size=32, flush_pending=10 ** 9, flush_interval_s=10 ** 6,
        )))
        first = rtg.analyze_by_service(batches[0], now=NOW)
        second = rtg.analyze_by_service(batches[1] + novel("soft"), now=NOW)
        driver = rtg.stream_driver(clock=lambda: 0.0)
        driver.feed(batches[2] + novel("hard"), now=NOW)
        assert driver.stats.n_micro_batches > 1 and driver.pending > 0
        flushed = driver.flush()
        assert first.n_new_patterns and first.n_matched == 0
        assert second.n_matched and second.n_unmatched and second.n_new_patterns
        assert flushed.n_new_patterns
        assert calls == []
        # the spies are live
        CompiledScanner().scan_columns(["a b"]).scanned(0)
        sys.modules["repro.analyzer.enrich"].enrich_tokens([])
        assert calls == ["TokenColumns.scanned", "ScannedMessage", "enrich_tokens"]


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

    def test_default_engine_has_exactly_one_metrics_observer(self):
        observers = SequenceRTG(db=PatternDB()).engine.observers
        assert [type(o) for o in observers] == [MetricsObserver]

    def test_timing_observer_counts_stage_executions(self):
        """One clock: each stage's ``result.timings`` entry is the very
        seconds the call added to that stage's latency histogram."""
        rtg = SequenceRTG(db=PatternDB())
        hist = rtg.metrics.histogram("rtg_stage_latency_seconds")

        def stage_sums():
            sums = {}
            for key, (_, seconds, count) in hist.samples().items():
                stage = dict(key)["stage"]
                total, n = sums.get(stage, (0.0, 0))
                sums[stage] = (total + seconds, n + count)
            return sums

        batches = batches_for_test(n_batches=2, per_batch=80, n_services=5)
        for batch in batches:
            before = stage_sums()
            result = rtg.analyze_by_service(batch)
            after = stage_sums()
            assert set(result.timings) == set(STAGE_ORDER)
            for stage in STAGE_ORDER:
                seconds, runs = after[stage]
                seconds_before, runs_before = before.get(stage, (0.0, 0))
                # one observation per stage per service group
                assert runs - runs_before == result.n_services
                assert result.timings[stage] == pytest.approx(
                    seconds - seconds_before, abs=1e-9
                )


class TestBatchDedup:
    """Dedup is per batch and is the whole fast lane: a message repeated
    across batches is scanned again in each, and ``BatchResult.cache``
    holds exactly the two dedup tallies of the call's service groups."""

    @staticmethod
    def batches():
        repeat = LogRecord("svc", "connection from 10.0.0.1 closed")
        return [
            [repeat, LogRecord("svc", "disk sda1 full"), repeat,
             LogRecord("other", "job 7 started")],
            [repeat, repeat, repeat, LogRecord("other", "job 7 started")],
        ]

    def test_repeat_scanned_once_per_batch_and_tallies_match(self):
        rtg = SequenceRTG(db=PatternDB())
        scanned: list[str] = []
        scan_columns = rtg.scanner.scan_columns

        def counting_scan_columns(messages):
            scanned.extend(messages)
            return scan_columns(messages)

        rtg.scanner.scan_columns = counting_scan_columns
        contexts = []

        class ScanContexts(StageObserver):
            def on_stage_end(self, stage, ctx):
                if stage == "scan":
                    contexts.append(ctx)

        rtg.engine.observers.append(ScanContexts())
        repeat = self.batches()[0][0].message
        for batch in self.batches():
            scanned.clear()
            contexts.clear()
            result = rtg.analyze_by_service(batch, now=NOW)
            assert scanned.count(repeat) == 1
            unique = sum(len(ctx.scanned) for ctx in contexts)
            records = sum(len(ctx.records) for ctx in contexts)
            assert result.cache == {
                "dedup_unique": unique,
                "dedup_duplicates": records - unique,
            }
            assert unique == len(scanned)

    def test_pool_reports_the_serial_tallies(self):
        serial = SequenceRTG(db=PatternDB())
        expected = [
            serial.analyze_by_service(batch, now=NOW).cache
            for batch in self.batches()
        ]
        assert expected == [
            {"dedup_unique": 3, "dedup_duplicates": 1},
            {"dedup_unique": 2, "dedup_duplicates": 2},
        ]
        with PatternDB() as db, PersistentParallelSequenceRTG(
            db=db, n_workers=2
        ) as pool:
            got = [
                pool.analyze_by_service(batch, now=NOW).cache
                for batch in self.batches()
            ]
        assert got == expected


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

        config = RTGConfig(streaming=StreamingConfig(
            micro_batch_size=50, flush_pending=10 ** 6, flush_interval_s=10 ** 6,
        ))
        rtg = SequenceRTG(db=PatternDB(), config=config)
        persist = _FailingPersist(rtg)
        first, second, _ = batches_for_test(n_batches=3)
        rtg.engine.run(first, now=NOW)
        rtg.engine.flush(now=NOW)
        before = full_dump(rtg.db)
        assert before

        rtg.engine.run(second, now=NOW)
        matched = full_dump(rtg.db)  # match statistics of the micro-batch
        services = [s for s, state in rtg.states.items() if state.pending]
        assert len(services) >= 2
        persist.arm(fail_at=2)
        with pytest.raises(RuntimeError, match="disk full"):
            rtg.engine.flush(now=NOW)
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
