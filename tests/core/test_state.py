"""One ``ServiceState`` per service: the rollback rule and its invariants.

* A state's pending evidence mines like one batch: absorbing in pieces,
  or duplicates as weights, then mining equals analysing the same
  messages at once; and ``restore`` undoes any absorbs and mines since
  its ``checkpoint``.
* A stream flush and its drift/TTL maintenance are one transaction: a
  failure in any maintenance pass leaves the database exactly as before
  the flush, every service state the flush touched reloads from the
  rolled-back rows and keeps the pending evidence it had, and the
  driver's counters count only committed flushes.
* Over arbitrary small stream-driver runs, every live parser holds
  exactly its service's database ids, drift tracks only name live
  patterns, and the driver's pending count is the states' sum.
"""

import random
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyzer import build_analyzer
from repro.core.config import RTGConfig, StreamingConfig
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.core.state import ServiceState
from repro.scanner import build_scanner
from tests.core.test_engine import NOW, full_dump
from tests.core.test_streaming import FakeClock


class Fault(RuntimeError):
    """The injected failure."""


class CountingConnection:
    """Pass-through sqlite connection that counts commits."""

    def __init__(self, conn):
        self._conn = conn
        self.commits = 0

    def commit(self):
        self.commits += 1
        self._conn.commit()

    def __getattr__(self, name):
        return getattr(self._conn, name)


def assert_states_mirror_db(rtg):
    """Every loaded parser holds exactly its service's database ids, and
    drift tracks name only stored patterns."""
    for service, state in rtg.states.items():
        ids = {row.id for row in rtg.db.rows(service=service)}
        if state._parser is not None:
            assert len(state._parser) == len(ids)
            assert all(state._parser.get(pid) is not None for pid in ids)
        assert set(state.tracks) <= ids


def n_pending(state) -> int:
    """Distinct messages pending across one state's partitions."""
    return sum(len(partition.originals) for partition in state.pending.values())


# ----------------------------------------------------------------------
# Pending evidence: batch mining as the degenerate case
# ----------------------------------------------------------------------

def scan(messages, service="svc"):
    scanner = build_scanner()
    return [scanner.scan(m, service=service) for m in messages]


def columns(messages):
    """*messages* scanned to token columns, as the scan stage hands
    them on, and each one's token count."""
    cols = build_scanner().scan_columns(messages)
    lengths = [hi - lo for lo, hi in zip([0] + cols.ends, cols.ends)]
    return cols, lengths


class TestPendingEvidence:
    def test_absorb_then_mine_equals_one_batch_analyze(self):
        texts = [f"user u{i} logged in from 10.0.0.{i}" for i in range(6)]
        expected = build_analyzer().analyze(scan(texts))

        state = ServiceState("svc", PatternDB())
        cols, lengths = columns(texts)
        state.absorb(lengths[0], cols, [0, 1], [1] * 2, [None] * 2)
        state.absorb(lengths[0], cols, [2, 3, 4, 5], [1] * 4, [None] * 4)
        ((patterns, n_nodes),) = list(state.mine(build_analyzer()))
        assert [p.text for p in patterns] == [p.text for p in expected]
        assert [p.support for p in patterns] == [p.support for p in expected]
        assert n_nodes > 0
        assert state.n_pending == 0
        assert state.pending == {}

    def test_absorb_dedups_into_weighted_counts(self):
        texts = ["session 1 opened", "session 2 opened", "session 3 opened"]
        expected = build_analyzer().analyze(scan(texts), counts=[3, 2, 1])

        state = ServiceState("svc", PatternDB())
        cols, lengths = columns(texts)
        # 3x the first, 2x the second, 1x the third, interleaved
        replay = [0, 1, 2, 0, 1, 0]
        state.absorb(lengths[0], cols, replay, [1] * len(replay), [None] * len(replay))
        assert state.n_pending == 3  # distinct, not occurrences
        assert len(state.pending[lengths[0]].originals) == 3
        ((patterns, _),) = list(state.mine(build_analyzer()))
        assert [(p.text, p.support) for p in patterns] == [
            (p.text, p.support) for p in expected
        ]

    def test_mine_without_evidence_is_empty(self):
        state = ServiceState("nope", PatternDB())
        assert list(state.mine(build_analyzer())) == []
        assert state.n_pending == 0


#: a small vocabulary of messages over three token counts
VOCABULARY = [
    f"{verb} {i}" if i % 3 == 0 else f"{verb} job {i}" if i % 3 == 1
    else f"{verb} job {i} as root"
    for verb in ("start", "stop")
    for i in range(6)
]


def partitions(state):
    """A state's pending partitions: messages, their columns, counts
    and index."""
    return {
        length: (
            list(part.originals),
            (list(part.texts), list(part.types), list(part.spaces)),
            list(part.counts),
            dict(part.index),
        )
        for length, part in state.pending.items()
    }


@settings(max_examples=60, deadline=None)
@given(
    before=st.lists(st.tuples(st.integers(0, 11), st.integers(1, 4)), max_size=12),
    steps=st.lists(
        st.one_of(
            st.lists(
                st.tuples(st.integers(0, 11), st.integers(1, 4)),
                min_size=1, max_size=6,
            ),
            st.just("mine"),
        ),
        max_size=8,
    ),
)
def test_restore_undoes_absorbs_and_mines(before, steps):
    """Checkpoint, then any sequence of absorbs and partition mines, then
    restore: the partitions, their counts and the pending total are
    what was checkpointed — the rollback half of the state's invariants."""
    cols, lengths = columns(VOCABULARY)
    analyzer = build_analyzer()
    state = ServiceState("svc", PatternDB())

    def absorb(picks):
        by_length = {}
        for at, n in picks:
            rows, counts = by_length.setdefault(lengths[at], ([], []))
            rows.append(at)
            counts.append(n)
        for length, (rows, counts) in by_length.items():
            state.absorb(length, cols, rows, counts, [None] * len(rows))

    absorb(before)
    expected = partitions(state)
    n_expected = state.n_pending
    assert n_expected == n_pending(state)
    checkpoint = state.checkpoint()
    for step in steps:
        if step == "mine":
            next(iter(state.mine(analyzer)), None)  # the lowest partition
        else:
            absorb(step)
        assert state.n_pending == n_pending(state)
    state.restore(checkpoint)
    assert partitions(state) == expected
    assert state.n_pending == n_expected


def streaming(**kwargs) -> StreamingConfig:
    defaults = dict(
        flush_pending=10 ** 9,
        flush_interval_s=10 ** 6,
        drift_merge=False,
        drift_split=False,
    )
    defaults.update(kwargs)
    return StreamingConfig(**defaults)


def driver_for(config: StreamingConfig, max_examples=3):
    rtg = SequenceRTG(
        db=PatternDB(max_examples=max_examples),
        config=RTGConfig(streaming=config),
    )
    return rtg, rtg.stream_driver(clock=FakeClock())


# ----------------------------------------------------------------------
# One setup per maintenance pass: the state just before the flush whose
# maintenance fires that pass, and the failure to inject into it
# ----------------------------------------------------------------------

def merge_setup():
    """A specific pattern stored, then traffic that mines a general one
    subsuming it: the flush merges (``record_matches`` + ``add_examples``)
    and retires the specific pattern."""
    rtg, driver = driver_for(
        streaming(micro_batch_size=4, drift_merge=True), max_examples=8
    )
    driver.feed(
        [LogRecord("svc", f"connection from 10.0.0.1 port {4000 + i}")
         for i in range(4)],
        now=NOW,
    )
    driver.flush()
    driver.feed(
        [LogRecord("svc", f"connection from 10.0.0.{2 + i} port {5000 + i}")
         for i in range(4)],
        now=NOW,
    )
    return rtg, driver


def split_setup():
    """A variable pattern whose variable then only ever sees one value:
    the flush retires it and re-adds a folded copy."""
    rtg, driver = driver_for(streaming(
        micro_batch_size=6, flush_pending=6, drift_split=True,
        split_min_matches=12,
    ))
    names = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
    driver.feed([LogRecord("svc", f"job {name} started") for name in names], now=NOW)
    for _ in range(4):
        driver.feed([LogRecord("svc", "job omega started")] * 6, now=NOW)
    return rtg, driver


def ttl_setup():
    """A pattern last matched 40 days ago under a 30-day TTL, and new
    traffic pending: the flush mines it and evicts the stale pattern."""
    rtg, driver = driver_for(streaming(micro_batch_size=4, pattern_ttl_days=30.0))
    driver.feed(
        [LogRecord("svc", f"session {i} opened by u{i}") for i in range(4)],
        now=NOW,
    )
    driver.flush()
    driver.feed(
        [LogRecord("svc", f"transfer {i} completed fine") for i in range(4)],
        now=NOW + timedelta(days=40),
    )
    return rtg, driver


def fail_after(owner, name):
    """Make ``owner.name`` do its work, then raise."""
    real = getattr(owner, name)

    def failing(*args, **kwargs):
        real(*args, **kwargs)
        raise Fault(name)

    setattr(owner, name, failing)


def fail_merge(rtg):
    """A merge, after its ``record_matches`` (a flush's persist stage
    calls it too, with no matches: that call goes through)."""
    real = rtg.db.record_matches

    def failing(counts, now=None):
        real(counts, now=now)
        if counts:
            raise Fault("record_matches")

    rtg.db.record_matches = failing


def fail_split(rtg):
    def failing(pattern, now=None):  # a split, between retire and re-add
        raise Fault("add_known_pattern")

    rtg.add_known_pattern = failing


def fail_eviction(rtg):
    fail_after(rtg, "retire_patterns")  # a TTL eviction, after its delete


CASES = {
    "merge": (merge_setup, fail_merge, "n_drift_merges"),
    "split": (split_setup, fail_split, "n_drift_splits"),
    "eviction": (ttl_setup, fail_eviction, "n_evicted"),
}


@pytest.mark.parametrize("case", sorted(CASES))
class TestCrashAtomicMaintenance:
    def test_clean_flush_commits_once(self, case):
        setup, _, counter = CASES[case]
        rtg, driver = setup()
        conn = rtg.db._conn = CountingConnection(rtg.db._conn)
        driver.flush()
        assert getattr(driver.stats, counter) > 0  # the pass really fired
        assert conn.commits == 1
        assert_states_mirror_db(rtg)

    def test_failed_pass_rolls_the_whole_flush_back(self, case):
        setup, inject, _ = CASES[case]
        rtg, driver = setup()
        before = full_dump(rtg.db)
        assert before
        conn = rtg.db._conn = CountingConnection(rtg.db._conn)
        inject(rtg)
        with pytest.raises(Fault):
            driver.flush()
        assert conn.commits == 0
        assert full_dump(rtg.db) == before
        # the touched state dropped its parser; the reload mirrors the DB
        assert rtg.states["svc"]._parser is None
        assert rtg.states["svc"].tracks == {}
        assert_states_mirror_db(rtg)
        for service in rtg.states:
            rtg.parser_for(service)
        assert_states_mirror_db(rtg)


def pending_dump(rtg):
    """Every state's pending partitions: messages, texts and counts."""
    return {
        service: {
            length: (list(part.originals), list(part.texts), list(part.counts))
            for length, part in state.pending.items()
        }
        for service, state in rtg.states.items()
    }


def fail_once(owner, name):
    """Make the next ``owner.name`` call raise; later calls run."""
    real = getattr(owner, name)

    def failing(*args, **kwargs):
        setattr(owner, name, real)
        raise Fault(name)

    setattr(owner, name, failing)


class TestRollbackKeepsEvidence:
    def two_services(self):
        rtg, driver = driver_for(streaming(micro_batch_size=16))
        driver.feed(
            [LogRecord("sshd", f"accepted key {i} for u{i} from h{i}") for i in range(40)]
            + [LogRecord("cron", f"job {i} ran cmd c{i} as r{i}") for i in range(40)],
            now=NOW,
        )
        return rtg, driver

    def test_failed_flush_keeps_every_partition(self):
        rtg, driver = self.two_services()
        assert driver.pending == 80
        before = pending_dump(rtg)
        fail_once(rtg.engine.persist_stage, "run")
        with pytest.raises(Fault):
            driver.flush()
        assert rtg.db.rows() == []
        assert driver.pending == 80
        assert pending_dump(rtg) == before
        driver.flush()  # the retry mines both services
        assert driver.pending == 0
        assert {row.service for row in rtg.db.rows()} == {"sshd", "cron"}

    def test_failed_micro_batch_absorbs_nothing(self):
        rtg, driver = self.two_services()
        before = pending_dump(rtg)
        fail_once(rtg.engine.persist_stage, "run")
        with pytest.raises(Fault):
            driver.feed(
                [LogRecord("sshd", f"accepted key {i} for u{i} from h{i}") for i in range(8)]
                + [LogRecord("cron", f"disk {i} is full") for i in range(8)],
                now=NOW,
            )
        assert driver.pending == 80
        assert pending_dump(rtg) == before


    def test_failed_micro_batch_stays_buffered(self):
        """The records of a micro-batch whose run raises are not lost: the
        next trigger — here the timeout, so the buffer kept its age —
        mines them, exactly once, and only then are they counted."""
        rtg, driver = driver_for(streaming(micro_batch_size=16))
        records = [LogRecord("svc", f"job {i} ran cmd c{i} as r{i}") for i in range(16)]
        fail_once(rtg.engine.persist_stage, "run")
        with pytest.raises(Fault):
            driver.feed(records, now=NOW)
        assert (driver.stats.n_messages, driver.stats.n_micro_batches) == (0, 0)
        assert driver.pending == 0
        driver.clock.advance(driver.config.micro_batch_timeout_s)
        driver.poll()
        assert (driver.stats.n_messages, driver.stats.n_micro_batches) == (16, 1)
        assert driver.pending == 16
        driver.close()
        assert driver.stats.n_messages == 16
        (row,) = rtg.db.rows()
        assert row.match_count == 16


class TestCountersCountCommits:
    def test_rolled_back_merge_is_not_counted(self):
        rtg, driver = merge_setup()
        driver.config.pattern_ttl_days = 30.0  # eviction runs after the merge
        drift = rtg.metrics.counter("rtg_stream_drift_total")
        fail_once(rtg.db, "stale_patterns")
        with pytest.raises(Fault):
            driver.flush()
        assert driver.stats.n_drift_merges == 0
        assert drift.value(event="merge") == 0
        driver.flush()  # committed: now it counts
        assert driver.stats.n_drift_merges > 0
        assert drift.value(event="merge") == driver.stats.n_drift_merges


class TestTransaction:
    def test_nested_blocks_commit_once_and_roll_back_together(self):
        rtg = SequenceRTG(db=PatternDB())
        rtg.analyze_by_service(
            [LogRecord("a", f"job {i} done") for i in range(4)], now=NOW
        )
        before = full_dump(rtg.db)
        loaded = rtg.parser_for("a")
        conn = rtg.db._conn = CountingConnection(rtg.db._conn)
        with pytest.raises(Fault):
            with rtg.transaction():
                rtg.analyze_by_service(  # nested: commits nothing itself
                    [LogRecord("b", f"disk {i} full") for i in range(4)], now=NOW
                )
                assert conn.commits == 0
                raise Fault("after the inner call")
        assert conn.commits == 0
        assert full_dump(rtg.db) == before
        assert rtg.states["b"]._parser is None  # used inside: dropped
        assert rtg.states["a"]._parser is loaded  # not used inside: kept


# ----------------------------------------------------------------------
# Invariants over small stream-driver runs
# ----------------------------------------------------------------------

def day_records(rng: random.Random, day: int, n: int) -> list[LogRecord]:
    """Templated traffic over three services: steady shapes, one shape
    whose variable sticks to one value after day 0 (drift split), one
    whose constant starts to vary on day 2 (drift merge), and one shape
    per day (churn for the TTL)."""
    out = []
    for _ in range(n):
        kind = rng.randrange(5)
        if kind == 0:
            out.append(LogRecord(
                "auth", f"user u{rng.randrange(6)} logged in from "
                f"10.0.{rng.randrange(3)}.{rng.randrange(9)}",
            ))
        elif kind == 1:
            out.append(LogRecord("disk", f"volume {rng.randrange(40)} is fine"))
        elif kind == 2:
            host = f"h{rng.randrange(9)}" if day == 0 else "alpha"
            out.append(LogRecord("net", f"link to {host} up"))
        elif kind == 3:
            ip = "10.1.1.1" if day < 2 else f"10.1.1.{rng.randrange(2, 9)}"
            out.append(LogRecord(
                "auth", f"connection from {ip} port {rng.randrange(4000, 5000)}",
            ))
        else:
            out.append(LogRecord(
                "net", f"phase{day} step {rng.randrange(20)} ok",
            ))
    return out


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    micro=st.integers(1, 12),
    flush_pending=st.integers(1, 24),
    ttl=st.sampled_from([0.0, 1.0, 2.5]),
    drift=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_states_stay_consistent_with_the_database(
    micro, flush_pending, ttl, drift, seed
):
    rng = random.Random(seed)
    rtg, driver = driver_for(streaming(
        micro_batch_size=micro,
        flush_pending=flush_pending,
        pattern_ttl_days=ttl,
        drift_merge=drift,
        drift_split=drift,
        split_min_matches=4,
    ))

    def check():
        assert_states_mirror_db(rtg)
        assert driver.pending == sum(map(n_pending, rtg.states.values()))

    check()
    for day in range(4):
        now = NOW + timedelta(days=day)
        for record in day_records(rng, day, 30):
            driver.offer(record, now=now)
            check()
        driver.flush()
        check()
    driver.close()
    check()
    assert driver.pending == 0
