"""The stream driver: micro-batches over the engine, mined by flushes.

Batch mode (the paper's workflow) holds records until ``batch_size`` has
accumulated and mines each batch to completion — fine for throughput,
but the batch barrier caps tail latency for interactive consumers: a
message arriving right after a batch closed waits a whole accumulation
period before its match statistics (let alone new patterns) exist.

Stream mode removes the barrier with two clocks instead of one:

* **micro-batches** (1..N records, flush-on-timeout) run the engine's
  scan → parse → persist-match-stats path immediately, so per-message
  latency is bounded by ``micro_batch_size``/``micro_batch_timeout_s``
  and recorded in the ``rtg_stream_message_latency_seconds`` histogram,
  whose :meth:`~repro.obs.metrics.Histogram.quantile` reports the p99;
* **flushes** mine the pending evidence the
  :class:`~repro.core.engine.AnalyzeStage` accumulates in each service's
  :class:`~repro.core.state.ServiceState` across micro-batches, once
  enough unmatched evidence is pending (or the flush interval elapses).
  A micro-batch whose run raises stays buffered for the next attempt.

Mining on less-than-a-batch evidence drifts: early flushes see few
distinct values per variable position and mine overly *specific*
patterns (USTEP, arXiv:2304.12331, hits the same effect with its
evolving search tree).  :meth:`StreamDriver.flush` therefore runs three
maintenance passes that keep the online pattern set converging toward
what batch mode would have mined:

* **drift merge** — a newly mined, more general pattern subsumes stored
  specific ones (their examples all match it); the specifics retire and
  their counts/examples fold into the general pattern;
* **drift split** — a pattern variable observed with exactly one
  distinct value across many matches (the drift tracks of its
  service's :class:`~repro.core.state.ServiceState`) folds back to a
  static constant;
* **TTL eviction** — patterns whose ``last_matched`` date fell behind
  ``pattern_ttl_days`` are deleted, bounding the pattern set under
  workload churn.

All three mutate the pattern set incrementally (a DB write plus
:meth:`~repro.core.state.ServiceState.retire`/``add``), in one
transaction with the engine's flush: a failure anywhere rolls both back.
The merge probes run the miner's own compiled path — the scanner's
``scan_columns`` and a one-pattern ``build_parser`` — never the
reference classes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING

from repro.analyzer.pattern import Pattern, PatternToken
from repro.core.engine import BatchResult
from repro.core.records import LogRecord
from repro.obs.observer import METRIC_HELP
from repro.parser import build_parser

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import SequenceRTG

__all__ = ["StreamDriver", "StreamStats"]


@dataclass(slots=True)
class StreamStats:
    """Cumulative counters of one :class:`StreamDriver`'s lifetime."""

    n_messages: int = 0
    n_matched: int = 0
    n_micro_batches: int = 0
    n_flushes: int = 0
    n_new_patterns: int = 0
    n_evicted: int = 0
    n_drift_merges: int = 0
    n_drift_splits: int = 0


class StreamDriver:
    """Drive per-record input through the engine, flushing by policy.

    Records enter through :meth:`offer` (or :meth:`feed`); full
    micro-batches process immediately, partial ones when :meth:`poll`
    sees the micro-batch timeout expire.  A micro-batch only absorbs
    unmatched evidence; flush triggers are evaluated after every
    micro-batch; :meth:`close` drains everything.  With drift splitting
    on, the driver has the parse stage track every hit's variable values
    in the service states (``rtg.track_drift``).

    *clock* is injectable (monotonic seconds) so timeout/interval
    behaviour is testable without sleeping; the DB timestamp is the
    *now* passed alongside records, exactly as in batch mode.
    """

    def __init__(self, rtg: "SequenceRTG", clock=time.monotonic) -> None:
        self.rtg = rtg
        self.config = rtg.config.streaming
        if self.config.drift_split:
            rtg.track_drift = True
        self.clock = clock
        self.stats = StreamStats()
        self._buffer: list[LogRecord] = []
        self._buffer_at: float | None = None
        self._last_flush = clock()
        self._now: datetime | None = None
        self._closed = False
        registry = rtg.metrics
        self._latency_hist = registry.histogram(
            "rtg_stream_message_latency_seconds",
            METRIC_HELP["rtg_stream_message_latency_seconds"],
        )
        self._flush_counter = registry.counter(
            "rtg_stream_flushes_total", METRIC_HELP["rtg_stream_flushes_total"]
        )
        self._evict_counter = registry.counter(
            "rtg_stream_evictions_total",
            METRIC_HELP["rtg_stream_evictions_total"],
        )
        self._drift_counter = registry.counter(
            "rtg_stream_drift_total", METRIC_HELP["rtg_stream_drift_total"]
        )

    # -- ingestion -------------------------------------------------------
    @property
    def pending(self) -> int:
        """Distinct unmatched messages awaiting a flush, over all services."""
        return sum(state.n_pending for state in self.rtg.states.values())

    def offer(self, record: LogRecord, now: datetime | None = None) -> None:
        """Buffer one record; process when the micro-batch fills."""
        if self._closed:
            raise RuntimeError("StreamDriver is closed")
        if now is not None:
            self._now = now
        if self._buffer_at is None:
            self._buffer_at = self.clock()
        self._buffer.append(record)
        if len(self._buffer) >= self.config.micro_batch_size:
            self._process()

    def feed(self, records, now: datetime | None = None) -> None:
        """Offer every record of an iterable."""
        for record in records:
            self.offer(record, now=now)

    def poll(self) -> None:
        """Run the wall-clock triggers: micro-batch timeout, flush interval.

        Call this whenever input is idle (the CLI does between reads);
        a full micro-batch or flush condition never waits on it.
        """
        at = self.clock()
        if (
            self._buffer
            and self._buffer_at is not None
            and at - self._buffer_at >= self.config.micro_batch_timeout_s
        ):
            self._process()
        if (
            self.pending
            and at - self._last_flush >= self.config.flush_interval_s
        ):
            self.flush("interval")

    def close(self) -> BatchResult | None:
        """Drain the buffer, run a final flush, seal the driver."""
        if self._closed:
            return None
        result = None
        if self._buffer:
            self._process()
        if self.pending:
            result = self.flush("close")
        self._closed = True
        return result

    # -- processing ------------------------------------------------------
    def _process(self) -> None:
        batch = self._buffer
        began = self.clock()
        # the buffer empties only once the run committed: a failed
        # micro-batch stays buffered, and the next attempt mines it
        result = self.rtg.engine.run(batch, now=self._now)
        self._buffer = []
        self._buffer_at = None
        per_message = (self.clock() - began) / len(batch)
        stats = self.stats
        stats.n_messages += len(batch)
        stats.n_matched += result.n_matched
        stats.n_micro_batches += 1
        self._latency_hist.observe(per_message, n=len(batch))
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        pending = self.pending
        if pending >= self.config.flush_pending:
            self.flush("pending")
        elif (
            pending
            and self.clock() - self._last_flush >= self.config.flush_interval_s
        ):
            self.flush("interval")

    def flush(self, trigger: str = "manual") -> BatchResult:
        """Mine everything pending, then run drift/TTL maintenance: one
        transaction (:meth:`~repro.core.pipeline.SequenceRTG.transaction`).
        The counters count only a committed flush."""
        rtg = self.rtg
        config = self.config
        merged = split = 0
        evicted: dict[str, int] = {}
        with rtg.transaction():
            result = rtg.engine.flush(now=self._now)
            if config.drift_merge and result.new_patterns:
                merged = self._drift_merge(result.new_patterns)
            if config.drift_split:
                split = self._drift_split()
            if config.pattern_ttl_days > 0:
                evicted = self._evict_stale()
        self._last_flush = self.clock()
        stats = self.stats
        stats.n_flushes += 1
        stats.n_new_patterns += result.n_new_patterns
        stats.n_drift_merges += merged
        stats.n_drift_splits += split
        self._flush_counter.inc(trigger=trigger)
        if merged:
            self._drift_counter.inc(merged, event="merge")
        if split:
            self._drift_counter.inc(split, event="split")
        for service, n in evicted.items():
            stats.n_evicted += n
            self._evict_counter.inc(n, service=service)
        return result

    # -- maintenance -----------------------------------------------------
    def _drift_merge(self, new_patterns: list[Pattern]) -> int:
        """Retire stored patterns a newly mined general pattern subsumes.

        Subsumption is checked against evidence, not structure: an old
        pattern of the same service and token length, strictly fewer
        variables, whose *every* stored example matches a single-pattern
        probe parser built from the new pattern.  The old pattern's
        match count and examples fold into the new one before it
        retires, so no statistics are lost: one ``record_matches`` and
        one ``add_examples`` per service.  Returns how many retired.

        Cost per flush is O(new generals × stored rows of the *same
        length*): the service's rows are indexed once by the token count
        the live parser already holds for them, and each row's examples
        are scanned to token columns at most once, however many generals
        probe them.  Candidates keep the row order within a length —
        that order decides which examples fold first.
        """
        rtg = self.rtg
        n_retired = 0
        by_service: dict[str, list[Pattern]] = {}
        for pattern in new_patterns:
            if pattern.n_variables > 0:
                by_service.setdefault(pattern.service, []).append(pattern)
        for service, generals in by_service.items():
            candidates = self._merge_candidates(service)
            #: example -> its token columns, filled on first use: a probe
            #: stops at the first example it misses
            columns: dict[str, tuple] = {}
            retired: set[str] = set()
            #: general id -> folded match count / examples, in fold order
            folds: dict[str, int] = {}
            examples: dict[str, list[str]] = {}
            for general in generals:
                same_length = candidates.get(len(general.tokens))
                if not same_length:
                    continue
                probe = build_parser([general]).match_columns
                general_id = general.id
                n_variables = general.n_variables
                for row, row_variables in same_length:
                    if (
                        row.id == general_id
                        or row.id in retired
                        or row_variables >= n_variables
                    ):
                        continue
                    if not all(
                        probe(*self._columns(columns, example)) is not None
                        for example in row.examples
                    ):
                        continue
                    folds[general_id] = folds.get(general_id, 0) + row.match_count
                    examples.setdefault(general_id, []).extend(row.examples)
                    retired.add(row.id)
            if retired:
                rtg.db.record_matches(folds, now=self._now)
                rtg.db.add_examples(examples)
                rtg.retire_patterns(service, retired)
                n_retired += len(retired)
        return n_retired

    def _merge_candidates(self, service: str) -> dict[int, list[tuple]]:
        """``(row, variable count)`` of *service*'s stored rows that
        have examples, by token count, in row order.  The counts come
        from the live parser's pattern of the same id; a row no live
        parser holds is decoded instead."""
        live = self.rtg.parser_for(service)
        out: dict[int, list[tuple]] = {}
        for row in self.rtg.db.rows(service=service):
            if not row.examples:
                continue
            pattern = live.get(row.id) or row.to_pattern()
            out.setdefault(len(pattern.tokens), []).append(
                (row, pattern.n_variables)
            )
        return out

    def _columns(self, memo: dict[str, tuple], example: str):
        """``(texts, types)`` of one stored example scanned to token
        columns — the arguments of a probe's ``match_columns`` —
        computed once per *memo*."""
        pair = memo.get(example)
        if pair is None:
            cols = self.rtg.scanner.scan_columns([example])
            pair = memo[example] = (cols.texts, cols.types)
        return pair

    def _drift_split(self) -> int:
        """Fold single-valued variables back to constants.

        A variable that matched ``split_min_matches`` occurrences with
        exactly one distinct value is over-general — the miner saw too
        few messages at discovery time to know the position was static.
        The pattern retires and a folded copy (variable → constant)
        inherits its count and the examples containing the value.
        Returns how many patterns split.
        """
        rtg = self.rtg
        n_split = 0
        for state in rtg.states.values():
            for pid, pattern, name, value in state.split_candidates(
                self.config.split_min_matches
            ):
                service = state.service
                row = rtg.db.row(pid)
                if row is None:
                    state.retire([pid])
                    continue
                folded_tokens = [
                    PatternToken.static(value, is_space_before=tok.is_space_before)
                    if tok.is_variable and tok.name == name
                    else tok
                    for tok in pattern.tokens
                ]
                folded = Pattern(
                    tokens=folded_tokens,
                    service=service,
                    support=row.match_count,
                    examples=[e for e in row.examples if value in e],
                )
                rtg.retire_patterns(service, [pid])
                rtg.add_known_pattern(folded, now=self._now)
                n_split += 1
        return n_split

    def _evict_stale(self) -> dict[str, int]:
        """TTL eviction off the ``last_matched`` dates the DB tracks;
        returns how many patterns each service lost."""
        stale = self.rtg.db.stale_patterns(
            self.config.pattern_ttl_days, now=self._now
        )
        by_service: dict[str, list[str]] = {}
        for service, pid in stale:
            by_service.setdefault(service, []).append(pid)
        for service, ids in by_service.items():
            self.rtg.retire_patterns(service, ids)
        return {service: len(ids) for service, ids in by_service.items()}
