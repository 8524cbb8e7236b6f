"""The ``stream`` execution mode: micro-batches over the deferred engine.

Batch mode (the paper's workflow) holds records until ``batch_size`` has
accumulated and mines each batch to completion — fine for throughput,
but the batch barrier caps tail latency for interactive consumers: a
message arriving right after a batch closed waits a whole accumulation
period before its match statistics (let alone new patterns) exist.

Stream mode removes the barrier with two clocks instead of one:

* **micro-batches** (1..N records, flush-on-timeout) run the engine's
  scan → parse → persist-match-stats path immediately, so per-message
  latency is bounded by ``micro_batch_size``/``micro_batch_timeout_s``
  and reported as a p99 histogram;
* **flushes** mine the evolving analysis state the deferred
  :class:`~repro.core.engine.AnalyzeStage` accumulates across
  micro-batches, once enough unmatched evidence is pending (or a
  partition hits its memory bound, or the flush interval elapses).

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
  distinct value across many matches (tracked by
  :class:`ValueDriftTracker`) folds back to a static constant;
* **TTL eviction** — patterns whose ``last_matched`` date fell behind
  ``pattern_ttl_days`` are deleted, bounding the pattern set under
  workload churn.

All three mutate the pattern set incrementally — DB delete + in-place
:meth:`~repro.parser.parser.Parser.remove_patterns`/
``add_pattern`` — and stay cache-safe because the parser version is
strictly monotone across removals (see
:meth:`repro.core.pipeline.SequenceRTG.retire_patterns`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING

from repro.analyzer.enrich import enrich_tokens
from repro.analyzer.pattern import Pattern, PatternToken, VarClass
from repro.core.engine import BatchResult
from repro.core.records import LogRecord
from repro.parser.parser import Parser

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import SequenceRTG

__all__ = ["StreamDriver", "StreamStats", "ValueDriftTracker"]

#: Variable classes drift splitting never folds to a constant: times
#: recur by value without being structure, and ignore-rest swallows
#: arbitrary tails.
_NEVER_SPLIT = (VarClass.TIME, VarClass.REST)


class _FieldTrack:
    """Value distribution of one pattern variable."""

    __slots__ = ("values", "count", "overflow")

    def __init__(self) -> None:
        self.values: set[str] = set()
        self.count = 0
        self.overflow = False


class ValueDriftTracker:
    """Per-(pattern, variable) value distributions from live matches.

    The :class:`~repro.core.engine.ParseStage` feeds every hit's
    extracted fields through :meth:`observe`; the driver's flush asks
    :meth:`split_candidates` for variables that saw exactly one distinct
    value across at least ``min_matches`` occurrences — the over-general
    positions drift splitting folds back to constants.

    Memory is bounded per variable (``max_values`` distinct values, then
    the track overflows and only counts); the tracked-pattern population
    is bounded by the live pattern set, since retired ids are
    :meth:`discard`-ed.
    """

    def __init__(self, max_values: int = 8) -> None:
        self.max_values = max_values
        #: pattern id -> (pattern, variable name -> track)
        self._tracks: dict[str, tuple[Pattern, dict[str, _FieldTrack]]] = {}

    def __len__(self) -> int:
        return len(self._tracks)

    def observe(
        self, pattern_id: str, pattern: Pattern, fields: dict[str, str], n: int
    ) -> None:
        """Record one match's variable bindings (*n* occurrences)."""
        entry = self._tracks.get(pattern_id)
        if entry is None:
            names: dict[str, _FieldTrack] = {}
            for tok in pattern.tokens:
                if (
                    tok.is_variable
                    and tok.name
                    and tok.var_class not in _NEVER_SPLIT
                ):
                    names[tok.name] = _FieldTrack()
            entry = self._tracks[pattern_id] = (pattern, names)
        for name, track in entry[1].items():
            value = fields.get(name)
            if value is None:
                continue
            track.count += n
            if track.overflow:
                continue
            track.values.add(value)
            if len(track.values) > self.max_values:
                track.overflow = True
                track.values.clear()

    def split_candidates(
        self, min_matches: int
    ) -> list[tuple[str, Pattern, str, str]]:
        """``(pattern id, pattern, variable name, the one value)`` of
        every variable stuck on a single value for *min_matches*+
        occurrences.  At most one candidate per pattern — a split
        produces a new pattern whose remaining variables are tracked
        afresh, so further folds happen on later flushes."""
        out: list[tuple[str, Pattern, str, str]] = []
        for pid, (pattern, tracks) in self._tracks.items():
            for name, track in tracks.items():
                if (
                    not track.overflow
                    and track.count >= min_matches
                    and len(track.values) == 1
                ):
                    out.append((pid, pattern, name, next(iter(track.values))))
                    break
        return out

    def discard(self, pattern_id: str) -> None:
        """Forget a retired pattern's tracks."""
        self._tracks.pop(pattern_id, None)


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
    """Drive per-record input through the deferred engine.

    Records enter through :meth:`offer` (or :meth:`feed`); full
    micro-batches process immediately, partial ones when :meth:`poll`
    sees the micro-batch timeout expire.  Flush triggers are evaluated
    after every micro-batch; :meth:`close` drains everything.

    *clock* is injectable (monotonic seconds) so timeout/interval
    behaviour is testable without sleeping; the DB timestamp is the
    *now* passed alongside records, exactly as in batch mode.
    """

    def __init__(self, rtg: "SequenceRTG", clock=time.monotonic) -> None:
        if rtg.config.mode != "stream":
            raise ValueError(
                "StreamDriver requires RTGConfig.mode == 'stream', got "
                f"{rtg.config.mode!r}"
            )
        self.rtg = rtg
        self.config = rtg.config.streaming
        self.clock = clock
        self.stats = StreamStats()
        #: per-message latency samples (seconds), most recent
        #: ``latency_window`` messages
        self.latencies: deque[float] = deque(maxlen=self.config.latency_window)
        self._buffer: list[LogRecord] = []
        self._buffer_at: float | None = None
        self._last_flush = clock()
        self._now: datetime | None = None
        self._closed = False
        registry = rtg.metrics if rtg.config.enable_metrics else None
        if registry is not None:
            from repro.obs.observer import METRIC_HELP

            self._latency_hist = registry.histogram(
                "rtg_stream_message_latency_seconds",
                METRIC_HELP["rtg_stream_message_latency_seconds"],
            )
            self._flush_counter = registry.counter(
                "rtg_stream_flushes_total",
                METRIC_HELP["rtg_stream_flushes_total"],
            )
            self._evict_counter = registry.counter(
                "rtg_stream_evictions_total",
                METRIC_HELP["rtg_stream_evictions_total"],
            )
            self._drift_counter = registry.counter(
                "rtg_stream_drift_total",
                METRIC_HELP["rtg_stream_drift_total"],
            )
        else:
            self._latency_hist = None
            self._flush_counter = None
            self._evict_counter = None
            self._drift_counter = None

    # -- ingestion -------------------------------------------------------
    @property
    def pending(self) -> int:
        """Distinct unmatched messages awaiting a flush."""
        return self.rtg.engine.analyze_stage.evolving.pending_messages

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
        self._buffer = []
        self._buffer_at = None
        began = self.clock()
        result = self.rtg.engine.run(batch, now=self._now)
        per_message = (self.clock() - began) / len(batch)
        stats = self.stats
        stats.n_messages += len(batch)
        stats.n_matched += result.n_matched
        stats.n_micro_batches += 1
        self.latencies.extend([per_message] * len(batch))
        if self._latency_hist is not None:
            self._latency_hist.observe(per_message, n=len(batch))
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        evolving = self.rtg.engine.analyze_stage.evolving
        if evolving.pending_messages >= self.config.flush_pending:
            self.flush("pending")
        elif evolving.over_partition_bound:
            self.flush("partition_bound")
        elif (
            evolving.pending_messages
            and self.clock() - self._last_flush >= self.config.flush_interval_s
        ):
            self.flush("interval")

    def flush(self, trigger: str = "manual") -> BatchResult:
        """Mine everything pending, then run drift/TTL maintenance."""
        result = self.rtg.engine.flush(now=self._now)
        self._last_flush = self.clock()
        self.stats.n_flushes += 1
        self.stats.n_new_patterns += result.n_new_patterns
        if self._flush_counter is not None:
            self._flush_counter.inc(trigger=trigger)
        self._maintain(result)
        return result

    # -- maintenance -----------------------------------------------------
    def _maintain(self, result: BatchResult) -> None:
        if self.config.drift_merge and result.new_patterns:
            self._drift_merge(result.new_patterns)
        if self.config.drift_split:
            tracker = self.rtg.engine.field_tracker
            if tracker is not None:
                self._drift_split(tracker)
        if self.config.pattern_ttl_days > 0:
            self._evict_stale()

    def _drift_merge(self, new_patterns: list[Pattern]) -> None:
        """Retire stored patterns a newly mined general pattern subsumes.

        Subsumption is checked against evidence, not structure: an old
        pattern of the same service and token length, strictly fewer
        variables, whose *every* stored example matches a single-pattern
        probe parser built from the new pattern.  The old pattern's
        match count and examples fold into the new one before it
        retires, so no statistics are lost.

        Cost per flush is O(new generals × stored rows of the *same
        length*): the service's rows are indexed once by the token count
        the live parser already holds for them, and each row's examples
        are scanned and enriched at most once, however many generals
        probe them.  Candidates keep the row order within a length —
        that order decides which examples fold first.
        """
        rtg = self.rtg
        by_service: dict[str, list[Pattern]] = {}
        for pattern in new_patterns:
            if pattern.n_variables > 0:
                by_service.setdefault(pattern.service, []).append(pattern)
        for service, generals in by_service.items():
            candidates = self._merge_candidates(service)
            #: example -> (scanned, enriched tokens), filled on first use:
            #: a probe stops at the first example it misses
            probe_inputs: dict[str, tuple] = {}
            retired: set[str] = set()
            for general in generals:
                probe = Parser([general])
                general_id = general.id
                n_variables = general.n_variables
                for row, row_variables in candidates.get(len(general.tokens), ()):
                    if (
                        row.id == general_id
                        or row.id in retired
                        or row_variables >= n_variables
                    ):
                        continue
                    if not all(
                        probe.match(*self._probe_input(probe_inputs, service, example))
                        is not None
                        for example in row.examples
                    ):
                        continue
                    rtg.db.record_match(general_id, n=row.match_count, now=self._now)
                    for example in row.examples:
                        rtg.db.add_example(general_id, example)
                    retired.add(row.id)
            if retired:
                rtg.retire_patterns(service, retired)
                self.stats.n_drift_merges += len(retired)
                if self._drift_counter is not None:
                    self._drift_counter.inc(len(retired), event="merge")

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

    def _probe_input(self, memo: dict[str, tuple], service: str, example: str):
        """``(scanned, enriched tokens)`` of one stored example — the
        arguments of a probe's ``match`` — computed once per *memo*."""
        pair = memo.get(example)
        if pair is None:
            scanned = self.rtg.scanner.scan(example, service=service)
            pair = memo[example] = (scanned, enrich_tokens(scanned.tokens))
        return pair

    def _drift_split(self, tracker: ValueDriftTracker) -> None:
        """Fold single-valued variables back to constants.

        A variable that matched ``split_min_matches`` occurrences with
        exactly one distinct value is over-general — the miner saw too
        few messages at discovery time to know the position was static.
        The pattern retires and a folded copy (variable → constant)
        inherits its count and the examples containing the value.
        """
        rtg = self.rtg
        for pid, pattern, name, value in tracker.split_candidates(
            self.config.split_min_matches
        ):
            service = pattern.service
            row = rtg.db.row(pid)
            if row is None:
                tracker.discard(pid)
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
            self.stats.n_drift_splits += 1
            if self._drift_counter is not None:
                self._drift_counter.inc(event="split")

    def _evict_stale(self) -> None:
        """TTL eviction off the ``last_matched`` dates the DB tracks."""
        stale = self.rtg.db.stale_patterns(
            self.config.pattern_ttl_days, now=self._now
        )
        if not stale:
            return
        by_service: dict[str, list[str]] = {}
        for service, pid in stale:
            by_service.setdefault(service, []).append(pid)
        for service, ids in by_service.items():
            self.rtg.retire_patterns(service, ids)
            self.stats.n_evicted += len(ids)
            if self._evict_counter is not None:
                self._evict_counter.inc(len(ids), service=service)

    # -- latency report --------------------------------------------------
    def latency_quantile(self, q: float) -> float:
        """The *q*-quantile (0..1) of recent per-message latencies."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    def p99(self) -> float:
        return self.latency_quantile(0.99)
