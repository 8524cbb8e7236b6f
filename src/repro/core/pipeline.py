"""The ``AnalyzeByService`` front end (paper Fig. 2) and legacy ``Analyze``.

The workflow itself — service partition → scan → parse known → token
count partition → per-trie analyse → persist — lives in
:mod:`repro.core.engine` as explicit stage objects; this module owns the
long-lived miner state those stages operate on (scanner, pattern
database, per-service parser cache, fast lane) and the thin drivers
around the engine.

``analyze_legacy`` reproduces the seminal single-trie ``Analyze`` method
for the Fig. 5 comparison.
"""

from __future__ import annotations

from datetime import datetime
from typing import TYPE_CHECKING

from repro.analyzer.analyzer import LegacyAnalyzer
from repro.analyzer.pattern import Pattern
from repro.core.config import RTGConfig
from repro.core.engine import BatchResult, MiningEngine, drive_stream
from repro.core.fastpath import FastPath
from repro.core.patterndb import PatternDB
from repro.core.records import LogRecord
from repro.obs.metrics import MetricsRegistry
from repro.parser import build_parser
from repro.parser.parser import Parser
from repro.scanner import build_scanner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.streaming import StreamDriver

__all__ = ["SequenceRTG", "BatchResult"]


class SequenceRTG:
    """Production-ready pattern miner (the paper's contribution).

    A :class:`SequenceRTG` instance owns one scanner, one pattern
    database and a per-service parser cache.  ``analyze_by_service``
    processes one batch on the staged
    :class:`~repro.core.engine.MiningEngine`; :meth:`process_stream`
    drives batches from an ingester for continuous operation.  Extra
    per-stage instrumentation plugs into ``self.engine.observers``
    (see :class:`~repro.core.engine.StageObserver`).
    """

    def __init__(
        self,
        db: PatternDB | None = None,
        config: RTGConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.config = config or RTGConfig()
        self.db = db or PatternDB()
        self.scanner = build_scanner(self.config.scanner)
        self._parsers: dict[str, Parser] = {}
        self.fastpath = FastPath()
        #: runtime metrics registry (:mod:`repro.obs`); pool front ends
        #: pass theirs in so the in-process instance shares it
        self.metrics = metrics or MetricsRegistry()
        self.engine = self._build_engine()

    def _build_engine(self) -> MiningEngine:
        """The staged engine, shaped by ``config.mode``.

        ``stream`` defers the analyze stage (absorb now, mine on
        :meth:`flush`) and plugs a
        :class:`~repro.core.streaming.ValueDriftTracker` into the parse
        stage when drift splitting is on; ``batch`` is the paper's
        mine-every-batch workflow.
        """
        if self.config.mode != "stream":
            return MiningEngine(self)
        tracker = None
        if self.config.streaming.drift_split:
            # imported lazily: streaming imports engine types from this
            # package level
            from repro.core.streaming import ValueDriftTracker

            tracker = ValueDriftTracker(
                max_values=self.config.streaming.drift_max_values
            )
        return MiningEngine(self, deferred_analysis=True, field_tracker=tracker)

    # ------------------------------------------------------------------
    def parser_for(self, service: str) -> Parser:
        """Parser over the known patterns of *service* (cached)."""
        parser = self._parsers.get(service)
        if parser is None:
            parser = build_parser(
                self.db.load_service(service), self.config.parser
            )
            self._parsers[service] = parser
        return parser

    def invalidate_parsers(self) -> None:
        """Drop every cached parser (after external DB mutation)."""
        for service in list(self._parsers):
            self.invalidate_service(service)

    def invalidate_service(self, service: str) -> None:
        """Drop one service's parser and match cache (after that
        service's patterns were mutated outside this instance)."""
        self._parsers.pop(service, None)
        self.fastpath.invalidate_service(service)

    def add_known_pattern(self, pattern: Pattern, now: datetime | None = None) -> str:
        """Persist *pattern* and extend the service's parser in place.

        The incremental alternative to mutating the DB externally and
        calling :meth:`invalidate_service`: the cached parser (if any)
        learns the pattern without a from-scratch rebuild, and its
        version bump invalidates the service's match cache lazily.
        Returns the pattern id.
        """
        pid = self.db.upsert(pattern, now=now)
        parser = self._parsers.get(pattern.service)
        if parser is not None:
            parser.add_pattern(pattern)
        return pid

    def retire_patterns(self, service: str, ids) -> int:
        """Remove patterns from the DB and the live matching state.

        The removal counterpart of :meth:`add_known_pattern`, used by
        stream-mode drift maintenance and TTL eviction.  The cached
        parser (if any) rebuilds only the length buckets it loses
        patterns from, with a strictly monotone version bump, so the
        fast lane's version-pinned match cache entries for this service
        go stale rather than being trusted — incremental churn never
        needs a full cache invalidation.  The drift tracker (if the
        engine carries one) forgets the ids too.
        Returns how many patterns the DB actually held.
        """
        ids = list(ids)
        removed = self.db.delete_patterns(ids)
        parser = self._parsers.get(service)
        if parser is not None:
            parser.remove_patterns(ids)
        else:
            # no live parser to rebuild — drop any cached match state so
            # the next parser_for load can't race a stale cache
            self.fastpath.invalidate_service(service)
        tracker = self.engine.field_tracker
        if tracker is not None:
            for pid in ids:
                tracker.discard(pid)
        return removed

    # ------------------------------------------------------------------
    def analyze_by_service(
        self, records: list[LogRecord], now: datetime | None = None
    ) -> BatchResult:
        """Run the Fig. 2 workflow over one batch of records.

        The scan→parse stages run through the duplicate-aware fast
        lane: identical messages are scanned and parsed once per batch
        (and cached across batches), with multiplicities folded into
        match counts and — via weighted trie insertion — into pattern
        support, so the mined output is that of a per-occurrence run;
        ``result.cache`` reports the lane's effectiveness.
        """
        return self.engine.run(records, now=now)

    # ------------------------------------------------------------------
    def analyze_legacy(self, records: list[LogRecord]) -> list[Pattern]:
        """Seminal Sequence ``Analyze``: one trie, no partitioning.

        Reproduced for the Fig. 5 comparison.  All services and message
        lengths share a single analysis trie, nothing is parsed against
        known patterns first, and nothing is persisted.
        """
        analyzer = LegacyAnalyzer(None)
        scanned = [self.scanner.scan(r.message, service=r.service) for r in records]
        patterns = analyzer.analyze(scanned)
        self.last_legacy_trie_nodes = analyzer.last_trie_nodes
        return patterns

    # ------------------------------------------------------------------
    def flush(self, now: datetime | None = None) -> BatchResult:
        """Mine and persist everything pending in the evolving state.

        Stream mode's deferred analysis step (see
        :meth:`~repro.core.engine.MiningEngine.flush`); a no-op empty
        result in batch mode, where nothing ever defers.
        """
        return self.engine.flush(now=now)

    def stream_driver(self, clock=None) -> "StreamDriver":
        """A :class:`~repro.core.streaming.StreamDriver` over this miner.

        Requires ``config.mode == "stream"``; *clock* (monotonic
        seconds) is injectable for tests.
        """
        from repro.core.streaming import StreamDriver

        if clock is None:
            return StreamDriver(self)
        return StreamDriver(self, clock=clock)

    # ------------------------------------------------------------------
    def process_stream(self, batches, now: datetime | None = None):
        """Run ``analyze_by_service`` for every batch; yield results.

        *batches* is any iterable of record lists — typically
        :meth:`repro.core.ingest.StreamIngester.batches`.
        """
        return drive_stream(self, batches, now=now)
