"""The ``AnalyzeByService`` front end (paper Fig. 2) and legacy ``Analyze``.

The workflow itself — service partition → scan → parse known → token
count partition → per-trie analyse → persist — lives in
:mod:`repro.core.engine` as explicit stage objects; this module owns the
long-lived miner state those stages operate on (scanner, pattern
database, one :class:`~repro.core.state.ServiceState` per service, the
one analyser their pending evidence is mined by) and the thin drivers
around the engine.

``analyze_legacy`` reproduces the seminal single-trie ``Analyze`` method
for the Fig. 5 comparison.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from datetime import datetime
from typing import TYPE_CHECKING

from repro.analyzer import build_analyzer
from repro.analyzer.analyzer import LegacyAnalyzer
from repro.analyzer.pattern import Pattern
from repro.core.config import RTGConfig
from repro.core.engine import BatchResult, MiningEngine, drive_stream
from repro.core.patterndb import PatternDB
from repro.core.records import LogRecord
from repro.core.state import ServiceState
from repro.obs.metrics import MetricsRegistry
from repro.parser.parser import Parser
from repro.scanner import build_scanner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.streaming import StreamDriver

__all__ = ["SequenceRTG", "BatchResult"]


class SequenceRTG:
    """Production-ready pattern miner (the paper's contribution).

    A :class:`SequenceRTG` instance owns one scanner, one pattern
    database, one analyser and a map of service →
    :class:`~repro.core.state.ServiceState`.  ``analyze_by_service``
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
        #: service -> its live state, in first-use order
        self.states: dict[str, ServiceState] = {}
        #: the one analyser every service's pending evidence is mined by:
        #: its node arena is reset and reused across partitions
        self.analyzer = build_analyzer(self.config.analyzer)
        #: the parse stage feeds the states' drift tracks (a
        #: drift-splitting stream driver turns it on)
        self.track_drift = False
        #: states used inside the open :meth:`transaction`, if one is
        #: open, each with its pending evidence as the transaction found it
        self._touched: dict[ServiceState, list[tuple]] | None = None
        #: runtime metrics registry (:mod:`repro.obs`); pool front ends
        #: pass theirs in so the in-process instance shares it
        self.metrics = metrics or MetricsRegistry()
        self.engine = MiningEngine(self)

    # ------------------------------------------------------------------
    def state(self, service: str) -> ServiceState:
        """The live state of *service*, created on first use."""
        state = self.states.get(service)
        if state is None:
            state = self.states[service] = ServiceState(
                service, self.db, self.config.parser
            )
        touched = self._touched
        if touched is not None and state not in touched:
            touched[state] = state.checkpoint()
        return state

    @contextmanager
    def transaction(self):
        """One database transaction; if the block raises, every state
        used inside it drops its parser and drift tracks, to reload from
        the rolled-back rows, and gets back its pending evidence as the
        block found it.  The outermost of nested blocks owns the commit
        and the rollback."""
        if self._touched is not None:
            yield
            return
        self._touched = touched = {}
        try:
            with self.db.transaction():
                yield
        except BaseException:
            for state, checkpoint in touched.items():
                state.drop()
                state.restore(checkpoint)
            raise
        finally:
            self._touched = None

    def parser_for(self, service: str) -> Parser:
        """Parser over the known patterns of *service* (cached)."""
        return self.state(service).parser

    def add_known_pattern(self, pattern: Pattern, now: datetime | None = None) -> str:
        """Persist *pattern*; a loaded parser of its service learns it
        without a rebuild.  Returns the pattern id."""
        pid = self.db.upsert(pattern, now=now)
        self.state(pattern.service).add(pattern)
        return pid

    def retire_patterns(self, service: str, ids) -> int:
        """Remove patterns from the DB and the service's live state (drift
        maintenance, TTL eviction); returns how many the DB held."""
        ids = list(ids)
        removed = self.db.delete_patterns(ids)
        self.state(service).retire(ids)
        return removed

    # ------------------------------------------------------------------
    def analyze_by_service(
        self, records: list[LogRecord], now: datetime | None = None
    ) -> BatchResult:
        """Run the Fig. 2 workflow over one batch of records.

        The scan stage deduplicates the batch: identical messages are
        scanned and parsed once, with multiplicities folded into match
        counts and — via weighted trie insertion — into pattern
        support, so the mined output is that of a per-occurrence run;
        ``result.cache`` reports the dedup tallies.  The call
        flushes: every service's unmatched messages are mined within it.
        """
        return self.engine.run(records, now=now, flush=True)

    # ------------------------------------------------------------------
    def analyze_legacy(self, records: list[LogRecord]) -> list[Pattern]:
        """Seminal Sequence ``Analyze``: one trie, no partitioning.

        Reproduced for the Fig. 5 comparison.  All services and message
        lengths share a single analysis trie, nothing is parsed against
        known patterns first, and nothing is persisted.
        """
        analyzer = LegacyAnalyzer()
        scanned = [self.scanner.scan(r.message, service=r.service) for r in records]
        patterns = analyzer.analyze(scanned)
        self.last_legacy_trie_nodes = analyzer.last_trie_nodes
        return patterns

    # ------------------------------------------------------------------
    def stream_driver(self, clock=time.monotonic) -> "StreamDriver":
        """A :class:`~repro.core.streaming.StreamDriver` over this miner.

        *clock* (monotonic seconds) is injectable for tests.
        """
        from repro.core.streaming import StreamDriver

        return StreamDriver(self, clock=clock)

    # ------------------------------------------------------------------
    def process_stream(self, batches, now: datetime | None = None):
        """Run ``analyze_by_service`` for every batch; yield results.

        *batches* is any iterable of record lists — typically
        :meth:`repro.core.ingest.StreamIngester.batches`.
        """
        return drive_stream(self, batches, now=now)
