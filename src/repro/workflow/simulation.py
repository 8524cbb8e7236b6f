"""60-day production deployment simulation (paper Fig. 7).

Reproduces the paper's deployment narrative end to end:

* before Sequence-RTG, the hand-maintained pattern database matches only
  20-25% of messages (§I) — the simulation bootstraps syslog-ng's
  patterndb to that coverage;
* every day the stream is routed through syslog-ng; only unmatched
  messages are piped to Sequence-RTG, which analyses them in batches of
  the configured size (§IV: batch size 100,000 in production, scaled
  here);
* every few days administrators review the mined patterns — selecting on
  match count and complexity score — and promote them through the
  patterndb test-case validation (§III/§IV);
* services keep evolving: new templates appear daily (churn), which is
  why the unmatched fraction stabilises around 15% instead of reaching
  zero (§IV, Fig. 7).

The per-day statistics include analysis timing and the average time to
fill a batch, mirroring the §IV production report (7.5 s average
analysis time, batch fill time growing from ~15 to ~25-30 minutes as
promotions shrink the unmatched stream).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core.config import RTGConfig
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.core.records import LogRecord
from repro.workflow.elasticsearch import SimulatedElasticsearch
from repro.workflow.stream import ProductionStream, StreamConfig
from repro.workflow.syslog_ng import SyslogNG

__all__ = ["SimulationConfig", "DayStats", "ProductionSimulation"]

_MINUTES_PER_DAY = 24 * 60


@dataclass(slots=True)
class SimulationConfig:
    """Scaled-down deployment parameters (paper values in comments)."""

    days: int = 60  # the Fig. 7 observation window
    msgs_per_day: tuple[int, int] = (7_000, 10_000)  # paper: 70-100M
    batch_size: int = 1_000  # paper: 100,000
    review_every_days: int = 3  # admins review when they have capacity
    promote_min_count: int = 10  # review selects the strongest patterns
    promote_max_complexity: float = 0.9
    initial_coverage: float = 0.22  # paper: 20-25% matched before RTG
    churn_templates_per_day: int = 6  # software updates add new events
    stream: StreamConfig = field(default_factory=StreamConfig)
    seed: int = 7


@dataclass(slots=True)
class DayStats:
    """One day of deployment telemetry."""

    day: int
    n_messages: int
    n_matched: int
    n_unmatched: int
    n_batches: int
    analysis_seconds: float
    batch_fill_minutes: float
    n_promoted: int
    patterndb_size: int

    @property
    def unmatched_fraction(self) -> float:
        return self.n_unmatched / self.n_messages if self.n_messages else 0.0


class ProductionSimulation:
    """Drive the Fig. 6 workflow for a configurable number of days."""

    def __init__(self, config: SimulationConfig | None = None) -> None:
        self.config = config or SimulationConfig()
        self._rng = random.Random(self.config.seed)
        self.stream = ProductionStream(self.config.stream)
        self.syslog = SyslogNG()
        self.es = SimulatedElasticsearch()
        self.rtg = self._make_miner()
        self._promoted_ids: set[str] = set()

    def _make_miner(self) -> SequenceRTG:
        """Fresh miner over an empty DB."""
        return SequenceRTG(
            db=PatternDB(),
            config=RTGConfig(batch_size=self.config.batch_size, save_threshold=1),
        )

    # ------------------------------------------------------------------
    def bootstrap(self) -> int:
        """Seed the patterndb to the paper's pre-RTG coverage (~20-25%).

        Models the hand-maintained pattern database: mine a reference
        sample offline, then keep only the most frequently matched
        patterns until the expected coverage reaches the target.
        """
        sample_size = max(self.config.msgs_per_day) * 2
        sample = list(self.stream.records(sample_size))
        result = self.rtg.analyze_by_service(sample)
        ranked = sorted(result.new_patterns, key=lambda p: p.support, reverse=True)
        covered = 0
        chosen = []
        for pattern in ranked:
            if covered / sample_size >= self.config.initial_coverage:
                break
            chosen.append(pattern)
            covered += pattern.support
        report = self.syslog.promote(chosen)
        self._promoted_ids.update(p.id for p in chosen)
        # the bootstrap mining session belongs to the "before" era: reset
        # the miner so day-1 statistics start from a clean database
        self.rtg = self._make_miner()
        return report.promoted

    # ------------------------------------------------------------------
    def run_day(self, day: int) -> DayStats:
        """Route one day of traffic and run the miner on the unmatched."""
        n_messages = self._rng.randint(*self.config.msgs_per_day)
        batch: list[LogRecord] = []
        n_matched = 0
        n_batches = 0
        analysis_seconds = 0.0
        index = f"logs-{day:03d}"
        def analyze_batch(records: list[LogRecord]) -> None:
            nonlocal n_batches, analysis_seconds
            start = time.perf_counter()
            self.rtg.analyze_by_service(records)
            analysis_seconds += time.perf_counter() - start
            n_batches += 1

        for record in self.stream.records(n_messages):
            routed = self.syslog.route(record)
            self.es.index(
                index,
                {
                    "service": record.service,
                    "message": record.message,
                    "matched": routed.matched,
                    "pattern_id": routed.pattern_id,
                    # "it allows a small amount of information to be
                    # extracted from the message which is passed with the
                    # message to be stored" (paper §II)
                    "fields": routed.fields,
                },
            )
            if routed.matched:
                n_matched += 1
                continue
            batch.append(record)
            if len(batch) >= self.config.batch_size:
                analyze_batch(batch)
                batch = []
        if batch:
            analyze_batch(batch)

        n_promoted = 0
        if day % self.config.review_every_days == 0:
            n_promoted = self._review()

        self.stream.add_churn_templates(self.config.churn_templates_per_day)

        n_unmatched = n_messages - n_matched
        return DayStats(
            day=day,
            n_messages=n_messages,
            n_matched=n_matched,
            n_unmatched=n_unmatched,
            n_batches=n_batches,
            analysis_seconds=analysis_seconds,
            batch_fill_minutes=_MINUTES_PER_DAY / max(1, n_batches),
            n_promoted=n_promoted,
            patterndb_size=self.syslog.n_patterns,
        )

    def _review(self) -> int:
        """Administrator review: promote strong mined patterns."""
        candidates = []
        for row in self.rtg.db.rows(
            min_count=self.config.promote_min_count,
            max_complexity=self.config.promote_max_complexity,
        ):
            if row.id not in self._promoted_ids:
                candidates.append(row.to_pattern())
        report = self.syslog.promote(candidates)
        self._promoted_ids.update(p.id for p in candidates)
        return report.promoted

    # ------------------------------------------------------------------
    def run(self, days: int | None = None) -> list[DayStats]:
        """Bootstrap then run the full observation window."""
        self.bootstrap()
        history: list[DayStats] = []
        for day in range(1, (days or self.config.days) + 1):
            history.append(self.run_day(day))
        return history
