"""Simulated syslog-ng collector with pattern database.

Implements exactly the behaviour the CC-IN2P3 workflow relies on (paper
Fig. 1/6): incoming logs are parsed against the promoted pattern
database; matched messages trigger their pattern's bookkeeping and are
routed onward, unmatched messages are routed to the miner.  Promotion
runs the patterndb *test cases*: "These test cases are used by syslog-ng
to ensure that all the example messages match their pattern, and no
other in the whole pattern database" (§III) — a pattern whose examples
match a different stored pattern is flagged as a conflict, mirroring the
multi-match review the paper describes ("the most correct pattern would
be promoted and the other discarded", §IV).  Routing and the test cases
run the miner's compiled scanner and parser, on token columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyzer.pattern import Pattern
from repro.core.records import LogRecord
from repro.parser import Parser, build_parser
from repro.scanner import build_scanner

__all__ = ["SyslogNG", "RouteResult", "PromotionReport"]


@dataclass(slots=True)
class RouteResult:
    """Outcome of routing one record."""

    matched: bool
    pattern_id: str | None = None
    fields: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class PromotionReport:
    """Result of promoting a batch of candidate patterns."""

    promoted: int = 0
    conflicts: int = 0  # example matched another pattern better
    rejected: int = 0  # example failed to match its own pattern


class SyslogNG:
    """Pattern-database front end of the log management workflow."""

    def __init__(self) -> None:
        self.scanner = build_scanner()
        self._parsers: dict[str, Parser] = {}
        self._patterns: dict[str, Pattern] = {}
        self.n_matched = 0
        self.n_unmatched = 0

    # ------------------------------------------------------------------
    @property
    def n_patterns(self) -> int:
        return len(self._patterns)

    def patterns(self) -> list[Pattern]:
        return list(self._patterns.values())

    def route(self, record: LogRecord) -> RouteResult:
        """Match *record* against the pattern database."""
        parser = self._parsers.get(record.service)
        if parser is None or len(parser) == 0:
            self.n_unmatched += 1
            return RouteResult(matched=False)
        cols = self.scanner.scan_columns([record.message])
        hit = parser.match_columns(cols.texts, cols.types)
        if hit is None:
            self.n_unmatched += 1
            return RouteResult(matched=False)
        self.n_matched += 1
        return RouteResult(matched=True, pattern_id=hit.pattern.id, fields=hit.fields)

    # ------------------------------------------------------------------
    def promote(self, patterns: list[Pattern]) -> PromotionReport:
        """Add reviewed patterns to the database, running test cases first."""
        report = PromotionReport()
        for pattern in patterns:
            if pattern.id in self._patterns:
                continue
            verdict = self._validate(pattern)
            if verdict == "ok":
                parser = self._parsers.setdefault(pattern.service, build_parser())
                parser.add_pattern(pattern)
                self._patterns[pattern.id] = pattern
                report.promoted += 1
            elif verdict == "conflict":
                report.conflicts += 1
            else:
                report.rejected += 1
        return report

    def _validate(self, pattern: Pattern) -> str:
        """Run the pattern's stored examples as patterndb test cases."""
        candidate = build_parser([pattern])
        existing = self._parsers.get(pattern.service)
        for example in pattern.examples:
            cols = self.scanner.scan_columns([example])
            if candidate.match_columns(cols.texts, cols.types) is None:
                return "rejected"
            if existing is not None:
                other = existing.match_columns(cols.texts, cols.types)
                if other is not None and other.pattern.id != pattern.id:
                    # the example already matches a promoted pattern: the
                    # reviewer keeps the most correct one and discards
                    # the duplicate (paper §IV)
                    return "conflict"
        return "ok"
