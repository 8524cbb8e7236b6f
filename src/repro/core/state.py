"""One service's live mining state.

Services never share patterns — "each instance could have its own
database" (paper §IV) — so everything a miner keeps for one service
between mining calls is one :class:`ServiceState`: the parser over its
known patterns (loaded lazily from the database), its pending partitions
of stream-mode evidence, and its drift tracks.  The database is the
ground truth they mirror: :meth:`ServiceState.drop` forgets the parser
and the tracks, and a failed mining call or flush drops every state it
touched and puts its pending partitions back as the call found them
(:meth:`repro.core.pipeline.SequenceRTG.transaction`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analyzer.pattern import Pattern, VarClass
from repro.analyzer.trie import VALUE_CAP
from repro.parser import build_parser

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.patterndb import PatternDB
    from repro.parser.parser import Parser, ParserConfig

__all__ = ["ServiceState"]

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


class ServiceState:
    """Parser, pending evidence and drift tracks of one service.

    *pending* maps token count → pending partition (distinct unmatched
    messages and their counts), filled and mined by the miner's one
    :class:`~repro.analyzer.evolving.EvolvingAnalyzer`.  *tracks* maps
    pattern id → per-variable value distributions of live matches, fed
    by the parse stage while a drift-splitting stream driver is attached.
    """

    __slots__ = ("service", "db", "parser_config", "_parser", "pending", "tracks")

    def __init__(
        self, service: str, db: "PatternDB", parser_config: "ParserConfig | None" = None
    ) -> None:
        self.service = service
        self.db = db
        self.parser_config = parser_config
        self._parser: "Parser | None" = None
        self.pending: dict = {}
        #: pattern id -> (pattern, variable name -> track)
        self.tracks: dict[str, tuple[Pattern, dict[str, _FieldTrack]]] = {}

    @property
    def parser(self) -> "Parser":
        """Parser over the service's known patterns (loaded on first use)."""
        parser = self._parser
        if parser is None:
            parser = self._parser = build_parser(
                self.db.load_service(self.service), self.parser_config
            )
        return parser

    def add(self, pattern: Pattern) -> None:
        """Extend a loaded parser by a pattern the database just took."""
        if self._parser is not None:
            self._parser.add_pattern(pattern)

    def retire(self, ids: list[str]) -> None:
        """Forget patterns the database just deleted: a loaded parser
        rebuilds only the length buckets it loses them from."""
        if self._parser is not None:
            self._parser.remove_patterns(ids)
        for pid in ids:
            self.tracks.pop(pid, None)

    def drop(self) -> None:
        """Forget the parser and the drift tracks; the next use reloads
        the parser from the database's rows."""
        self._parser = None
        self.tracks.clear()

    def observe(
        self, pattern_id: str, pattern: Pattern, fields: dict[str, str], n: int
    ) -> None:
        """Record one match's variable bindings (*n* occurrences); a track
        keeping over the analysis trie's ``VALUE_CAP`` distinct values
        overflows and only counts."""
        entry = self.tracks.get(pattern_id)
        if entry is None:
            names: dict[str, _FieldTrack] = {}
            for tok in pattern.tokens:
                if tok.is_variable and tok.name and tok.var_class not in _NEVER_SPLIT:
                    names[tok.name] = _FieldTrack()
            entry = self.tracks[pattern_id] = (pattern, names)
        for name, track in entry[1].items():
            value = fields.get(name)
            if value is None:
                continue
            track.count += n
            if track.overflow:
                continue
            track.values.add(value)
            if len(track.values) > VALUE_CAP:
                track.overflow = True
                track.values.clear()

    def split_candidates(self, min_matches: int) -> list[tuple[str, Pattern, str, str]]:
        """``(pattern id, pattern, variable name, the one value)`` of
        every variable stuck on a single value for *min_matches*+
        occurrences.  At most one candidate per pattern — a split
        produces a new pattern whose remaining variables are tracked
        afresh, so further folds happen on later flushes."""
        out: list[tuple[str, Pattern, str, str]] = []
        for pid, (pattern, tracks) in self.tracks.items():
            for name, track in tracks.items():
                if not track.overflow and track.count >= min_matches and len(track.values) == 1:
                    out.append((pid, pattern, name, next(iter(track.values))))
                    break
        return out
