"""One service's live mining state.

Services never share patterns — "each instance could have its own
database" (paper §IV) — so everything a miner keeps for one service
between mining calls is one :class:`ServiceState`: the parser over its
known patterns (loaded lazily from the database), its pending evidence
and its drift tracks.  The database is the ground truth they mirror:
:meth:`ServiceState.drop` forgets the parser and the tracks, and a
failed mining call or flush drops every state it touched and puts its
pending partitions back as the call found them
(:meth:`repro.core.pipeline.SequenceRTG.transaction`).

The pending evidence is stream mode's evolving analysis state.  Batch
mode builds one analysis trie per (service, token count) partition,
mines it and throws it away; stream mode has to accumulate evidence
*across* micro-batches before it is worth emitting a pattern (USTEP's
evolving search tree, arXiv:2304.12331).  A state keeps one *pending
partition* per token count: the distinct unmatched messages in
first-occurrence order — their token texts, enriched types and spacing
as flat columns, never :class:`~repro.scanner.token_types.Token`
objects — with their accumulated multiplicities: exactly
the weighted form the analysis trie's insertion contract is defined over
("inserting a message once with ``n=k`` produces the same trie as
inserting it ``k`` times", :meth:`repro.analyzer.trie.AnalysisTrie.insert`).
:meth:`ServiceState.absorb` is the per-message incremental step, an O(1)
dedup-and-count update, and :meth:`ServiceState.mine` replays the
partitions through the miner's one analyser.  Absorption is associative
(the partitions after any sequence of ``absorb`` calls equal what one
big batch would have produced), so batch mode is the special case
"absorb, then mine at once" and mines byte-identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analyzer.enrich import enrich_types
from repro.analyzer.pattern import Pattern, VarClass
from repro.analyzer.trie import VALUE_CAP
from repro.parser import build_parser

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyzer.compiled import CompiledAnalyzer
    from repro.core.patterndb import PatternDB
    from repro.parser.parser import Parser, ParserConfig
    from repro.scanner.compiled import TokenColumns

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


class _PendingPartition:
    """Distinct messages of one token count as flat columns, with counts.

    Message *j*'s tokens are the ``length``-wide slice at ``j * length``
    of ``texts``, ``types`` (enriched) and ``spaces``.
    """

    __slots__ = ("length", "index", "originals", "texts", "types", "spaces", "counts")

    def __init__(self, length: int) -> None:
        self.length = length
        #: message original -> position in ``originals``
        self.index: dict[str, int] = {}
        #: distinct messages in first-occurrence order
        self.originals: list[str] = []
        self.texts: list[str] = []
        self.types: list = []
        self.spaces: list[bool] = []
        #: accumulated multiplicities, parallel to ``originals``
        self.counts: list[int] = []

    def truncate(self, size: int) -> None:
        """Forget every message after the first *size*."""
        for original in self.originals[size:]:
            del self.index[original]
        del self.originals[size:]
        cut = size * self.length
        del self.texts[cut:]
        del self.types[cut:]
        del self.spaces[cut:]


class ServiceState:
    """Parser, pending evidence and drift tracks of one service.

    *pending* maps token count → pending partition (distinct unmatched
    messages as token columns, and their counts), filled by
    :meth:`absorb` and emptied by :meth:`mine`; *n_pending* counts their
    distinct messages.  *tracks*
    maps pattern id → per-variable value distributions of live matches,
    fed by the parse stage while a drift-splitting stream driver is
    attached.
    """

    __slots__ = (
        "service", "db", "parser_config", "_parser", "_classes", "pending", "n_pending",
        "tracks",
    )

    def __init__(
        self, service: str, db: "PatternDB", parser_config: "ParserConfig | None" = None
    ) -> None:
        self.service = service
        self.db = db
        self.parser_config = parser_config
        self._parser: "Parser | None" = None
        #: literal text -> enrichment class memo (see :meth:`enrich`)
        self._classes: dict = {}
        self.pending: dict[int, _PendingPartition] = {}
        self.n_pending = 0
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

    def enrich(self, texts: list[str], types: list) -> list:
        """One message's enriched types
        (:func:`~repro.analyzer.enrich.enrich_types`), with the service's
        memo of the text classifiers: the parse stage enriches to match,
        :meth:`absorb` a miss the parse stage did not enrich."""
        return enrich_types(texts, types, self._classes)

    # -- pending evidence ------------------------------------------------
    def absorb(
        self,
        length: int,
        cols: "TokenColumns",
        rows: list[int],
        counts: list[int],
        types: list,
    ) -> None:
        """Fold messages *rows* of *cols* — each *length* tokens long —
        into the pending partition of *length*.

        *counts* carries dedup multiplicities parallel to *rows*, and
        *types* each message's enriched types, or None where it has not
        been enriched yet.  Duplicates of an already-pending message
        only bump its count — the per-message incremental insert the
        weighted trie contract makes exact — so a message is copied and
        enriched once.
        """
        partition = self.pending.get(length)
        if partition is None:
            partition = self.pending[length] = _PendingPartition(length)
        index = partition.index
        originals, ends = cols.originals, cols.ends
        for k, n, enriched in zip(rows, counts, types):
            original = originals[k]
            at = index.get(original)
            if at is not None:
                partition.counts[at] += n
                continue
            index[original] = len(partition.originals)
            partition.originals.append(original)
            partition.counts.append(n)
            hi = ends[k]
            lo = hi - length
            texts = cols.texts[lo:hi]
            partition.texts += texts
            partition.types += (
                self.enrich(texts, cols.types[lo:hi]) if enriched is None else enriched
            )
            partition.spaces += cols.spaces[lo:hi]
            self.n_pending += 1

    def checkpoint(self) -> list[tuple]:
        """What :meth:`restore` needs to put the pending partitions back
        as they are now.  Partitions only grow until :meth:`mine` pops
        them, so their sizes and a copy of their counts suffice."""
        return [
            (length, partition, len(partition.originals), list(partition.counts))
            for length, partition in self.pending.items()
        ]

    def restore(self, checkpoint: list[tuple]) -> None:
        """Undo every absorb and mine since *checkpoint*."""
        pending = self.pending
        pending.clear()
        self.n_pending = 0
        for length, partition, size, counts in checkpoint:
            partition.truncate(size)
            partition.counts = counts
            pending[length] = partition
            self.n_pending += size

    def mine(self, analyzer: "CompiledAnalyzer"):
        """Mine and clear the pending partitions in token-count order.

        Yields ``(patterns, trie_nodes)`` per partition — the order the
        batch stage walks, so the output (and its telemetry) is ordered
        identically to a batch that had accumulated the same messages.
        The patterns do not carry a service; the caller stamps them.
        """
        pending = self.pending
        for length in sorted(pending):
            partition = pending.pop(length)
            n = len(partition.originals)
            self.n_pending -= n
            patterns = analyzer.analyze_columns(
                partition.texts,
                partition.types,
                partition.spaces,
                [length * j for j in range(1, n + 1)],
                partition.originals,
                partition.counts,
            )
            yield patterns, analyzer.last_trie_nodes

    # -- drift tracks ----------------------------------------------------
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
