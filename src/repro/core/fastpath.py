"""Duplicate-aware fast lane for the scan→parse hot path.

Every message in the production workflow pays scan + parse (§IV: 70–100M
messages/day), and real log streams are massively repetitive.  This
module exploits that redundancy with three cooperating layers:

1. **Batch dedup** (:meth:`FastPath.scan_group`) — identical
   ``(service, message)`` pairs inside one batch are scanned once and
   carry a multiplicity, which the pipeline folds into match counts and
   — via weighted trie insertion — into pattern support.  The analysis
   output is *byte-identical* to the naive per-occurrence path because
   trie construction only depends on the first-occurrence order of
   distinct messages plus their counts (asserted by the equivalence
   tests, not assumed).
2. **Bounded LRU scan cache** — ``(service, message) → ScannedMessage``
   across batches.  Scanning is deterministic and the scanned object is
   treated as immutable by every consumer, so one cached object can be
   shared freely.
3. **Bounded LRU match caches, one per service** — keyed by a
   *token signature* (the tuple of ``(text, type)`` pairs), so two raw
   messages that tokenise identically — e.g. differing only in
   whitespace or in truncated multi-line remainders — share one parse
   outcome, including negative ("no pattern matches") outcomes.  A match
   cache is only valid for one generation of the service's pattern set:
   every :meth:`repro.parser.parser.Parser.add_pattern` bumps the
   parser's ``version`` and the cache self-invalidates on the next
   lookup.  :meth:`FastPath.invalidate_service` additionally drops a
   service's cache eagerly when its parser is replaced wholesale.  The
   pipeline consults this cache only for messages the scan cache served
   (recurring ones): a fresh message would pay the signature cost for a
   guaranteed miss, which is what would slow all-unique streams down.

Match outcomes are fully determined by the ``(text, type)`` sequence:
enrichment, variable acceptance and field extraction only ever read
token text and type, never positions or spacing flags.

All counters (hits / misses / evictions per cache, dedup savings) are
cumulative; the pipeline snapshots them before and after a batch and
publishes the per-batch delta as ``BatchResult.cache``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.scanner.scanner import ScannedMessage, Scanner

__all__ = [
    "LRUCache",
    "FastPath",
    "token_signature",
]

#: Sentinel distinguishing "not cached" from a cached negative outcome.
_MISS = object()


def token_signature(tokens) -> tuple:
    """Hashable signature of a token sequence for match caching.

    Two messages with equal signatures are guaranteed to produce the
    same :class:`~repro.parser.parser.MatchResult` (or the same miss):
    matching depends only on token texts and types.  Types are keyed by
    their value string — strings cache their hash, the Python-level
    ``Enum.__hash__`` does not, and this tuple is hashed on every cache
    probe.
    """
    return tuple([(t.text, t.type._value_) for t in tokens])


class LRUCache:
    """Bounded least-recently-used map with hit/miss/eviction counters.

    ``maxsize`` must be positive.  :meth:`clear` empties the entries but
    keeps the counters — invalidation is part of a cache's life, not a
    reset of its telemetry.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def get(self, key, default=None):
        """Return the cached value (marking it most recent) or *default*."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        """Insert or refresh an entry, evicting the oldest when full."""
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        if len(data) >= self.maxsize:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = value

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._data.clear()


@dataclass(slots=True)
class _ServiceMatchCache:
    """Match LRU of one service, pinned to one parser generation."""

    lru: LRUCache
    parser: object
    version: int


class FastPath:
    """Scan/match caching and batch dedup state of one pipeline instance.

    Not shared across processes: each :class:`~repro.core.pipeline.SequenceRTG`
    owns one, exactly like its parser cache.  The two cache sizes are
    entries of the cross-batch scan cache and of each service's match
    cache; both must be positive.
    """

    def __init__(
        self, scan_cache_size: int = 8192, match_cache_size: int = 8192
    ) -> None:
        if match_cache_size <= 0:
            raise ValueError(
                f"match_cache_size must be positive, got {match_cache_size}"
            )
        self._scan = LRUCache(scan_cache_size)
        self._match_size = match_cache_size
        self._match: dict[str, _ServiceMatchCache] = {}
        # counters of caches retired by invalidate_service(), so the
        # cumulative snapshot never goes backwards
        self._retired_hits = 0
        self._retired_misses = 0
        self._retired_evictions = 0
        self.dedup_unique = 0
        self.dedup_duplicates = 0

    # -- scanning --------------------------------------------------------
    def scan_group(
        self, scanner: Scanner, service: str, group
    ) -> tuple[list[ScannedMessage], list[int], list[bool]]:
        """Dedup one service group and scan each distinct message once.

        Returns the distinct scanned messages in first-occurrence order,
        their multiplicities — the exact information the weighted
        analysis path needs to reproduce the per-occurrence result — and
        a per-message flag saying whether the scan came from the cache.
        The pipeline uses the flags to consult the match cache only for
        recurring messages, keeping the fast lane free on all-unique
        streams (a cache-hit message skips the whole scanner FSM, which
        pays for the match-signature lookup many times over; a fresh
        message would pay the signature for nothing).
        """
        index: dict[str, int] = {}
        scanned: list[ScannedMessage] = []
        counts: list[int] = []
        cached: list[bool] = []
        lru = self._scan
        for record in group:
            i = index.get(record.message)
            if i is not None:
                counts[i] += 1
                continue
            message = record.message
            index[message] = len(scanned)
            key = (service, message)
            hit = lru.get(key)
            if hit is None:
                hit = scanner.scan(message, service=service)
                lru.put(key, hit)
                cached.append(False)
            else:
                cached.append(True)
            scanned.append(hit)
            counts.append(1)
        self.dedup_unique += len(scanned)
        self.dedup_duplicates += len(group) - len(scanned)
        return scanned, counts, cached

    # -- matching --------------------------------------------------------
    def match(self, service: str, parser, scanned: ScannedMessage):
        """Match through the per-service LRU, validated against the
        parser's pattern-set version."""
        entry = self._match.get(service)
        if entry is None:
            entry = _ServiceMatchCache(
                LRUCache(self._match_size), parser, parser.version
            )
            self._match[service] = entry
        elif entry.parser is not parser or entry.version != parser.version:
            # the pattern set changed (or the parser was replaced
            # wholesale): every cached outcome, positive or negative,
            # may now be wrong
            entry.lru.clear()
            entry.parser = parser
            entry.version = parser.version
        sig = token_signature(scanned.tokens)
        result = entry.lru.get(sig, _MISS)
        if result is not _MISS:
            return result
        result = parser.match(scanned)
        entry.lru.put(sig, result)
        return result

    # -- invalidation ----------------------------------------------------
    def invalidate_service(self, service: str) -> None:
        """Drop one service's match cache (its parser was replaced).

        The scan cache is untouched: scanning does not depend on the
        pattern set.
        """
        entry = self._match.pop(service, None)
        if entry is not None:
            self._retired_hits += entry.lru.hits
            self._retired_misses += entry.lru.misses
            self._retired_evictions += entry.lru.evictions

    # -- telemetry -------------------------------------------------------
    @staticmethod
    def snapshot_delta(
        before: dict[str, int], after: dict[str, int]
    ) -> dict[str, int]:
        """Per-batch counter delta between two :meth:`snapshot` calls.

        A counter present only in *after* (a key gained mid-batch, e.g.
        by a newer telemetry field) deltas against zero instead of
        raising ``KeyError``.
        """
        return {k: v - before.get(k, 0) for k, v in after.items()}

    def snapshot(self) -> dict[str, int]:
        """Cumulative counters; diff two snapshots for per-batch telemetry."""
        scan = self._scan
        match_hits = self._retired_hits
        match_misses = self._retired_misses
        match_evictions = self._retired_evictions
        for entry in self._match.values():
            match_hits += entry.lru.hits
            match_misses += entry.lru.misses
            match_evictions += entry.lru.evictions
        return {
            "scan_hits": scan.hits,
            "scan_misses": scan.misses,
            "scan_evictions": scan.evictions,
            "match_hits": match_hits,
            "match_misses": match_misses,
            "match_evictions": match_evictions,
            "dedup_unique": self.dedup_unique,
            "dedup_duplicates": self.dedup_duplicates,
        }
