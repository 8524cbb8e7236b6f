"""Parse-trie matcher.

Patterns are loaded into tries mirroring the analysis trie: literal
edges keyed by text, variable edges keyed by variable class, and an END
edge holding the pattern.  Matching a scanned message is a depth-first
walk that prefers literal edges, with memoisation on (token index, node)
so messages matching many overlapping patterns stay linear in practice.
When several patterns accept the message the one matching the most
static tokens wins (ties broken by fewer variables), which keeps weakly
patternised, high-complexity patterns from shadowing precise ones.

Hot-path pruning: every non-REST pattern token consumes exactly one
message token, so a pattern without an ignore-rest variable can only
match messages of exactly its own token count.  The root is therefore
indexed by token count — one sub-trie per pattern length, plus one
shared sub-trie for ignore-rest patterns (which accept any sufficiently
long message) — and a match starts its DFS from the small candidate
frontier of the message's length bucket instead of the full pattern
set.  Within a bucket the ``literals`` dict at each node is the
first-literal index: the first token narrows the frontier in O(1).

The sub-tries share no node, so the pattern set is maintained one
*bucket* at a time: an added pattern is walked into its own bucket
(once, and only when the tries are next read) and
:meth:`Parser.remove_patterns` rebuilds only the buckets it removes
from — adding or retiring a pattern costs its own length bucket, never
the stored set.

:class:`repro.parser.compiled.CompiledParser`, the table-driven subclass
the miner runs (:func:`repro.parser.build_parser`), inherits this
maintenance contract and produces identical :class:`MatchResult`\\ s by
construction; this class is the oracle it is diffed against.  Variable
acceptance is answered by the precomputed tables of
:mod:`repro.parser.acceptance`, shared by both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.analyzer.enrich import enrich_tokens
from repro.analyzer.pattern import Pattern, VarClass
from repro.parser.acceptance import accepts as _accepts
from repro.scanner.scanner import ScannedMessage
from repro.scanner.token_types import Token, TokenType

__all__ = [
    "Parser",
    "ParserConfig",
    "MatchResult",
    "REST_BUCKET",
]

#: Bucket key of the shared ignore-rest sub-trie; exact-length sub-tries
#: are keyed by their token count.
REST_BUCKET = -1


@dataclass(slots=True)
class ParserConfig:
    """Parser configuration: no settings today.

    Kept as the ``parser`` part of :class:`repro.core.config.RTGConfig`
    and the *config* argument of :func:`repro.parser.build_parser`.
    """

    #: Not a setting: the ``backend`` label on parse-stage metrics, naming
    #: the one matcher the miner runs
    #: (:class:`repro.parser.compiled.CompiledParser`).
    backend: ClassVar[str] = "compiled"


@dataclass(slots=True)
class MatchResult:
    """Outcome of matching one message against the pattern set."""

    pattern: Pattern
    #: extracted variable values, keyed by the variable's semantic name
    fields: dict[str, str]
    #: number of static (literal) pattern tokens the message matched
    static_matches: int
    #: the id *pattern* was added under — ``pattern.id``, computed once
    #: when it was added (:meth:`Parser.add_patterns`), so callers keying statistics
    #: by id need not re-render and re-hash the pattern per hit
    pattern_id: str


class _Node:
    __slots__ = ("literals", "variables", "pattern", "pattern_id", "order")

    def __init__(self, order: int = 0) -> None:
        self.literals: dict[str, _Node] = {}
        self.variables: list[tuple[VarClass, str, _Node]] = []  # (class, name, node)
        self.pattern: Pattern | None = None
        #: the id ``pattern`` was added under (leaves only)
        self.pattern_id = ""
        #: insertion index among the parent's literal children — fixed
        #: for the node's life, so it can key a stable DFS order
        self.order = order


class _Bucket:
    """One independent sub-trie and the patterns it was built from."""

    __slots__ = ("key", "root", "members", "n_leaves")

    def __init__(self, key: int) -> None:
        #: token count of the patterns held, or :data:`REST_BUCKET`
        self.key = key
        self.root = _Node()
        #: pattern id -> pattern in first-insertion order — what
        #: :meth:`Parser.remove_patterns` rebuilds ``root`` from
        self.members: dict[str, Pattern] = {}
        #: leaves holding a pattern (ids that differ only in spacing
        #: share one leaf, so this can be less than ``len(members)``)
        self.n_leaves = 0

    def insert(self, pattern_id: str, pattern: Pattern) -> tuple[_Node, list[int]]:
        """Walk *pattern* into the sub-trie and claim its leaf.

        Returns the leaf and the walk's *trail*: per pattern token, the
        edge taken — a literal child's ``order``, or the index of the
        variable edge in ``node.variables`` — which is all a subclass
        needs to lower the pattern without walking it again.
        """
        node = self.root
        trail: list[int] = []
        for tok in pattern.tokens:
            if not tok.is_variable:
                literals = node.literals
                child = literals.get(tok.text)
                if child is None:
                    child = literals[tok.text] = _Node(len(literals))
                node = child
                trail.append(child.order)
            else:
                variables = node.variables
                for k, (vc, name, child) in enumerate(variables):
                    if vc is tok.var_class and name == tok.name:
                        break
                else:
                    k, child = len(variables), _Node()
                    variables.append((tok.var_class, tok.name, child))
                node = child
                trail.append(k)
        if node.pattern is None:
            self.n_leaves += 1
        node.pattern = pattern
        node.pattern_id = pattern_id
        return node, trail


def _bucket_key(pattern: Pattern) -> int:
    """The bucket *pattern* lives in: its token count, or
    :data:`REST_BUCKET` when it carries an ignore-rest variable."""
    for tok in pattern.tokens:
        if tok.is_variable and tok.var_class is VarClass.REST:
            return REST_BUCKET
    return len(pattern.tokens)


@dataclass(slots=True)
class _Candidate:
    pattern: Pattern
    pattern_id: str
    fields: dict[str, str]
    static_matches: int
    n_variables: int = field(default=0)


class Parser:
    """Match scanned messages against a set of known patterns."""

    def __init__(self, patterns: list[Pattern] | None = None):
        #: one sub-trie per exact pattern token count, plus the shared
        #: ignore-rest sub-trie under :data:`REST_BUCKET`; a bucket
        #: exists only while it has members
        self._buckets: dict[int, _Bucket] = {}
        #: pattern id -> the bucket holding it, the membership record
        self._where: dict[str, _Bucket] = {}
        #: candidate-frontier size of the last :meth:`match` call (trie
        #: states visited here; candidate programs considered in the
        #: compiled subclass) — the ``rtg_parse_candidates`` telemetry
        self.last_frontier = 0
        #: frontier sizes of the matches of the last :meth:`match_many`
        #: call, one per message
        self.last_frontiers: list[int] = []
        #: ``(bucket, id, pattern)`` added but not yet walked into the
        #: bucket's sub-trie (see :meth:`_settle`)
        self._unsettled: list[tuple[_Bucket, str, Pattern]] = []
        self.add_patterns((p.id, p) for p in patterns or ())

    def __len__(self) -> int:
        if self._unsettled:
            self._settle()
        return sum(bucket.n_leaves for bucket in self._buckets.values())

    def get(self, pattern_id: str) -> Pattern | None:
        """The live pattern added under *pattern_id*, or None."""
        bucket = self._where.get(pattern_id)
        return None if bucket is None else bucket.members[pattern_id]

    # ------------------------------------------------------------------
    def add_pattern(self, pattern: Pattern) -> None:
        """Insert one pattern into its parse trie (idempotent per text)."""
        self.add_patterns([(pattern.id, pattern)])

    def add_patterns(self, patterns) -> None:
        """Add ``(pattern id, pattern)`` pairs, in order; the ids are the
        callers' (the database computed them already).

        Membership is recorded at once; the walk into each bucket's
        sub-trie waits for the next call that reads the tries
        (:meth:`_settle`), so a parser that never matches again — a
        miner's last batch — never walks them.
        """
        buckets = self._buckets
        where = self._where
        unsettled = self._unsettled
        for pattern_id, pattern in patterns:
            key = _bucket_key(pattern)
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = _Bucket(key)
            bucket.members[pattern_id] = pattern
            where[pattern_id] = bucket
            unsettled.append((bucket, pattern_id, pattern))

    def _settle(self) -> None:
        """Walk every added pattern into its sub-trie, in the order they
        were added, each walk once (:meth:`_Bucket.insert`)."""
        unsettled = self._unsettled
        self._unsettled = []
        for bucket, pattern_id, pattern in unsettled:
            leaf, trail = bucket.insert(pattern_id, pattern)
            self._pattern_added(bucket, pattern, leaf, trail)

    def remove_patterns(self, ids) -> int:
        """Remove patterns by id; returns how many were present.

        Only the buckets removed from are rebuilt, each from its own
        surviving members in insertion order.  Sub-tries share no node
        and a pattern never changes bucket, so the result — edge order,
        leaf owners, and with them the DFS tie-break rank — is exactly
        what re-inserting every survivor of every bucket would build.
        """
        if self._unsettled:
            self._settle()
        touched: dict[int, _Bucket] = {}
        removed = 0
        for pattern_id in ids:
            bucket = self._where.pop(pattern_id, None)
            if bucket is not None:
                del bucket.members[pattern_id]
                touched[bucket.key] = bucket
                removed += 1
        if not removed:
            return 0
        for key, bucket in touched.items():
            if bucket.members:
                bucket.root = _Node()
                bucket.n_leaves = 0
                for pattern_id, pattern in bucket.members.items():
                    bucket.insert(pattern_id, pattern)
            else:
                del self._buckets[key]
            self._bucket_changed(key)
        return removed

    def _bucket_changed(self, key: int) -> None:
        """Hook: bucket *key* lost patterns and was rebuilt."""

    def _pattern_added(
        self, bucket: _Bucket, pattern: Pattern, leaf: _Node, trail: list[int]
    ) -> None:
        """Hook: *pattern* was walked into *bucket* along *trail* to
        *leaf* (a new leaf, or a twin or re-add taking over an existing
        one)."""

    # ------------------------------------------------------------------
    def match(
        self, scanned: ScannedMessage, tokens: list[Token] | None = None
    ) -> MatchResult | None:
        """Find the best pattern for *scanned*, or None.

        Pass pre-enriched *tokens* to skip the enrichment pass (stream
        drift maintenance does when it already enriched the same scan).
        """
        if self._unsettled:
            self._settle()
        if tokens is None:
            # no defensive copy: matching never mutates the token list
            tokens = enrich_tokens(scanned.tokens)
        # the scanner's REST marker only says "this message was truncated";
        # matching treats it like end-of-message
        if tokens and tokens[-1].type is TokenType.REST:
            tokens = tokens[:-1]
        best: _Candidate | None = None
        self.last_frontier = 0
        # exact bucket first: on full ties the earlier fold wins
        for key in (len(tokens), REST_BUCKET):
            bucket = self._buckets.get(key)
            if bucket is not None:
                best = self._search(bucket.root, tokens, best)
        if best is None:
            return None
        return MatchResult(
            pattern=best.pattern,
            fields=best.fields,
            static_matches=best.static_matches,
            pattern_id=best.pattern_id,
        )

    def match_many(
        self, scanned: list[ScannedMessage]
    ) -> list["MatchResult | None"]:
        """Match a batch, one message at a time.

        Results are positionally parallel to *scanned*, and
        ``last_frontiers`` holds each match's frontier size.  Nothing is
        shared between messages: the scan stage's batch dedup hands the
        parse stage distinct raw messages, and two of those tokenising
        alike is too rare to pay a signature per message for.
        """
        results: list[MatchResult | None] = []
        frontiers: list[int] = []
        for msg in scanned:
            results.append(self.match(msg))
            frontiers.append(self.last_frontier)
        self.last_frontiers = frontiers
        return results

    def _search(
        self, root: _Node, tokens: list[Token], best: _Candidate | None
    ) -> _Candidate | None:
        """DFS one sub-trie, folding candidates into *best*."""
        seen: set[tuple[int, int]] = set()
        stack: list[tuple[int, _Node, int, tuple]] = [(0, root, 0, ())]
        while stack:
            idx, node, static, bindings = stack.pop()
            key = (idx, id(node))
            if key in seen:
                continue
            seen.add(key)
            if idx == len(tokens):
                if node.pattern is not None:
                    best = self._better(best, node, dict(bindings), static)
                # an ignore-rest variable can also close the pattern here
                for vc, name, child in node.variables:
                    if vc is VarClass.REST and child.pattern is not None:
                        best = self._better(
                            best, child, dict(bindings), static
                        )
                continue
            tok = tokens[idx]
            lit = node.literals.get(tok.text)
            if lit is not None:
                stack.append((idx + 1, lit, static + 1, bindings))
            for vc, name, child in node.variables:
                if vc is VarClass.REST:
                    # consume everything that remains
                    if child.pattern is not None:
                        rest = " ".join(t.text for t in tokens[idx:])
                        best = self._better(
                            best,
                            child,
                            dict(bindings + ((name, rest),)),
                            static,
                        )
                    continue
                if _accepts(vc, tok):
                    stack.append(
                        (idx + 1, child, static, bindings + ((name, tok.text),))
                    )
        self.last_frontier += len(seen)
        return best

    @staticmethod
    def _better(
        current: _Candidate | None,
        leaf: _Node,
        fields: dict[str, str],
        static: int,
    ) -> _Candidate:
        candidate = _Candidate(
            pattern=leaf.pattern,
            pattern_id=leaf.pattern_id,
            fields=fields,
            static_matches=static,
            n_variables=leaf.pattern.n_variables,
        )
        if current is None:
            return candidate
        if candidate.static_matches != current.static_matches:
            return max(current, candidate, key=lambda c: c.static_matches)
        if candidate.n_variables != current.n_variables:
            return min(current, candidate, key=lambda c: c.n_variables)
        return current
