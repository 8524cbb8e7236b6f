"""The production parser: table-driven match programs.

:class:`CompiledParser` is the matcher the miner runs, a subclass of
:class:`~repro.parser.parser.Parser` that flattens the pointer-chasing
trie DFS into contiguous per-pattern *match programs*, following the
table-driven search-core technique of Cookiecutter's C++ trie and the
evolving-search-tree framing of USTEP.  Construction and the
incremental ``add_patterns`` contract are inherited from the reference parser — the trie stays the source
of truth — and is lowered into:

* **match programs** — one flat step array per matchable pattern, each
  step either a literal text (compared by interned-string equality) or
  an acceptance *bitmask* from :mod:`repro.parser.acceptance`; a
  message token's acceptance set is computed once per token (and
  memoised per distinct literal text), not once per trie edge per
  visit;
* **priority keys** — ``(-static, n_variables, trie, path)`` per
  program, where *path* is its DFS path through its sub-trie (see
  :func:`_path_element`).  Path order is the reference DFS's candidate
  fold order, so full ties (same static count, same variable count)
  resolve to exactly the pattern the reference keeps — it folds
  candidates in that order and its tie-break keeps the earlier one;
* **columnar dispatch tables** — per message length, one table per
  token position mapping a literal text (dict lookup) or an acceptance
  bit (mask test) to the *bitset* of programs compatible with it.  A
  match intersects one bitset per token into a surviving set — big-int
  AND/OR, word-parallel over all candidates at once — bailing out the
  moment the set goes empty; the winner is the survivor with the lowest
  key.  Shared prefixes therefore cost one dict probe per position
  regardless of how many programs share them, the columnar analogue of
  the trie's prefix sharing;
* **a candidate frontier per message length** — the exact bucket merged
  with the applicable ignore-rest programs, with its column tables,
  built on first use.

The pattern set is maintained in O(Δ), the way USTEP keeps its search
tree current: ``add_patterns`` lowers each added pattern from the trail
of its one insert walk (no second walk from the root), inserts it into
its bucket's key-sorted program list and gives it the next bit of
every built frontier it joins — no key changes, no bit is renumbered,
only the memo entries the new bit can change are dropped.  A removal
rebuilds its buckets' sub-tries, so it re-lowers exactly those buckets
(an ignore-rest one drops every frontier).

The key construction is what makes the result bit-identical *by
construction*: the reference search is a fixed-order stack DFS over a
trie whose states are visited at most once, so the candidates it folds
for any message form a subsequence of the all-edges-accept fold order —
minimising over that order is equivalent to replaying the DFS.  The
differential property suite (``tests/parser/test_compiled.py``)
asserts the equivalence over corpora and adversarially overlapping
pattern sets rather than assuming it.

Matching runs over token *columns* — a message's texts and types as
two parallel lists — not over :class:`~repro.scanner.token_types.Token`
objects: :meth:`CompiledParser.match_columns` is what the parse stage
calls on the scan stage's
:class:`~repro.scanner.compiled.TokenColumns`, so a hit allocates no
token, and ``match`` (with or without pre-enriched tokens) feeds the
same core the columns of its tokens.

Enrichment (k=v pairs, e-mail addresses, host names) is
:func:`repro.analyzer.enrich.enrich_types`, the one column enrichment
the miner runs: the parse stage enriches a message once and matches the
enriched column with :meth:`CompiledParser.match_enriched`, and a miss
carries that column on to the analyser.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.analyzer.enrich import enrich_types
from repro.analyzer.pattern import Pattern, VarClass
from repro.parser.acceptance import TYPE_MASKS_BY_VALUE, VAR_BITS, literal_mask
from repro.parser.parser import REST_BUCKET, MatchResult, Parser
from repro.scanner.scanner import ScannedMessage
from repro.scanner.token_types import Token, TokenType

__all__ = ["CompiledParser"]

#: distinct literal texts memoised (acceptance masks) before the memo
#: is dropped wholesale, mirroring the scanner's ``WordCache`` policy
_MEMO_SIZE = 65536

_REST = VarClass.REST
_REST_TYPE = TokenType.REST
_LITERAL = TokenType.LITERAL


#: shared path elements (see :func:`_path_element`)
_PATH_ELEMENTS: dict[tuple[int, int], tuple[int, int]] = {}
#: path element of a program ending at its own exact leaf
_OWN_LEAF = (-2,)


def _path_element(kind: int, index: int) -> tuple[int, int]:
    """One level of a program's DFS path key, shared between programs:
    ``(-1, k)`` the ignore-rest edge at ``node.variables[k]``, ``(0, -k)``
    the variable child there, ``(1, -m)`` the literal child inserted
    *m*-th.  Ascending order is the reference DFS's fold order — own
    leaf, ignore-rest edges forward, variable children backward, then
    literal children newest first — and no index ever changes while the
    node lives, so an inserted pattern leaves every other key alone."""
    key = (kind, index)
    return _PATH_ELEMENTS.setdefault(key, key)


class _Program:
    """One matchable pattern lowered to a flat step array."""

    __slots__ = (
        "steps", "key", "extract", "rest_name", "pattern", "pattern_id", "static"
    )

    def __init__(
        self,
        steps: tuple,
        key: tuple,
        extract: tuple,
        rest_name: str | None,
        pattern: Pattern,
        pattern_id: str,
        static: int,
    ) -> None:
        #: per-position ops: a literal text (str) or an acceptance bit (int)
        self.steps = steps
        #: ``(-static, n_variables, trie, path)`` — min() over accepting
        #: programs reproduces the reference DFS winner exactly
        self.key = key
        #: ``(position, name)`` pairs binding variable values to fields
        self.extract = extract
        #: ignore-rest variable name, or None for exact-length programs
        self.rest_name = rest_name
        self.pattern = pattern
        #: the id the leaf's pattern was added under
        self.pattern_id = pattern_id
        self.static = static


def _program(steps, static, extract, rest_name, leaf, trie, path) -> _Program:
    # every variable edge on the path binds a field, and a collected
    # ignore-rest pattern ends at its rest variable
    n_variables = len(extract) + (rest_name is not None)
    return _Program(
        steps=tuple(steps),
        key=(-static, n_variables, trie, tuple(path)),
        extract=tuple(extract),
        rest_name=rest_name,
        pattern=leaf.pattern,
        pattern_id=leaf.pattern_id,
        static=static,
    )


def _lower(bucket_key: int, pattern: Pattern, leaf, trail) -> _Program | None:
    """The program of *pattern*, from the *trail* of edges its insert
    walk took to *leaf* (see :meth:`repro.parser.parser._Bucket.insert`)."""
    rest_trie = 1 if bucket_key == REST_BUCKET else 0
    steps: list = []
    extract: list = []
    path: list = []
    static = 0
    last = len(pattern.tokens) - 1
    for i, (tok, k) in enumerate(zip(pattern.tokens, trail)):
        if not tok.is_variable:
            steps.append(tok.text)
            static += 1
            path.append(_path_element(1, -k))
            continue
        if tok.var_class is _REST:
            if i != last:
                return None
            path.append(_path_element(-1, k))
            return _program(steps, static, extract, tok.name, leaf, rest_trie, path)
        path.append(_path_element(0, -k))
        extract.append((len(steps), tok.name))
        steps.append(VAR_BITS[tok.var_class])
    path.append(_OWN_LEAF)
    return _program(steps, static, extract, None, leaf, rest_trie, path)


def _key(program: _Program) -> tuple:
    return program.key


def _survivors(progs: list[_Program], bits: int):
    while bits:
        low = bits & -bits
        yield progs[low.bit_length() - 1]
        bits ^= low


class _Frontier:
    """The candidates of one message length and their dispatch columns.

    Bit *j* of every bitset is ``progs[j]``, the *j*-th program to join;
    a built frontier numbers its programs in key order and later ones
    append, so the winner is the minimum key among the surviving bits.
    Each column is ``[literal text -> bitset, acceptance bit -> bitset,
    unconstrained bitset, literal-token memo, typed-token memo]``.
    """

    __slots__ = ("progs", "columns", "full")

    def __init__(self, length: int) -> None:
        self.progs: list[_Program] = []
        self.columns = [[{}, {}, 0, {}, {}] for _ in range(length)]
        self.full = 0

    def join(self, prog: _Program) -> None:
        """Give *prog* the next bit, touching each column once and
        dropping only the memo entries the new bit can change."""
        bit = 1 << len(self.progs)
        self.progs.append(prog)
        self.full |= bit
        steps = prog.steps
        for i, column in enumerate(self.columns):
            if i < len(steps) and type(steps[i]) is str:
                lit = column[0]
                lit[steps[i]] = lit.get(steps[i], 0) | bit
                column[3].pop(steps[i], None)
                continue
            if i < len(steps):
                var = column[1]
                var[steps[i]] = var.get(steps[i], 0) | bit
            else:
                column[2] |= bit  # inside an ignore-rest tail
            column[3].clear()
            column[4].clear()


class CompiledParser(Parser):
    """Drop-in parser executing flattened match programs.

    Same constructor, ``add_patterns`` and ``match``/``match_many``
    contract as :class:`~repro.parser.parser.Parser`, plus
    :meth:`match_columns` and :meth:`match_enriched`; only the matching machinery differs.  Match
    results are bit-identical — same winning pattern under the full
    tie-break order, same extracted fields, same static count —
    asserted by the differential suite in
    ``tests/parser/test_compiled.py``, not assumed.
    """

    def __init__(self, patterns: list[Pattern] | None = None):
        #: bucket keys whose sub-trie was rebuilt since they were lowered
        self._dirty: set[int] = set()
        #: bucket key -> lowered programs in key order: per length, the
        #: programs ending at exactly that many tokens; under
        #: ``REST_BUCKET`` the ignore-rest programs (applicable to any
        #: length >= len(steps))
        self._programs: dict[int, list[_Program]] = {}
        #: candidate-frontier cache: message length -> its frontier
        self._frontier: dict[int, _Frontier] = {}
        #: literal text -> acceptance bitmask memo
        self._masks: dict[str, int] = {}
        #: literal text -> enrichment class memo (``match_columns``)
        self._classes: dict[str, TokenType] = {}
        super().__init__(patterns)

    # -- compilation -----------------------------------------------------
    def _pattern_added(self, bucket, pattern: Pattern, leaf, trail) -> None:
        """Lower the one added pattern from its insert walk's *trail* and
        patch it in: O(its length) per frontier it joins, plus a sorted
        insert into its bucket's program list.  Every other program
        keeps its key."""
        key = bucket.key
        if key in self._dirty:
            return  # the whole bucket is re-lowered before the next match
        prog = _lower(key, pattern, leaf, trail)
        if prog is None:
            return  # tokens after an ignore-rest variable: never matches
        progs = self._programs.setdefault(key, [])
        at = bisect_left(progs, prog.key, key=_key)
        if at < len(progs) and progs[at].key == prog.key:
            # a twin or re-add took the leaf over: the program (shared
            # with every frontier holding it) now answers for it
            progs[at].pattern = prog.pattern
            progs[at].pattern_id = prog.pattern_id
            return
        progs.insert(at, prog)
        if key != REST_BUCKET:
            frontier = self._frontier.get(key)
            if frontier is not None:
                frontier.join(prog)
            return
        for length, frontier in self._frontier.items():
            if length >= len(prog.steps):
                frontier.join(prog)

    def _relower(self) -> None:
        """Re-lower the buckets a removal rebuilt.

        A length's programs, dispatch columns and per-token memos depend
        on that length's sub-trie and on the ignore-rest programs only,
        so every other length's frontier stays warm.  An ignore-rest
        change is the all-lengths case: its programs sit in the frontier
        of every length they are short enough for.
        """
        dirty = self._dirty
        if REST_BUCKET in dirty:
            self._frontier.clear()
        for key in dirty:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._programs.pop(key, None)
            else:
                self._programs[key] = self._lower_bucket(bucket)
            self._frontier.pop(key, None)
        dirty.clear()

    def _bucket_changed(self, key: int) -> None:
        self._dirty.add(key)

    @staticmethod
    def _lower_bucket(bucket) -> list[_Program]:
        """Every program of one bucket, in key order (twins share their
        leaf's program).  Re-inserting the members in their insertion
        order walks the rebuilt sub-trie without changing it — every
        edge exists, and each leaf ends up owned by the member that
        owned it — and yields each member's trail."""
        progs = {}
        for pattern_id, pattern in bucket.members.items():
            leaf, trail = bucket.insert(pattern_id, pattern)
            prog = _lower(bucket.key, pattern, leaf, trail)
            if prog is not None:
                progs[prog.key] = prog
        return sorted(progs.values(), key=_key)

    def _frontier_for(self, length: int) -> _Frontier:
        """Candidates for a *length*-token message, built once per length.

        Merges the exact bucket with every ignore-rest program short
        enough to apply and joins them in priority-key order (see
        :class:`_Frontier`): a column's unconstrained set holds the
        ignore-rest programs whose constrained prefix already ended
        before its position.  The two memos cache fully-resolved bitsets
        per distinct token seen at the position — column resolution is a
        pure function of the token text (LITERAL) or its text and type —
        so the steady-state cost per token is one dict probe.  Literal
        edges match on *text* alone (exactly like the reference trie
        walk), which is why the typed-token memo stores only the type's
        class contribution and the literal dispatch is re-probed per
        text.
        """
        progs = list(self._programs.get(length, ()))
        progs.extend(
            p
            for p in self._programs.get(REST_BUCKET, ())
            if len(p.steps) <= length
        )
        frontier = self._frontier[length] = _Frontier(length)
        for prog in sorted(progs, key=_key):
            frontier.join(prog)
        return frontier

    # -- matching --------------------------------------------------------
    def match(
        self, scanned: ScannedMessage, tokens: list[Token] | None = None
    ) -> MatchResult | None:
        """Find the best pattern for *scanned*, or None.

        Identical contract to the reference :meth:`Parser.match`,
        including the pre-enriched *tokens* shortcut: both feed the
        tokens' columns to the one matching core.
        """
        source = scanned.tokens if tokens is None else tokens
        texts = [tok.text for tok in source]
        types = [tok.type for tok in source]
        if tokens is None:
            return self.match_columns(texts, types)
        return self.match_enriched(texts, types)

    def match_columns(
        self, texts: list[str], types: list[TokenType]
    ) -> MatchResult | None:
        """:meth:`match` for a message scanned to token columns (see
        :class:`repro.scanner.compiled.TokenColumns`): no :class:`Token`
        is built, and enrichment retypes a copy of *types*."""
        return self.match_enriched(texts, enrich_types(texts, types, self._classes))

    def match_enriched(
        self, texts: list[str], types: list[TokenType]
    ) -> MatchResult | None:
        """The matching core, over one message's columns with *types*
        already enriched (:func:`~repro.analyzer.enrich.enrich_types`)."""
        if self._unsettled:
            self._settle()
        if self._dirty:
            self._relower()
        # the scanner's REST marker only says "this message was
        # truncated": matching treats it like end-of-message, and the
        # zip with the frontier's columns below stops short of it
        length = len(types)
        if length and types[-1] is _REST_TYPE:
            length -= 1
        frontier = self._frontier.get(length)
        if frontier is None:
            frontier = self._frontier_for(length)
        progs = frontier.progs
        surviving = frontier.full
        self.last_frontier = len(progs)
        if not surviving:
            return None

        for column, text, ttype in zip(frontier.columns, texts, types):
            if ttype is _LITERAL:
                ok = column[3].get(text)
                if ok is None:
                    ok = self._resolve_column(column, text, None)
            else:
                ok = column[4].get(ttype._value_)
                if ok is None:
                    ok = self._resolve_column(column, text, ttype)
                # literal edges dispatch on text alone, whatever the
                # token type — mirror the reference trie walk
                lit = column[0]
                if lit:
                    ok |= lit.get(text, 0)
            surviving &= ok
            if not surviving:
                return None

        # the lowest priority key among the survivors is the DFS winner
        if surviving & (surviving - 1):
            best = min(_survivors(progs, surviving), key=_key)
        else:
            best = progs[surviving.bit_length() - 1]
        fields = {name: texts[i] for i, name in best.extract}
        rest_name = best.rest_name
        if rest_name is not None and length > len(best.steps):
            fields[rest_name] = " ".join(texts[len(best.steps):length])
        return MatchResult(
            pattern=best.pattern,
            fields=fields,
            static_matches=best.static,
            pattern_id=best.pattern_id,
        )

    def _resolve_column(self, column, text: str, ttype) -> int:
        """Resolve one column's candidate bitset for an unseen token.

        For LITERAL tokens (*ttype* None) the result — literal dispatch,
        ignore-rest tails, and every variable group whose class accepts
        the text — is memoised per text.  For typed tokens the memoised
        part is the type's contribution only (the caller adds the
        text-keyed literal dispatch on top), because two tokens of one
        type can carry different texts.
        """
        lit_map, var_map, free, memo_lit, memo_type = column
        if ttype is None:
            masks = self._masks
            mask = masks.get(text)
            if mask is None:
                if len(masks) >= _MEMO_SIZE:
                    masks.clear()
                mask = masks[text] = literal_mask(text)
            ok = lit_map.get(text, 0) | free
            memo, key = memo_lit, text
        else:
            key = ttype._value_
            mask = TYPE_MASKS_BY_VALUE[key]
            ok = free
            memo = memo_type
        for class_bit, members in var_map.items():
            if mask & class_bit:
                ok |= members
        if len(memo) >= _MEMO_SIZE:
            memo.clear()
        memo[key] = ok
        return ok
