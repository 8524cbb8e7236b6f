"""The production parser: table-driven match programs.

:class:`CompiledParser` is the matcher the miner runs, a subclass of
:class:`~repro.parser.parser.Parser` that flattens the pointer-chasing
trie DFS into contiguous per-pattern *match programs*, following the
table-driven search-core technique of Cookiecutter's C++ trie and the
evolving-search-tree framing of USTEP.  Construction, the incremental
``add_pattern`` contract, the version counter and the ``enrich`` switch
are all inherited from the reference parser — the trie stays the source
of truth — and a lowering pass (run lazily, over the length buckets a
mutation touched and no others) turns it into:

* **match programs** — one flat step array per matchable pattern, each
  step either a literal text (compared by interned-string equality) or
  an acceptance *bitmask* from :mod:`repro.parser.acceptance`; a
  message token's acceptance set is computed once per token (and
  memoised per distinct literal text), not once per trie edge per
  visit;
* **priority keys** — ``(-static, n_variables, trie, rank)`` per
  program, where *rank* is the program's position in the reference
  DFS's candidate fold order.  Numbering programs in sorted key order
  makes the *lowest-numbered acceptor the winner*, and full ties (same
  static count, same variable count) resolve to exactly the pattern the
  reference DFS would keep, because the reference folds candidates in
  rank order and its tie-break keeps the earlier candidate;
* **columnar dispatch tables** — per message length, one table per
  token position mapping a literal text (dict lookup) or an acceptance
  bit (mask test) to the *bitset* of programs compatible with it.  A
  match intersects one bitset per token into a surviving set — big-int
  AND/OR, word-parallel over all candidates at once — bailing out the
  moment the set goes empty; the winner is the surviving set's lowest
  set bit.  Shared prefixes therefore cost one dict probe per position
  regardless of how many programs share them, the columnar analogue of
  the trie's prefix sharing;
* **a memoised candidate-frontier cache** — the per-message-length
  merge of the exact bucket with the applicable ignore-rest programs
  (and its column tables) is built once per length and dropped only
  when that length's bucket changes; a change to an ignore-rest
  pattern, which joins the frontier of every sufficiently long length,
  drops them all.

The rank construction is what makes the result bit-identical *by
construction*: the reference search is a fixed-order stack DFS over a
trie whose states are visited at most once, so the candidates it folds
for any message form a subsequence of the all-edges-accept fold order —
precomputing that order and minimising over it is equivalent to
replaying the DFS.  The differential property suite
(``tests/parser/test_compiled.py``) asserts the equivalence over
corpora and adversarially overlapping pattern sets rather than assuming
it.

Enrichment (k=v pairs, e-mail addresses, host names) is semantically
identical to :func:`repro.analyzer.enrich.enrich_tokens`; the compiled
parser memoises the two pure text classifiers (``is_email``,
``is_hostname``) per distinct literal, which removes the dominant
per-message enrichment cost for recurring vocabulary.
"""

from __future__ import annotations

from repro.analyzer.enrich import enrich_tokens, is_email, is_hostname
from repro.analyzer.pattern import Pattern, VarClass
from repro.parser.acceptance import TYPE_MASKS_BY_VALUE, VAR_BITS, literal_mask
from repro.parser.parser import REST_BUCKET, MatchResult, Parser, _Node
from repro.scanner.scanner import ScannedMessage
from repro.scanner.token_types import Token, TokenType

__all__ = ["CompiledParser"]

#: distinct literal texts memoised (masks and enrichment classes)
#: before the memo is dropped wholesale, mirroring the scanner's
#: ``WordCache`` policy
_MEMO_SIZE = 65536

_REST = VarClass.REST
_LITERAL = TokenType.LITERAL
_KEY = TokenType.KEY
_VALUE = TokenType.VALUE
_EMAIL = TokenType.EMAIL
_HOST = TokenType.HOST


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
        #: ``(-static, n_variables, trie, rank)`` — min() over accepting
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


class CompiledParser(Parser):
    """Drop-in parser executing flattened match programs.

    Same constructor, ``add_pattern``, ``match``/``match_many`` and
    ``version`` contract as :class:`~repro.parser.parser.Parser`; only
    the matching machinery differs.  Match results are bit-identical —
    same winning pattern under the full tie-break order, same extracted
    fields, same static count — asserted by the differential suite in
    ``tests/parser/test_compiled.py``, not assumed.
    """

    def __init__(self, patterns: list[Pattern] | None = None, enrich: bool = True):
        #: bucket keys whose sub-trie changed since they were lowered
        self._dirty: set[int] = set()
        #: bucket key -> lowered programs: per length, the programs
        #: ending at exactly that many tokens; under ``REST_BUCKET`` the
        #: ignore-rest programs (applicable to any length >= len(steps))
        self._programs: dict[int, list[_Program]] = {}
        #: candidate-frontier cache: message length -> (programs in
        #: priority order, per-position column tables, full bitset)
        self._frontier: dict[int, tuple[list, list, int]] = {}
        #: literal text -> acceptance bitmask memo
        self._masks: dict[str, int] = {}
        #: literal text -> enrichment token type (EMAIL/HOST/LITERAL) memo
        self._classes: dict[str, TokenType] = {}
        super().__init__(patterns, enrich=enrich)

    # -- compilation -----------------------------------------------------
    def _bucket_changed(self, key: int) -> None:
        self._dirty.add(key)

    def _relower(self) -> None:
        """Lower the dirty buckets into match programs.

        A length's programs, dispatch columns and per-token memos depend
        on that length's sub-trie and on the ignore-rest programs only,
        so every other length's frontier stays warm.  An ignore-rest
        change is the all-lengths case: its programs join the frontier
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
                self._programs[key] = self._collect(
                    bucket.root, rest_trie=key == REST_BUCKET
                )
            self._frontier.pop(key, None)
        dirty.clear()

    @staticmethod
    def _collect(root: _Node, rest_trie: bool) -> list[_Program]:
        """Programs of one sub-trie, in reference DFS fold order.

        Replays the reference ``_search`` exploration — children popped
        in reverse variable-edge order, the literal child last — and
        appends a program wherever that search would fold a candidate:
        at an exact leaf, or at an ignore-rest edge.  The append index
        becomes the program's tie-break rank.  Patterns with tokens
        *after* an ignore-rest variable are unreachable in the reference
        search and are likewise not collected here.
        """
        out: list[_Program] = []
        trie = 1 if rest_trie else 0

        def program(steps, static, extract, rest_name, leaf):
            # every variable edge on the path binds a field, and a
            # collected ignore-rest pattern ends at its rest variable
            n_variables = len(extract) + (rest_name is not None)
            return _Program(
                steps=tuple(steps),
                key=(-static, n_variables, trie, len(out)),
                extract=tuple(extract),
                rest_name=rest_name,
                pattern=leaf.pattern,
                pattern_id=leaf.pattern_id,
                static=static,
            )

        #: (node, steps, static, extract) — tuples, shared by prefix
        stack = [(root, (), 0, ())]
        while stack:
            node, steps, static, extract = stack.pop()
            if node.pattern is not None and not rest_trie:
                out.append(program(steps, static, extract, None, node))
            for vc, name, child in node.variables:
                if vc is _REST and child.pattern is not None:
                    out.append(program(steps, static, extract, name, child))
            # push order is the reverse of the reference's exploration
            # order (last pushed pops first): literal children first,
            # then variable edges forward — sibling literal order is
            # immaterial, at most one can accept any given token
            for text, child in node.literals.items():
                stack.append((child, steps + (text,), static + 1, extract))
            for vc, name, child in node.variables:
                if vc is not _REST:
                    stack.append(
                        (
                            child,
                            steps + (VAR_BITS[vc],),
                            static,
                            extract + ((len(steps), name),),
                        )
                    )
        return out

    def _frontier_for(self, length: int) -> tuple[list, list, int]:
        """Candidates for a *length*-token message, built once per length.

        Merges the exact bucket with every ignore-rest program short
        enough to apply, numbers the candidates in priority-key order,
        and builds one dispatch column per token position:

        ``(literal text -> program bitset, [(class bit, program bitset)],
        unconstrained bitset, literal-token memo, typed-token memo)``

        where the unconstrained set holds the ignore-rest programs whose
        constrained prefix already ended before this position.  The two
        memos cache fully-resolved bitsets per distinct token seen at
        the position — column resolution is a pure function of the token
        text (LITERAL) or its text and type — so the steady-state cost
        per token is one dict probe.  Literal edges match on *text*
        alone (exactly like the reference trie walk), which is why the
        typed-token memo stores only the type's class contribution and
        the literal dispatch is re-probed per text.
        """
        progs = list(self._programs.get(length, ()))
        progs.extend(
            p
            for p in self._programs.get(REST_BUCKET, ())
            if len(p.steps) <= length
        )
        progs.sort(key=lambda p: p.key)
        columns = []
        for i in range(length):
            lit_map: dict[str, int] = {}
            var_map: dict[int, int] = {}
            free = 0
            for j, prog in enumerate(progs):
                bit = 1 << j
                steps = prog.steps
                if i >= len(steps):
                    free |= bit  # inside an ignore-rest tail
                else:
                    step = steps[i]
                    if type(step) is str:
                        lit_map[step] = lit_map.get(step, 0) | bit
                    else:
                        var_map[step] = var_map.get(step, 0) | bit
            columns.append((lit_map, list(var_map.items()), free, {}, {}))
        frontier = (progs, columns, (1 << len(progs)) - 1)
        self._frontier[length] = frontier
        return frontier

    # -- matching --------------------------------------------------------
    def match(
        self, scanned: ScannedMessage, tokens: list[Token] | None = None
    ) -> MatchResult | None:
        """Find the best pattern for *scanned*, or None.

        Identical contract to the reference :meth:`Parser.match`,
        including the pre-enriched *tokens* shortcut.
        """
        if self._dirty:
            self._relower()
        if tokens is None:
            tokens = (
                self._enrich_tokens(scanned.tokens)
                if self._enrich
                else scanned.tokens
            )
        if tokens and tokens[-1].type is TokenType.REST:
            tokens = tokens[:-1]
        length = len(tokens)
        frontier = self._frontier.get(length)
        if frontier is None:
            frontier = self._frontier_for(length)
        progs, columns, surviving = frontier
        self.last_frontier = len(progs)
        if not surviving:
            return None

        for column, tok in zip(columns, tokens):
            text = tok.text
            if tok.type is _LITERAL:
                ok = column[3].get(text)
                if ok is None:
                    ok = self._resolve_column(column, text, None)
            else:
                ok = column[4].get(tok.type._value_)
                if ok is None:
                    ok = self._resolve_column(column, text, tok.type)
                # literal edges dispatch on text alone, whatever the
                # token type — mirror the reference trie walk
                lit = column[0]
                if lit:
                    ok |= lit.get(text, 0)
            surviving &= ok
            if not surviving:
                return None

        # lowest surviving bit = lowest priority key = the DFS winner
        best = progs[(surviving & -surviving).bit_length() - 1]
        fields = {name: tokens[i].text for i, name in best.extract}
        rest_name = best.rest_name
        if rest_name is not None and length > len(best.steps):
            fields[rest_name] = " ".join(
                t.text for t in tokens[len(best.steps):]
            )
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
        lit_map, var_masks, free, memo_lit, memo_type = column
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
        for class_bit, members in var_masks:
            if mask & class_bit:
                ok |= members
        if len(memo) >= _MEMO_SIZE:
            memo.clear()
        memo[key] = ok
        return ok

    # -- enrichment ------------------------------------------------------
    def _enrich_tokens(self, tokens: list[Token]) -> list[Token]:
        """Memoised :func:`~repro.analyzer.enrich.enrich_tokens`.

        Token-for-token identical to the reference function (the k=v
        retyping is positional and stays live); the two pure text
        classifiers are answered from a bounded per-text memo, because
        log vocabulary is tiny relative to log volume.
        """
        memo = self._classes
        out = list(tokens)
        n = len(out)
        for i, tok in enumerate(out):
            if tok.type is not _LITERAL:
                continue
            text = tok.text
            if (
                i + 2 < n
                and out[i + 1].text == "="
                and text
                and text[0].isalpha()
                and out[i + 2].text != "="
            ):
                out[i] = tok.with_type(_KEY)
                value = out[i + 2]
                if value.type is _LITERAL:
                    out[i + 2] = value.with_type(_VALUE, semantic=text)
                else:
                    out[i + 2] = value.with_type(value.type, semantic=text)
                continue
            cls = memo.get(text)
            if cls is None:
                if len(memo) >= _MEMO_SIZE:
                    memo.clear()
                if is_email(text):
                    cls = _EMAIL
                elif is_hostname(text):
                    cls = _HOST
                else:
                    cls = _LITERAL
                memo[text] = cls
            if cls is not _LITERAL:
                out[i] = tok.with_type(cls)
        return out


# keep the reference import path alive for introspection/tests
_reference_enrich = enrich_tokens
