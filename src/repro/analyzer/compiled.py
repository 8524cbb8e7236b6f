"""The production analyser: a flat array-of-columns analysis trie.

The reference :class:`~repro.analyzer.analyzer.Analyzer` spends most of
its time allocating and walking per-node :class:`TrieNode` objects — one
slotted dataclass, one child dict and one values dict per edge, rebuilt
from scratch for every (service, token-count) partition.  This module
keeps the exact same trie *shape* but stores it structure-of-arrays
style in a node arena reused across partitions:

* nodes are integer indices into parallel columns (``_keys``,
  ``_counts``, ``_kids``, ``_values``, ``_overflow``, ``_var``,
  ``_sem``, ``_space``, ``_examples``); allocation is an append (or a
  row reuse after :meth:`_reset`), never an object construction;
* edge keys are interned through bounded memo tables
  (text → ``"L"+text``, (type, semantic) → ``"T…"`` key + var class),
  so the hot insert loop performs no string formatting;
* insertion batches the whole partition: identical raw messages are
  grouped first and inserted once with their summed weight — exact by
  the weighted-insert contract documented on
  :meth:`~repro.analyzer.trie.AnalysisTrie.insert` — which also runs
  enrichment once per distinct message;
* literal edges skip value tracking entirely: an unmerged ``L`` node's
  observed values are always exactly ``{text: count}``, so the dict is
  materialised lazily, only if the node ever takes part in a merge;
* sibling merging runs iteratively over the arena with memoised
  ``_wordlike``/``_looks_id`` classification, and Rule A similarity
  grouping unions *distinct child-key fingerprints* instead of all
  sibling pairs (similarity is a pure function of the two frozensets,
  so bucketing identical fingerprints is exact).

Every dict mutation — child creation order, merge pop/insert order, the
``V`` key appended after a literal group collapses — replays the
reference implementation's sequence, so the DFS emission walk visits
nodes in the same order and every emitted
:class:`~repro.analyzer.pattern.Pattern` is byte-identical.  The
differential property suite in ``tests/analyzer/test_compiled.py``
asserts this.
"""

from __future__ import annotations

from repro.analyzer.analyzer import (
    AnalyzerConfig,
    _NEVER_FOLD,
    _looks_id,
    _wordlike,
)
from repro.analyzer.enrich import enrich_tokens
from repro.analyzer.naming import assign_names
from repro.analyzer.pattern import Pattern, PatternToken, VarClass, var_class_for
from repro.analyzer.trie import END_KEY, VALUE_CAP
from repro.scanner.scanner import ScannedMessage
from repro.scanner.token_types import TokenType

__all__ = ["CompiledAnalyzer"]

#: Bound on the interning/classification memo tables; cleared wholesale
#: when reached (the same policy as the scanner's WordCache — production
#: vocabularies fit many times over, the cap only guards adversarial
#: streams).
_MEMO_CAP = 65536


class CompiledAnalyzer:
    """The analyser the miner runs (:func:`repro.analyzer.build_analyzer`).

    Same constructor, same ``analyze(messages, counts=None)`` contract,
    same ``last_trie_nodes`` telemetry and bit-identical patterns as the
    reference :class:`~repro.analyzer.analyzer.Analyzer`.
    """

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config or AnalyzerConfig()
        self.last_trie_nodes = 0  # memory telemetry for the benchmarks
        # the node arena: parallel columns indexed by node id (root = 0);
        # rows are reused across analyze() calls instead of reallocated
        self._keys: list[str] = []
        self._counts: list[int] = []
        self._kids: list[dict[str, int]] = []
        self._values: list[dict[str, int] | None] = []
        self._overflow: list[bool] = []
        self._var: list[VarClass | None] = []
        self._sem: list[str | None] = []
        self._space: list[bool] = []
        self._examples: list[list[str] | None] = []
        self._n = 0
        # bounded memo tables, shared across partitions and batches
        self._lit_keys: dict[str, str] = {}
        self._typed_keys: dict[tuple, tuple[str, VarClass]] = {}
        self._wordlike_memo: dict[str, bool] = {}
        self._id_memo: dict[str, bool] = {}

    # -- arena ----------------------------------------------------------
    def _alloc(self) -> int:
        """Claim one blank node row; reuse a retired row when available."""
        i = self._n
        self._n = i + 1
        if i == len(self._keys):
            self._keys.append("")
            self._counts.append(0)
            self._kids.append({})
            self._values.append(None)
            self._overflow.append(False)
            self._var.append(None)
            self._sem.append(None)
            self._space.append(True)
            self._examples.append(None)
        else:
            self._keys[i] = ""
            self._counts[i] = 0
            self._kids[i].clear()
            self._values[i] = None
            self._overflow[i] = False
            self._var[i] = None
            self._sem[i] = None
            self._space[i] = True
            self._examples[i] = None
        return i

    def _reset(self) -> None:
        self._n = 0
        root = self._alloc()
        self._keys[root] = "^"

    # -- analysis front-end ----------------------------------------------
    def analyze(
        self,
        messages: list[ScannedMessage],
        counts: list[int] | None = None,
    ) -> list[Pattern]:
        """Mine patterns from one partition of scanned messages.

        Identical contract to the reference analyser: *counts* carries
        dedup multiplicities parallel to *messages*.
        """
        if not messages:
            return []
        self._reset()
        self._insert_many(messages, counts)
        # telemetry point matches the reference: peak node count is the
        # trie *before* merging collapses siblings
        self.last_trie_nodes = self._n
        self._merge()
        patterns: list[Pattern] = []
        self._walk(0, [], [], patterns, 1.0, ())
        return patterns

    # -- batch insertion --------------------------------------------------
    def _insert_many(
        self, messages: list[ScannedMessage], counts: list[int] | None
    ) -> None:
        # group identical raw messages first: scanning and enrichment are
        # pure functions of the message text, so duplicates replay the
        # same edge walk and fold into one weighted insert (and one
        # enrichment pass) by the weighted-insert contract
        index: dict[str, int] = {}
        reps: list[ScannedMessage] = []
        weights: list[int] = []
        for i, msg in enumerate(messages):
            n = 1 if counts is None else counts[i]
            at = index.get(msg.original)
            if at is None:
                index[msg.original] = len(reps)
                reps.append(msg)
                weights.append(n)
            else:
                weights[at] += n

        enrich = self.config.enrich
        lit_keys = self._lit_keys
        typed_keys = self._typed_keys
        kcol, ccol, kidcol = self._keys, self._counts, self._kids
        vcol, ocol = self._values, self._overflow
        varcol, semcol, spcol = self._var, self._sem, self._space
        excol = self._examples
        _LIT, _KEY = TokenType.LITERAL, TokenType.KEY
        for msg, n in zip(reps, weights):
            tokens = enrich_tokens(msg.tokens) if enrich else msg.tokens
            ccol[0] += n
            node = 0
            for tok in tokens:
                ttype = tok.type
                text = tok.text
                if ttype is _LIT or ttype is _KEY:
                    key = lit_keys.get(text)
                    if key is None:
                        if len(lit_keys) >= _MEMO_CAP:
                            lit_keys.clear()
                        key = lit_keys[text] = "L" + text
                    var = None
                else:
                    sem = tok.semantic
                    entry = typed_keys.get((ttype, sem))
                    if entry is None:
                        if len(typed_keys) >= _MEMO_CAP:
                            typed_keys.clear()
                        tkey = (
                            f"T{ttype.value}:{sem}" if sem else "T" + ttype.value
                        )
                        entry = typed_keys[(ttype, sem)] = (
                            tkey,
                            var_class_for(ttype),
                        )
                    key, var = entry
                kids = kidcol[node]
                child = kids.get(key)
                if child is None:
                    child = self._alloc()
                    kcol[child] = key
                    ccol[child] = n
                    spcol[child] = tok.is_space_before
                    if var is not None:
                        varcol[child] = var
                        semcol[child] = tok.semantic
                        vcol[child] = {text: n}
                    kids[key] = child
                else:
                    ccol[child] += n
                    if var is not None and not ocol[child]:
                        vals = vcol[child]
                        c = vals.get(text)
                        if c is not None:
                            vals[text] = c + n
                        elif len(vals) >= VALUE_CAP:
                            # the reference adds the value then notices
                            # len > cap and abandons the dict; skipping
                            # the doomed insert lands in the same state
                            ocol[child] = True
                            vcol[child] = None
                        else:
                            vals[text] = n
                node = child
            kids = kidcol[node]
            end = kids.get(END_KEY)
            if end is None:
                end = self._alloc()
                kcol[end] = END_KEY
                ccol[end] = n
                excol[end] = [msg.original]
                kids[END_KEY] = end
            else:
                ccol[end] += n
                examples = excol[end]
                if msg.original not in examples and len(examples) < 3:
                    examples.append(msg.original)

    # -- classification memos ---------------------------------------------
    def _is_wordlike(self, key: str) -> bool:
        memo = self._wordlike_memo
        w = memo.get(key)
        if w is None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            w = memo[key] = _wordlike(key[1:])
        return w

    def _is_id(self, key: str) -> bool:
        memo = self._id_memo
        s = memo.get(key)
        if s is None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            s = memo[key] = _looks_id(key[1:])
        return s

    # -- sibling merging --------------------------------------------------
    def _merge(self) -> None:
        """Iterative top-down replay of the reference merge pass.

        Merges only inspect a node's children and grandchildren and only
        mutate its own child dict, and the reference recursion visits
        every node *before* its (post-merge) children — so any top-down
        traversal order over disjoint subtrees produces the same tries.
        """
        cfg = self.config
        threshold = cfg.merge_threshold
        id_merge = cfg.id_merge
        word_similarity = cfg.word_similarity
        kidcol = self._kids
        stack = [0]
        while stack:
            node = stack.pop()
            kids = kidcol[node]
            literal_keys = [
                k for k in kids if k[0] == "L" and self._is_wordlike(k)
            ]
            if len(literal_keys) >= 2:
                remaining = literal_keys
                if id_merge:
                    id_keys = [k for k in literal_keys if self._is_id(k)]
                    if len(id_keys) >= 2:
                        self._merge_group(node, id_keys)
                        dropped = set(id_keys)
                        remaining = [
                            k for k in literal_keys if k not in dropped
                        ]
                if len(remaining) > threshold:
                    for group in self._similarity_groups(
                        node, remaining, word_similarity
                    ):
                        if len(group) > threshold:
                            self._merge_group(node, group)
            stack.extend(kids.values())

    def _similarity_groups(
        self, node: int, keys: list[str], threshold: float
    ) -> list[list[str]]:
        """Rule A grouping by child-key Jaccard overlap, over fingerprints.

        Similarity depends only on the two siblings' child-key frozensets,
        so siblings with identical fingerprints are interchangeable:
        union-find runs over the distinct fingerprints (usually far fewer
        than the siblings) and the result expands back to keys in the
        reference's first-member/encounter order.
        """
        kids = self._kids[node]
        kidcol = self._kids
        fingerprints = [frozenset(kidcol[kids[k]]) for k in keys]

        if threshold > 1.0:
            # Jaccard can never reach the threshold; only the
            # unconditional both-empty rule groups anything
            grouped: dict[object, list[str]] = {}
            for i, (k, fp) in enumerate(zip(keys, fingerprints)):
                grouped.setdefault("" if not fp else i, []).append(k)
            return list(grouped.values())

        bucket_of: list[int] = []
        bucket_fp: list[frozenset] = []
        first: dict[frozenset, int] = {}
        for fp in fingerprints:
            b = first.get(fp)
            if b is None:
                b = first[fp] = len(bucket_fp)
                bucket_fp.append(fp)
            bucket_of.append(b)

        parent = list(range(len(bucket_fp)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        n_buckets = len(bucket_fp)
        for i in range(n_buckets):
            a = bucket_fp[i]
            for j in range(i + 1, n_buckets):
                b = bucket_fp[j]
                # distinct fingerprints cannot both be empty, so only
                # the Jaccard test applies across buckets
                union = len(a | b)
                if union and len(a & b) / union >= threshold:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
        groups: dict[int, list[str]] = {}
        for key, b in zip(keys, bucket_of):
            groups.setdefault(find(b), []).append(key)
        return list(groups.values())

    def _merge_group(self, node: int, keys: list[str]) -> None:
        """Collapse the literal children *keys* of *node* into one variable.

        Replays ``_merge_literal_group``: pop in key order, absorb into
        the first child, register every text, classify, then append the
        ``V`` key (or absorb into an existing one).
        """
        kids = self._kids[node]
        children = [kids.pop(k) for k in keys]
        merged = children[0]
        self._materialize(merged)
        for other in children[1:]:
            self._absorb(merged, other)
        if not self._overflow[merged]:
            vals = self._values[merged]
            if vals is None:
                vals = self._values[merged] = {}
            for k in keys:
                text = k[1:]
                if text not in vals:
                    vals[text] = 0
                    if len(vals) > VALUE_CAP:
                        self._overflow[merged] = True
                        self._values[merged] = None
                        break
        var = (
            VarClass.ALNUM
            if all(self._is_id(k) for k in keys)
            else VarClass.STRING
        )
        self._var[merged] = var
        var_key = "V" + var.value
        self._keys[merged] = var_key
        existing = kids.get(var_key)
        if existing is not None:
            self._absorb(existing, merged)
        else:
            kids[var_key] = merged

    def _materialize(self, i: int) -> None:
        """Give a lazy literal node its explicit values dict.

        An unmerged ``L`` node's observed values are provably always
        ``{text: count}`` — the insert loop skips tracking them — so the
        dict only exists once the node participates in a merge.
        """
        if self._values[i] is None and not self._overflow[i]:
            key = self._keys[i]
            if key[0] == "L":
                self._values[i] = {key[1:]: self._counts[i]}

    def _absorb(self, a: int, b: int) -> None:
        """Flat-arena replay of :meth:`TrieNode.absorb` (trie union)."""
        self._materialize(a)
        self._materialize(b)
        self._counts[a] += self._counts[b]
        if self._overflow[b]:
            self._overflow[a] = True
            self._values[a] = None
        else:
            vb = self._values[b]
            if vb and not self._overflow[a]:
                va = self._values[a]
                if va is None:
                    va = self._values[a] = {}
                for text, n in vb.items():
                    va[text] = va.get(text, 0) + n
                    if len(va) > VALUE_CAP:
                        self._overflow[a] = True
                        self._values[a] = None
                        break
        eb = self._examples[b]
        if eb:
            ea = self._examples[a]
            if ea is None:
                ea = self._examples[a] = []
            for example in eb:
                if example not in ea and len(ea) < 3:
                    ea.append(example)
        if self._sem[a] != self._sem[b]:
            self._sem[a] = None
        ka = self._kids[a]
        for key, child in self._kids[b].items():
            mine = ka.get(key)
            if mine is None:
                ka[key] = child
            else:
                self._absorb(mine, child)

    # -- emission ---------------------------------------------------------
    def _walk(
        self,
        node: int,
        tokens: list[PatternToken],
        semantics: list[str | None],
        out: list[Pattern],
        fraction: float,
        chosen: tuple[str, ...],
    ) -> None:
        counts = self._counts
        for key, child in self._kids[node].items():
            if key == END_KEY:
                pattern_tokens = [
                    PatternToken(
                        is_variable=t.is_variable,
                        text=t.text,
                        var_class=t.var_class,
                        name=t.name,
                        is_space_before=t.is_space_before,
                    )
                    for t in tokens
                ]
                assign_names(pattern_tokens, semantics)
                examples = [
                    e
                    for e in self._examples[child]
                    if all(v in e for v in chosen)
                ]
                out.append(
                    Pattern(
                        tokens=pattern_tokens,
                        support=max(1, round(counts[child] * fraction)),
                        examples=examples,
                    )
                )
                continue
            tok, semantic = self._pattern_token(key, child)
            expansion = self._semi_constant_values(tok, child)
            if expansion is None:
                tokens.append(tok)
                semantics.append(semantic)
                self._walk(child, tokens, semantics, out, fraction, chosen)
                tokens.pop()
                semantics.pop()
                continue
            # §VI future work: one pattern per value of a semi-constant
            # variable, each with the value as a constant at its position
            for value, value_count in expansion:
                tokens.append(
                    PatternToken.static(value, is_space_before=self._space[child])
                )
                semantics.append(None)
                self._walk(
                    child,
                    tokens,
                    semantics,
                    out,
                    fraction * value_count / max(1, counts[child]),
                    chosen + (value,),
                )
                tokens.pop()
                semantics.pop()

    def _semi_constant_values(
        self, tok: PatternToken, child: int
    ) -> list[tuple[str, int]] | None:
        limit = self.config.semi_constant_max_values
        if (
            limit <= 0
            or not tok.is_variable
            or tok.var_class in (VarClass.TIME, VarClass.REST)
            or self._overflow[child]
        ):
            return None
        values = self._values[child]
        if not values or not 2 <= len(values) <= limit:
            return None
        return sorted(values.items())

    def _pattern_token(
        self, key: str, child: int
    ) -> tuple[PatternToken, str | None]:
        if key[0] == "L":
            return (
                PatternToken.static(
                    key[1:], is_space_before=self._space[child]
                ),
                None,
            )
        # typed or merged-variable edge
        var = self._var[child] or VarClass.STRING
        cfg = self.config
        if (
            cfg.fold_constants
            and var not in _NEVER_FOLD
            and not self._overflow[child]
            and self._values[child] is not None
            and len(self._values[child]) == 1
            and self._counts[child] >= cfg.fold_min_support
        ):
            text = next(iter(self._values[child]))
            return (
                PatternToken.static(text, is_space_before=self._space[child]),
                None,
            )
        return (
            PatternToken.variable(var, is_space_before=self._space[child]),
            self._sem[child],
        )
