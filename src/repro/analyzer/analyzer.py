"""Pattern discovery: Sequence-RTG and seminal-Sequence analysers.

Both analysers insert scanned messages into an :class:`AnalysisTrie`,
merge same-level sibling edges into variables, and emit
:class:`~repro.analyzer.pattern.Pattern` objects from root-to-END walks.
They differ exactly where the paper says the tools differ:

* :class:`Analyzer` (Sequence-RTG) is handed one partition at a time —
  one service, one token count — by ``AnalyzeByService``.  Sibling
  merging is a linear scan, and single-valued variables are folded back
  to static text (quality control for limitation 4: "Sequence tends to
  add too many variables into patterns").
* :class:`LegacyAnalyzer` (seminal ``Analyze``) receives the whole data
  set in a single trie regardless of service or message length and uses
  the original *pairwise* comparison of same-level siblings; its cost per
  node is quadratic in the number of distinct siblings, which is why its
  running time degrades super-linearly on large mixed-service data sets
  (paper Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.analyzer.enrich import enrich_tokens
from repro.analyzer.naming import assign_names
from repro.analyzer.pattern import Pattern, PatternToken, VarClass
from repro.analyzer.trie import END_KEY, AnalysisTrie, TrieNode
from repro.scanner.scanner import ScannedMessage

__all__ = ["Analyzer", "AnalyzerConfig", "LegacyAnalyzer"]

# Variable classes that are never folded back to constants: a timestamp
# that happened to repeat within one batch will still differ in the next.
_NEVER_FOLD = {VarClass.TIME, VarClass.REST, VarClass.STRING, VarClass.ALNUM}

#: Rule A — more than this many distinct word-like literal siblings at
#: one position merge into a single variable.  (Rule B, always on: two
#: or more literal siblings that all look like identifiers merge
#: regardless of this threshold.)
MERGE_THRESHOLD = 4
#: Minimum support before a single-valued variable is folded.
FOLD_MIN_SUPPORT = 3
#: Minimum child-key Jaccard similarity for two word siblings to count
#: as the same pattern position: Rule A's grouping, and the seminal
#: tool's pairwise same-level comparison.
WORD_SIMILARITY = 0.5


@dataclass(slots=True)
class AnalyzerConfig:
    """The analysis behaviours the ablations switch (defaults follow the
    paper).  Key/value, e-mail and hostname enrichment always runs."""

    #: Fold variables observed with a single value back to static text
    #: (Sequence-RTG quality control; disable to reproduce limitation 4).
    fold_constants: bool = True
    #: Future-work feature (§VI "semi-constant" values): when a variable
    #: takes at most this many distinct values, emit one pattern per
    #: value (each with the value as a constant) instead of a single
    #: variable pattern.  0 disables the expansion (published behaviour).
    semi_constant_max_values: int = 0
    #: Not a setting: the ``backend`` label on analyze-stage metrics,
    #: naming the one analyser the miner runs
    #: (:class:`repro.analyzer.compiled.CompiledAnalyzer`).
    backend: ClassVar[str] = "compiled"


def _wordlike(text: str) -> bool:
    return any(c.isalnum() for c in text)


_HEX_CHARS = set("0123456789abcdefABCDEF")


def _looks_id(text: str) -> bool:
    """Identifier-ish literal: digits mixed into a word (``blk_123``) or a
    hex string of six or more characters (``fcbcdfce`` — no digit needed:
    a hash that happens to draw only a-f letters is still an id)."""
    if not _wordlike(text):
        return False
    if any(c.isdigit() for c in text):
        return True
    return len(text) >= 6 and set(text) <= _HEX_CHARS


def _similarity_groups(node: TrieNode, keys: list[str]) -> list[list[str]]:
    """Union-find grouping of sibling keys by child-key Jaccard overlap.

    Two siblings with no children at all (both terminal positions) are
    considered similar; otherwise the overlap of their child-key sets
    must reach :data:`WORD_SIMILARITY`.
    """
    parent = list(range(len(keys)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    child_keys = [frozenset(node.children[k].children) for k in keys]
    n = len(keys)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = child_keys[i], child_keys[j]
            if not a and not b:
                similar = True
            else:
                union = len(a | b)
                similar = union > 0 and len(a & b) / union >= WORD_SIMILARITY
            if similar:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[str]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(find(i), []).append(key)
    return list(groups.values())


class _BaseAnalyzer:
    """Shared trie construction and pattern emission."""

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config or AnalyzerConfig()
        self.last_trie_nodes = 0  # memory telemetry for the benchmarks
        # one trie per analyser, reset between partitions: the engine's
        # analyze stage walks every (service, token-count) partition of a
        # batch through a single analyser instance, so reusing the
        # front-end object (and dropping the node graph in one step)
        # beats reallocating scratch state per partition
        self._trie = AnalysisTrie()

    # -- construction ---------------------------------------------------
    def _build(
        self,
        messages: list[ScannedMessage],
        counts: list[int] | None = None,
    ) -> AnalysisTrie:
        trie = self._trie
        trie.reset()
        for i, msg in enumerate(messages):
            trie.insert(
                msg, enrich_tokens(msg.tokens), n=1 if counts is None else counts[i]
            )
        return trie

    # -- merging helpers -------------------------------------------------
    def _merge_literal_group(self, node: TrieNode, keys: list[str]) -> None:
        """Merge the literal children *keys* of *node* into one variable."""
        children = [node.children.pop(k) for k in keys]
        texts = [k[1:] for k in keys]
        merged = children[0]
        for other in children[1:]:
            merged.absorb(other)
        for text in texts:
            merged.observe(text, 0)  # register the value; counts came in
            # through absorb() via the children's own observations
        merged.var = (
            VarClass.ALNUM
            if all(_looks_id(t) for t in texts)
            else VarClass.STRING
        )
        var_key = "V" + merged.var.value
        existing = node.children.get(var_key)
        if existing is not None:
            existing.absorb(merged)
        else:
            node.children[var_key] = merged

    # -- emission ---------------------------------------------------------
    def _emit(self, trie: AnalysisTrie) -> list[Pattern]:
        patterns: list[Pattern] = []
        self._walk(trie.root, [], [], patterns)
        return patterns

    def _walk(
        self,
        node: TrieNode,
        tokens: list[PatternToken],
        semantics: list[str | None],
        out: list[Pattern],
        fraction: float = 1.0,
        chosen: tuple[str, ...] = (),
    ) -> None:
        for key, child in node.children.items():
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
                    e for e in child.examples if all(v in e for v in chosen)
                ]
                pattern = Pattern(
                    tokens=pattern_tokens,
                    support=max(1, round(child.count * fraction)),
                    examples=examples,
                )
                out.append(pattern)
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
                    PatternToken.static(value, is_space_before=tok.is_space_before)
                )
                semantics.append(None)
                self._walk(
                    child,
                    tokens,
                    semantics,
                    out,
                    fraction * value_count / max(1, child.count),
                    chosen + (value,),
                )
                tokens.pop()
                semantics.pop()

    def _semi_constant_values(
        self, tok: PatternToken, child: TrieNode
    ) -> list[tuple[str, int]] | None:
        """Values of a semi-constant variable edge, or None to not expand."""
        limit = self.config.semi_constant_max_values
        if (
            limit <= 0
            or not tok.is_variable
            or tok.var_class in (VarClass.TIME, VarClass.REST)
            or child.overflow
            or not child.values
            or not 2 <= len(child.values) <= limit
        ):
            return None
        return sorted(child.values.items())

    def _pattern_token(
        self, key: str, child: TrieNode
    ) -> tuple[PatternToken, str | None]:
        if key[0] == "L":
            return (
                PatternToken.static(key[1:], is_space_before=child.is_space_before),
                None,
            )
        # typed or merged-variable edge
        var = child.var or VarClass.STRING
        if (
            self.config.fold_constants
            and var not in _NEVER_FOLD
            and not child.overflow
            and child.values is not None
            and len(child.values) == 1
            and child.count >= FOLD_MIN_SUPPORT
        ):
            text = next(iter(child.values))
            return (
                PatternToken.static(text, is_space_before=child.is_space_before),
                None,
            )
        return (
            PatternToken.variable(var, is_space_before=child.is_space_before),
            child.semantic,
        )


class Analyzer(_BaseAnalyzer):
    """Sequence-RTG analyser for one (service, token-count) partition.

    ``AnalyzeByService`` guarantees all messages handed to one call share
    a service and a token count ("Only token sets of the same length are
    compared in the same analysis trie for pattern discovery", §III), so
    sibling merging can be a single linear scan per node.
    """

    def analyze(
        self,
        messages: list[ScannedMessage],
        counts: list[int] | None = None,
    ) -> list[Pattern]:
        """Mine patterns from one partition of scanned messages.

        *counts* (parallel to *messages*) carries dedup multiplicities —
        batch dedup hands each distinct message once plus how often it
        occurred; omitted means every message counts once.
        """
        if not messages:
            return []
        trie = self._build(messages, counts)
        # memory telemetry: the peak footprint is the trie *before*
        # merging collapses siblings (what the paper's batch-size
        # discussion is about)
        self.last_trie_nodes = trie.node_count()
        self._merge(trie.root)
        return self._emit(trie)

    def _merge(self, node: TrieNode) -> None:
        """Merge same-level literal siblings that share child structure.

        Following the paper ("a comparison of all of the tokens
        positioned at the same level that share the same parent and
        child nodes"), only siblings whose subtrees look alike are
        candidates: identifier-like siblings (Rule B) need matching
        immediate children, word siblings (Rule A) need matching
        children *and* grandchildren before the distinct-value threshold
        applies.  This keeps a variable `user` column mergeable while
        two unrelated events that merely share a message length stay
        apart.
        """
        literal_keys = [
            k for k in node.children if k[0] == "L" and _wordlike(k[1:])
        ]
        if len(literal_keys) >= 2:
            remaining = self._merge_ids(node, literal_keys)
            if len(remaining) > MERGE_THRESHOLD:
                self._merge_words(node, remaining)
        for child in node.children.values():
            self._merge(child)

    def _merge_ids(self, node: TrieNode, keys: list[str]) -> list[str]:
        """Rule B: merge identifier-like siblings.

        Identifier values (digits mixed into the word: ``blk_123``,
        ``dn259/dn259``) are near-unique, so a rare value's subtree is a
        sampled subset of a frequent value's — demanding equal child
        fingerprints would strand the rare values in their own patterns.
        Two or more id-like siblings therefore always merge.
        """
        id_keys = [k for k in keys if _looks_id(k[1:])]
        if len(id_keys) < 2:
            return keys
        self._merge_literal_group(node, id_keys)
        return [k for k in keys if k not in set(id_keys)]

    def _merge_words(self, node: TrieNode, keys: list[str]) -> None:
        """Rule A: merge word siblings with *similar* child structure when
        more than :data:`MERGE_THRESHOLD` distinct values share it.

        This is the paper's "comparison of all of the tokens positioned
        at the same level that share the same parent and child nodes":
        similarity is the Jaccard overlap of immediate child keys —
        exact equality would strand values whenever the next position is
        itself variable (each value only ever sampled a subset of the
        neighbour's values).  The pairwise comparison is quadratic in the
        sibling count, which stays small because ``AnalyzeByService``
        hands the analyser one (service, token-count) partition at a
        time; the legacy analyser pays this cost on the full mixed trie.
        """
        for group in _similarity_groups(node, keys):
            if len(group) > MERGE_THRESHOLD:
                self._merge_literal_group(node, group)


class LegacyAnalyzer(_BaseAnalyzer):
    """Seminal Sequence ``Analyze``: one trie, pairwise sibling comparison.

    Reproduces the original tool's behaviour and cost model for the
    Fig. 5 comparison: every message of every service goes into a single
    trie, and the merge pass compares each pair of same-level literal
    siblings by the similarity of their child keys.  No constant folding
    is performed (limitation 4) and callers render its patterns with
    ``exact_spacing=False`` (limitation 3).
    """

    def __init__(self) -> None:
        super().__init__(AnalyzerConfig(fold_constants=False))

    def analyze(self, messages: list[ScannedMessage]) -> list[Pattern]:
        if not messages:
            return []
        trie = self._build(messages)
        self.last_trie_nodes = trie.node_count()
        self._merge_pairwise(trie.root)
        return self._emit(trie)

    def _merge_pairwise(self, node: TrieNode) -> None:
        literal_keys = [
            k for k in node.children if k[0] == "L" and _wordlike(k[1:])
        ]
        if len(literal_keys) >= 2:
            for group in _similarity_groups(node, literal_keys):
                if len(group) >= 2:
                    self._merge_literal_group(node, group)
        for child in node.children.values():
            self._merge_pairwise(child)
