"""Analysis trie.

"After tokenisation, the Sequence analyser builds a trie with the tokens.
The trie data structure allows for very fast search and retrieval.  Once
the trie is built it performs a comparison of all of the tokens
positioned at the same level that share the same parent and child nodes.
During this comparison the relevant parts are merged to produce the
patterns." (paper §III)

Node edges are keyed by a one-character-discriminated string:

* ``"L" + text`` — literal token edge;
* ``"T" + type[:semantic]`` — typed token edge (inherently a variable);
* ``"V" + class`` — merged-literal variable edge created by the analyser;
* ``"$"`` — end-of-sequence marker carrying support count and examples.

Keeping the discriminator in the key makes sibling scans cheap (a single
dict walk) and guarantees typed edges can never collide with literal
text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyzer.pattern import VarClass, var_class_for
from repro.scanner.scanner import ScannedMessage
from repro.scanner.token_types import Token, TokenType

__all__ = ["TrieNode", "AnalysisTrie", "END_KEY", "token_key"]

END_KEY = "$"

#: Cap on exact value tracking per edge; above this the edge is known to
#: be "many-valued" and constant folding is off the table anyway.
VALUE_CAP = 8


def token_key(tok: Token) -> str:
    """Edge key for a scanned token."""
    if tok.type is TokenType.LITERAL or tok.type is TokenType.KEY:
        return "L" + tok.text
    if tok.semantic:
        return f"T{tok.type.value}:{tok.semantic}"
    return "T" + tok.type.value


@dataclass(slots=True)
class TrieNode:
    """One trie node; edge metadata lives on the edge's target node."""

    children: dict[str, "TrieNode"] = field(default_factory=dict)
    count: int = 0
    #: exact observed source texts with occurrence counts, tracked up to
    #: VALUE_CAP distinct values then abandoned
    values: dict[str, int] | None = None
    overflow: bool = False
    #: variable class for typed/merged edges; None on literal edges
    var: VarClass | None = None
    semantic: str | None = None
    is_space_before: bool = True
    #: END nodes only: up to three unique example messages
    examples: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def observe(self, text: str, n: int = 1) -> None:
        """Track an observed source text (for constant folding and the
        semi-constant expansion)."""
        if self.overflow:
            return
        if self.values is None:
            self.values = {}
        self.values[text] = self.values.get(text, 0) + n
        if len(self.values) > VALUE_CAP:
            self.overflow = True
            self.values = None

    def node_count(self) -> int:
        """Total nodes in the subtree rooted here (self included)."""
        return 1 + sum(c.node_count() for c in self.children.values())

    def absorb(self, other: "TrieNode") -> None:
        """Merge *other*'s subtree into this node (trie union).

        Used when sibling edges are merged into a variable: their
        subtrees must be unified so patterns downstream of the merge
        point are shared.
        """
        self.count += other.count
        if other.overflow:
            self.overflow = True
            self.values = None
        elif other.values:
            for v, n in other.values.items():
                self.observe(v, n)
        for example in other.examples:
            if example not in self.examples and len(self.examples) < 3:
                self.examples.append(example)
        if self.semantic != other.semantic:
            self.semantic = None
        for key, child in other.children.items():
            mine = self.children.get(key)
            if mine is None:
                self.children[key] = child
            else:
                mine.absorb(child)


class AnalysisTrie:
    """Insertion front-end over :class:`TrieNode`."""

    def __init__(self) -> None:
        self.root = TrieNode()
        self.n_messages = 0

    def reset(self) -> None:
        """Discard all inserted state so the trie can be rebuilt.

        The analyser keeps one trie per instance and resets it between
        length partitions instead of allocating a fresh
        :class:`AnalysisTrie` per call; dropping the root releases the
        whole node graph in one step.
        """
        self.root = TrieNode()
        self.n_messages = 0

    def insert(self, message: ScannedMessage, tokens: list[Token], n: int = 1) -> None:
        """Insert one scanned (and enriched) message, counted *n* times.

        Weighted insertion is the scan stage's batch-dedup contract: inserting a
        message once with ``n=k`` produces the same trie — node counts,
        observed values, child order, examples — as inserting it ``k``
        times, because duplicates add no new edges and all bookkeeping is
        additive.
        """
        node = self.root
        node.count += n
        for tok in tokens:
            key = token_key(tok)
            child = node.children.get(key)
            if child is None:
                child = TrieNode(is_space_before=tok.is_space_before)
                if key[0] == "T":
                    child.var = var_class_for(tok.type)
                    child.semantic = tok.semantic
                node.children[key] = child
            child.count += n
            child.observe(tok.text, n)
            node = child
        end = node.children.get(END_KEY)
        if end is None:
            end = TrieNode()
            node.children[END_KEY] = end
        end.count += n
        if message.original not in end.examples and len(end.examples) < 3:
            end.examples.append(message.original)
        self.n_messages += n

    def node_count(self) -> int:
        return self.root.node_count()
