"""Precomputed variable-acceptance tables shared by both parser classes.

Whether a variable of class *vc* can consume a token is a pure function
of ``(vc, token.type)`` for every class except two text-dependent cells:
``%alphanum%`` accepts a LITERAL only when it contains an alphanumeric
character, and ``%path%`` accepts a LITERAL only when it starts with
``/``.  The reference parser used to re-derive this per call through an
if/elif cascade; this module folds the whole relation into lookup
tables built once at import time, so both parsers answer acceptance
questions from the same authority:

* :data:`ACCEPT_TABLE` — ``(VarClass, TokenType) → _ACCEPT | _REJECT |
  _TEXT``, consumed through :func:`accepts` by the reference trie walk;
* :data:`TYPE_MASKS` / :func:`token_mask` — the compiled parser's
  form: one bit per :class:`VarClass` (:data:`VAR_BITS`), a
  text-independent mask per token type, and the two LITERAL text checks
  resolved once per token instead of once per trie edge.

``%ignorerest%`` accepts everything here, exactly like the cascade did;
both parsers still special-case it structurally (it consumes the
message remainder, not one token).
"""

from __future__ import annotations

from repro.analyzer.pattern import VarClass
from repro.scanner.token_types import Token, TokenType

__all__ = [
    "ACCEPT_TABLE",
    "VAR_BITS",
    "TYPE_MASKS",
    "TYPE_MASKS_BY_VALUE",
    "accepts",
    "token_mask",
]

_REJECT, _ACCEPT, _TEXT = 0, 1, 2

#: Token types each class accepts unconditionally.  ``STRING`` and
#: ``REST`` accept any token; ``ALNUM`` and ``PATH`` additionally have
#: a text-dependent LITERAL cell (the only two in the whole relation).
_UNCONDITIONAL: dict[VarClass, frozenset[TokenType]] = {
    VarClass.STRING: frozenset(TokenType),
    VarClass.ALNUM: frozenset({TokenType.INTEGER}),
    VarClass.INTEGER: frozenset({TokenType.INTEGER}),
    VarClass.FLOAT: frozenset({TokenType.FLOAT, TokenType.INTEGER}),
    VarClass.IPV4: frozenset({TokenType.IPV4}),
    VarClass.IPV6: frozenset({TokenType.IPV6}),
    VarClass.MAC: frozenset({TokenType.MAC}),
    VarClass.TIME: frozenset({TokenType.TIME}),
    VarClass.URL: frozenset({TokenType.URL}),
    VarClass.PATH: frozenset({TokenType.PATH}),
    VarClass.EMAIL: frozenset({TokenType.EMAIL}),
    VarClass.HOST: frozenset({TokenType.HOST}),
    VarClass.REST: frozenset(TokenType),
}

#: Classes whose LITERAL cell depends on the token text.
_TEXT_CELLS = frozenset({VarClass.ALNUM, VarClass.PATH})


def _build_table() -> dict[tuple[VarClass, TokenType], int]:
    table = {}
    for vc in VarClass:
        unconditional = _UNCONDITIONAL[vc]
        for tt in TokenType:
            if tt in unconditional:
                table[vc, tt] = _ACCEPT
            elif tt is TokenType.LITERAL and vc in _TEXT_CELLS:
                table[vc, tt] = _TEXT
            else:
                table[vc, tt] = _REJECT
    return table


#: Complete ``(VarClass, TokenType)`` relation; every cell present.
ACCEPT_TABLE: dict[tuple[VarClass, TokenType], int] = _build_table()


def accepts(vc: VarClass, tok: Token) -> bool:
    """Can a variable of class *vc* consume token *tok*?

    The table answers all but the two text-dependent LITERAL cells,
    which are resolved against the token text exactly as the original
    cascade did.
    """
    cell = ACCEPT_TABLE[vc, tok.type]
    if cell == _ACCEPT:
        return True
    if cell == _REJECT:
        return False
    if vc is VarClass.ALNUM:
        return any(c.isalnum() for c in tok.text)
    return tok.text.startswith("/")  # PATH × LITERAL


# ----------------------------------------------------------------------
# Bitmask form (compiled parser)
# ----------------------------------------------------------------------

#: One bit per variable class, in enum declaration order.
VAR_BITS: dict[VarClass, int] = {vc: 1 << i for i, vc in enumerate(VarClass)}

_ALNUM_BIT = VAR_BITS[VarClass.ALNUM]
_PATH_BIT = VAR_BITS[VarClass.PATH]


def _type_mask(tt: TokenType) -> int:
    mask = 0
    for vc, bit in VAR_BITS.items():
        if ACCEPT_TABLE[vc, tt] == _ACCEPT:
            mask |= bit
    return mask


#: Text-independent acceptance mask per token type: the classes whose
#: bit is set accept every token of that type.  For LITERAL tokens the
#: two text-dependent bits are added by :func:`token_mask`.
TYPE_MASKS: dict[TokenType, int] = {tt: _type_mask(tt) for tt in TokenType}

#: Same table keyed by the type's value string, for hot loops: string
#: keys hash from their cached hash, enum keys re-run the Python-level
#: ``Enum.__hash__`` on every probe.
TYPE_MASKS_BY_VALUE: dict[str, int] = {
    tt._value_: mask for tt, mask in TYPE_MASKS.items()
}

_LITERAL_BASE = TYPE_MASKS[TokenType.LITERAL]


def token_mask(tok: Token) -> int:
    """Acceptance bitmask of *tok*: the set of classes that consume it.

    Computed once per token by the compiled parser (and memoised per
    distinct literal text), instead of one :func:`accepts` call per
    variable edge per trie visit.
    """
    if tok.type is not TokenType.LITERAL:
        return TYPE_MASKS[tok.type]
    return literal_mask(tok.text)


def literal_mask(text: str) -> int:
    """Acceptance bitmask of a LITERAL token with *text*."""
    mask = _LITERAL_BASE
    if any(c.isalnum() for c in text):
        mask |= _ALNUM_BIT
    if text.startswith("/"):
        mask |= _PATH_BIT
    return mask


__all__.append("literal_mask")
