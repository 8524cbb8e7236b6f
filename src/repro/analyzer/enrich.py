"""Analysis-time token enrichment.

"Some other special types are also detected during the analysis phase,
i.e. key/value pairs, email addresses, and host names" (paper §III).
The scanner deliberately leaves these as literals — detecting them needs
more context than a single-pass character FSM has — and the analyser
re-types them here before trie insertion.

The miner enriches on token *columns*: :func:`enrich_types` retypes a
message's types column, once per distinct message, for both the parser
and the analyser, with a per-service memo of the text classifiers.  :func:`enrich_tokens` is the same rule over
:class:`~repro.scanner.token_types.Token` objects, kept for the
reference classes and the ``scan``/``analyze`` contracts.
"""

from __future__ import annotations

from repro.scanner.token_types import Token, TokenType

__all__ = ["enrich_tokens", "enrich_types", "is_email", "is_hostname"]

# Common top-level domains accepted for two-label host names; longer
# dotted names qualify regardless of their last label.
_TLDS = {
    "com", "net", "org", "edu", "gov", "mil", "int", "io", "co",
    "fr", "de", "uk", "us", "cn", "jp", "ru", "nl", "it", "es",
    "local", "internal", "lan", "corp", "cloud", "dev",
}

_LABEL_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_")


def is_email(text: str) -> bool:
    """True for ``local@domain.tld``-shaped tokens."""
    if text.count("@") != 1:
        return False
    local, domain = text.split("@")
    if not local or any(c.isspace() for c in local):
        return False
    return is_hostname(domain, require_known_tld=False) and "." in domain


def is_hostname(text: str, require_known_tld: bool = True) -> bool:
    """True for dotted host names like ``node17.cluster.example.com``.

    To avoid claiming decimal numbers, file names or Java class paths the
    check requires: at least two labels, every label non-empty and made of
    hostname characters, at least one letter overall, an alphabetic last
    label, and — for two-label names — a recognised TLD (``require_known_tld``)
    so ``archive.tar`` stays a literal.
    """
    if "." not in text or ".." in text or text.startswith(".") or text.endswith("."):
        return False
    labels = text.split(".")
    if len(labels) < 2:
        return False
    if not all(label and set(label) <= _LABEL_CHARS for label in labels):
        return False
    if not any(c.isalpha() for c in text):
        return False
    last = labels[-1]
    if not last.isalpha():
        return False
    if len(labels) == 2 or require_known_tld:
        if len(labels) == 2 and last.lower() not in _TLDS:
            return False
    return True


def enrich_tokens(tokens: list[Token]) -> list[Token]:
    """Return a re-typed copy of *tokens* with analysis-time detections.

    * ``k = v`` triples (the scanner splits ``=`` into its own token):
      the key literal becomes :data:`TokenType.KEY` and the value token
      gains the key name as its semantic tag; literal values become
      :data:`TokenType.VALUE` (a variable), typed values keep their type.
    * Literal tokens shaped like e-mail addresses become ``EMAIL``.
    * Literal tokens shaped like host names become ``HOST``.
    """
    out = list(tokens)
    n = len(out)
    for i, tok in enumerate(out):
        if tok.type is not TokenType.LITERAL:
            continue
        text = tok.text
        # key of a k=v pair: LITERAL '=' X
        if (
            i + 2 < n
            and out[i + 1].text == "="
            and text
            and text[0].isalpha()
            and out[i + 2].text != "="
        ):
            key = text
            out[i] = tok.with_type(TokenType.KEY)
            value = out[i + 2]
            if value.type is TokenType.LITERAL:
                out[i + 2] = value.with_type(TokenType.VALUE, semantic=key)
            else:
                out[i + 2] = value.with_type(value.type, semantic=key)
            continue
        if is_email(text):
            out[i] = tok.with_type(TokenType.EMAIL)
        elif is_hostname(text):
            out[i] = tok.with_type(TokenType.HOST)
    return out


#: distinct literal texts whose EMAIL/HOST/LITERAL class an
#: :func:`enrich_types` memo holds before it is dropped wholesale (the
#: scanner's ``WordCache`` policy)
_MEMO_SIZE = 65536

_LITERAL = TokenType.LITERAL
_KEY = TokenType.KEY
_VALUE = TokenType.VALUE
_EMAIL = TokenType.EMAIL
_HOST = TokenType.HOST


def enrich_types(
    texts: list[str], types: list[TokenType], memo: dict[str, TokenType]
) -> list[TokenType]:
    """:func:`enrich_tokens` on one message's columns: a retyped copy of
    *types*, type for type what :func:`enrich_tokens` assigns.

    *memo* is the caller's text -> EMAIL/HOST/LITERAL memo: the two
    classifiers are pure functions of the text, and log vocabulary is
    tiny next to log volume.  A column has no semantic tag: the k=v
    value at position *i* carries the key text ``texts[i - 2]``, which
    is exactly when position ``i - 2`` is typed ``KEY`` here (the
    scanner never emits ``KEY``).
    """
    out = list(types)
    n = len(out)
    pairs = "=" in texts
    for i, text in enumerate(texts):
        if out[i] is not _LITERAL:
            continue
        if (
            pairs
            and i + 2 < n
            and texts[i + 1] == "="
            and text
            and text[0].isalpha()
            and texts[i + 2] != "="
        ):
            out[i] = _KEY
            if out[i + 2] is _LITERAL:
                out[i + 2] = _VALUE
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
            out[i] = cls
    return out
