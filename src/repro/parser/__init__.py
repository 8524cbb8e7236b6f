"""Pattern matching substrate (the *Sequence* parser).

"Sequence has its own parser to match new messages against existing
known patterns.  It follows a similar process as while learning the
messages, by first tokenising the messages, but instead of discovering
patterns, it attempts to match new messages to a known pattern."
(paper §III)

Two interchangeable backends implement the matcher —
:class:`Parser`, the reference pointer-chasing trie DFS, and
:class:`~repro.parser.compiled.CompiledParser`, a table-driven
flattening of the same trie with bit-identical :class:`MatchResult`
output — selected by :attr:`ParserConfig.backend` through
:func:`build_parser`.  Both answer variable acceptance from the shared
precomputed tables of :mod:`repro.parser.acceptance`.
"""

from repro.analyzer.pattern import Pattern
from repro.parser.parser import (
    PARSER_BACKENDS,
    MatchResult,
    Parser,
    ParserConfig,
)

__all__ = [
    "Parser",
    "ParserConfig",
    "MatchResult",
    "PARSER_BACKENDS",
    "build_parser",
]


def build_parser(
    patterns: list[Pattern] | None = None,
    config: ParserConfig | None = None,
    enrich: bool = True,
) -> Parser:
    """Construct the parser backend *config* selects.

    ``"reference"`` (the default) is the trie DFS — the executable
    specification; ``"compiled"`` flattens the same trie into sorted
    match programs.  Both produce identical :class:`MatchResult`\\ s;
    the compiled one trades a lazy lowering pass over the length
    buckets a mutation touched for much higher per-message match
    throughput.
    """
    config = config or ParserConfig()
    if config.backend not in PARSER_BACKENDS:
        # config validates at construction, but the field is mutable —
        # an unknown value must fail loudly here, not silently fall
        # back to the reference backend
        raise ValueError(
            f"unknown parser backend {config.backend!r}; "
            f"valid choices: {', '.join(PARSER_BACKENDS)}"
        )
    if config.backend == "compiled":
        # imported lazily so the default path never pays for a backend
        # it does not use
        from repro.parser.compiled import CompiledParser

        return CompiledParser(patterns, enrich=enrich)
    return Parser(patterns, enrich=enrich)
