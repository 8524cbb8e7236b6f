"""Pattern matching substrate (the *Sequence* parser).

"Sequence has its own parser to match new messages against existing
known patterns.  It follows a similar process as while learning the
messages, by first tokenising the messages, but instead of discovering
patterns, it attempts to match new messages to a known pattern."
(paper §III)

The miner matches with
:class:`~repro.parser.compiled.CompiledParser`, a table-driven
flattening of the parse trie; :class:`Parser`, the pointer-chasing trie
DFS it subclasses, is the reference oracle the differential suite
(``tests/parser/test_compiled.py``) diffs it against, and what the drift
probes and the benchmark's output checks construct by name.  Both answer
variable acceptance from the shared precomputed tables of
:mod:`repro.parser.acceptance`.
"""

from repro.analyzer.pattern import Pattern
from repro.parser.compiled import CompiledParser
from repro.parser.parser import MatchResult, Parser, ParserConfig

__all__ = [
    "Parser",
    "ParserConfig",
    "MatchResult",
    "build_parser",
]


def build_parser(
    patterns: list[Pattern] | None = None,
    config: ParserConfig | None = None,
    enrich: bool = True,
) -> Parser:
    """Construct the parser the miner runs (*config* has no settings)."""
    return CompiledParser(patterns, enrich=enrich)
