"""Pattern analysis substrate (the *Sequence* analyser).

The analyser builds a trie over scanned token sequences, merges tokens at
the same level that share the same parent and children into variables,
detects key/value pairs, e-mail addresses and host names at analysis time
(paper §III), and emits :class:`~repro.analyzer.pattern.Pattern` objects.

Two analysers are provided:

* :class:`Analyzer` — Sequence-RTG mode: operates on a single partition
  (one service, one token length) with linear-time sibling merging and
  constant folding of single-valued variables (quality-control fix for
  limitation 4).
* :class:`LegacyAnalyzer` — seminal Sequence ``Analyze``: one trie for
  the whole data set regardless of service or length, with the original
  pairwise same-level comparison whose cost grows super-linearly with
  trie width (the behaviour visible in the paper's Fig. 5).

The miner analyses with
:class:`~repro.analyzer.compiled.CompiledAnalyzer`, which runs
:class:`Analyzer`'s insertion, merge and fold rules over a flat
array-of-columns arena with batch insertion and bucketed sibling
merging; :class:`Analyzer`, the per-node object trie, is the reference
oracle the differential suite (``tests/analyzer/test_compiled.py``)
diffs it against, pattern for pattern.
"""

from repro.analyzer.analyzer import Analyzer, AnalyzerConfig, LegacyAnalyzer
from repro.analyzer.compiled import CompiledAnalyzer
from repro.analyzer.pattern import Pattern, PatternToken, UnknownTagError, VarClass

__all__ = [
    "Analyzer",
    "AnalyzerConfig",
    "LegacyAnalyzer",
    "Pattern",
    "PatternToken",
    "UnknownTagError",
    "VarClass",
    "build_analyzer",
]


def build_analyzer(config: AnalyzerConfig | None = None) -> CompiledAnalyzer:
    """Construct the analyser the miner runs."""
    return CompiledAnalyzer(config)
