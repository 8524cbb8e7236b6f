"""Fig. 5 — ``Analyze`` vs ``AnalyzeByService``: the memory half.

The paper runs both methods on multi-service data sets of increasing
size (0.5M-13.25M lines, ~241 unique services on average, empty pattern
database so every record reaches the analyser) and shows the seminal
``Analyze`` degrading super-linearly past ~3M lines while
``AnalyzeByService`` stays near-linear until much larger sizes.

The mechanism is memory: the legacy method mines every service and
message length in one trie, ``AnalyzeByService`` one trie per (service,
length) partition.  Asserted here, per size: the legacy single trie is
far larger than the largest per-partition trie.  The time curves are
the ``fig5_shape`` gate of ``benchmarks/gates.py``, which asserts that
``AnalyzeByService`` is faster from 12,000 lines on, at least 1.5× at
the largest size, and that the legacy cost per line grows faster.
"""

from benchmarks.gates import FIG5_SIZES, fig5_records
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG

#: the legacy trie over the largest per-partition trie, at every size
MIN_TRIE_RATIO = 5


def test_fig5_trie_sizes(table_writer):
    rows = []
    for lines in FIG5_SIZES:
        records = fig5_records(lines)
        legacy = SequenceRTG(db=PatternDB())
        legacy_patterns = legacy.analyze_legacy(records)
        rtg = SequenceRTG(db=PatternDB())
        partition_nodes = rtg.analyze_by_service(records).max_trie_nodes
        n_patterns = rtg.db.counts()["patterns"]
        rows.append([lines, legacy.last_legacy_trie_nodes, partition_nodes,
                     len(legacy_patterns), n_patterns])
        assert legacy_patterns and n_patterns > 0
        assert legacy.last_legacy_trie_nodes > MIN_TRIE_RATIO * partition_nodes, lines
    table_writer(
        "fig5_scaling.md",
        ["lines", "Analyze trie nodes", "largest AnalyzeByService trie nodes",
         "Analyze patterns", "AnalyzeByService patterns"],
        rows,
    )
