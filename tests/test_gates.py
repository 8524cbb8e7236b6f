"""The benchmark gates (``benchmarks/gates.py``) on synthetic e2e records:
each one passes a record that meets it and fails one that does not.
No timing runs here."""

import pytest

from benchmarks import gates
from benchmarks.gates import FAIL, PASS, SKIP


def record(file_rate=20_000.0, pool_rate=30_000.0, nproc=2, pairs=None):
    """An e2e result shaped like ``benchmarks.gates.measure``'s."""

    def workload(rate):
        return {"end_to_end": {"throughput_msgs_per_s": {"value": rate, "unit": "msgs/s"}}}

    return {
        "header": {"nproc": nproc},
        "workloads": {"steady_file": workload(file_rate), "steady_pool": workload(pool_rate)},
        "metrics_pairs_s": [(0.20, 0.20)] * 5 if pairs is None else pairs,
    }


class TestPaperFloor:
    def test_above_the_floor_passes(self):
        status, _ = gates.paper_floor(record(file_rate=gates.PAPER_FLOOR_MSGS_PER_S * 1.01))
        assert status == PASS

    def test_below_the_floor_fails(self):
        status, reason = gates.paper_floor(record(file_rate=gates.PAPER_FLOOR_MSGS_PER_S * 0.99))
        assert status == FAIL
        assert "steady_file" in reason


class TestPoolPays:
    @pytest.mark.parametrize("speedup, expected", [(1.5, PASS), (1.1, FAIL)])
    def test_ratio_is_read_from_the_record(self, speedup, expected):
        rec = record(file_rate=10_000.0, pool_rate=10_000.0 * speedup)
        ratio = (
            rec["workloads"]["steady_pool"]["end_to_end"]["throughput_msgs_per_s"]["value"]
            / rec["workloads"]["steady_file"]["end_to_end"]["throughput_msgs_per_s"]["value"]
        )
        status, reason = gates.pool_pays(rec)
        assert status == expected
        assert (ratio >= gates.POOL_SPEEDUP) == (status == PASS)
        assert f"{ratio:.2f}x" in reason

    def test_one_cpu_skips_with_a_reason(self):
        # a pool slower than serial would fail, but one CPU cannot judge it
        status, reason = gates.pool_pays(record(file_rate=10_000.0, pool_rate=5_000.0, nproc=1))
        assert status == SKIP
        assert "1 CPU" in reason


class TestMetricsOverhead:
    def test_small_overhead_passes(self):
        status, _ = gates.metrics_overhead(record(pairs=[(0.202, 0.200)] * 5))
        assert status == PASS

    def test_large_overhead_fails(self):
        status, reason = gates.metrics_overhead(record(pairs=[(0.220, 0.200)] * 5))
        assert status == FAIL
        assert "+10.0%" in reason

    def test_median_ignores_a_noisy_pair(self):
        pairs = [(0.200, 0.200)] * 4 + [(2.0, 0.200)]
        assert gates.metrics_overhead(record(pairs=pairs))[0] == PASS

    def test_too_few_pairs_fails(self):
        status, reason = gates.metrics_overhead(record(pairs=[(0.2, 0.2)] * 4))
        assert status == FAIL
        assert "4 timing pairs" in reason
