import json

import pytest

from benchmarks.e2e import report

BENCHMARK = {
    "end_to_end": [
        {"name": "throughput_msgs_per_s", "unit": "msgs/s", "better": "higher", "bound": 0.1},
        {"name": "batch_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
    ]
}
SPEC = report.end_to_end_spec(BENCHMARK)


def result(throughput=1000.0, p50=10.0, failed=0.0, accuracy=0.9, comparable=True):
    metrics = {
        "throughput_msgs_per_s": {"value": throughput, "unit": "msgs/s"},
        "batch_ms_p50": {"value": p50, "unit": "ms"},
        "failed_frac": {"value": failed, "unit": "ratio"},
        "grouping_accuracy": {"value": accuracy, "unit": "ratio"},
    }
    return {"header": {"comparable": comparable}, "workloads": {"w": {"end_to_end": metrics}}}


def verdicts(a, b):
    rows, agree = report.compare(a, b, SPEC)
    return {row["metric"]: row["verdict"] for row in rows}, agree


def test_within_relative_bounds_agrees():
    got, agree = verdicts([result()], [result(throughput=920.0, p50=10.9)])
    assert agree and set(got.values()) == {"ok"}


def test_relative_bound_flags_either_direction():
    got, agree = verdicts([result()], [result(throughput=880.0, p50=8.0)])
    assert not agree
    assert got["throughput_msgs_per_s"] == "worse"  # higher is better, it fell 12 %
    assert got["batch_ms_p50"] == "better"  # lower is better, it fell 20 %


def test_absolute_bounds():
    got, agree = verdicts([result()], [result(failed=0.0001, accuracy=0.896)])
    assert not agree
    assert got["failed_frac"] == "worse"  # bound 0: any loss differs
    assert got["grouping_accuracy"] == "ok"  # 0.004 <= 0.005 absolute
    got, _ = verdicts([result()], [result(accuracy=0.894)])
    assert got["grouping_accuracy"] == "worse"


def test_sides_are_compared_by_their_medians():
    side_a = [result(throughput=t) for t in (1000.0, 1010.0, 400.0)]
    side_b = [result(throughput=t) for t in (990.0, 1000.0, 5000.0)]
    got, agree = verdicts(side_a, side_b)
    assert agree and got["throughput_msgs_per_s"] == "ok"


def test_quick_results_are_refused(tmp_path):
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(result(comparable=False)))
    with pytest.raises(SystemExit, match="not comparable"):
        report.load_results([str(path)])
