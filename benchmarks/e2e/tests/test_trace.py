import pytest

from benchmarks.e2e.layers import PER_LAYER, layer_metrics
from benchmarks.e2e.trace import Tracer, TracedStage, self_times, unattributed_frac


def span(id, name, start, end, parent=None, thread="main"):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent,
            "batch": 0, "thread": thread}


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(0, "run", 0.0, 10.0),
        span(1, "engine", 1.0, 9.0, parent=0),
        span(2, "scanner", 2.0, 4.0, parent=1),
        span(3, "patterndb", 5.0, 8.0, parent=1),
        span(4, "patterndb.sqlite", 6.0, 7.0, parent=3),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(2.0)
    assert own[1] == pytest.approx(3.0)  # 8 s minus scanner 2 s and patterndb 3 s
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_with_missing_and_overlapping_children():
    spans = [
        span(0, "engine", 0.0, 4.0, parent=99),  # parent never recorded: a root
        span(1, "a", 1.0, 3.0, parent=0),
        span(2, "b", 2.0, 5.0, parent=0),  # overlaps a, and runs past its parent
        span(3, "leaf", 7.0, 8.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(1.0)  # children cover [1, 4] once
    assert own[3] == pytest.approx(1.0)


def test_unattributed_is_what_no_layer_on_the_mining_thread_accounts_for():
    spans = [
        span(0, "run", 0.0, 10.0),
        span(1, "engine", 0.0, 9.0, parent=0),
        span(2, "ingest.busy", 0.0, 10.0, thread="reader"),  # another thread: not counted
    ]
    assert unattributed_frac(spans, self_times(spans), 10.0) == pytest.approx(0.1)
    assert unattributed_frac([], {}, 10.0) is None


def test_wrap_records_spans_with_parents_and_passes_values_through():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

    tracer = Tracer()
    layer = Layer()
    assert tracer.wrap(layer, "outer", "outer")
    assert tracer.wrap(layer, "inner", "inner")
    assert layer.outer(3) == 7
    outer, inner = tracer.spans()
    assert (outer["name"], outer["parent"]) == ("outer", None)
    assert (inner["name"], inner["parent"]) == ("inner", outer["id"])
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_wrap_of_a_missing_target_is_noted_and_never_raises():
    class Slotted:
        __slots__ = ()

        def call(self):
            return 1

    tracer = Tracer()
    assert not tracer.wrap(object(), "take_batch", "serve.router.take")
    assert not tracer.wrap(Slotted(), "call", "patterndb.sqlite")
    assert tracer.missing == {"serve.router.take", "patterndb.sqlite"}
    assert tracer.seconds("serve.router.take", {}) is None


def test_missing_proxies_read_null_in_the_layer_metrics():
    tracer = Tracer()
    tracer.wrap_stages(object())  # an engine without a ``stages`` list
    metrics = layer_metrics(tracer, [], 1.0, {"records": 10, "matched": 9}, {"rows_end": 3})
    assert set(metrics) == set(PER_LAYER)
    for name in ("scanner.busy_s", "parser.us_per_msg", "patterndb.sqlite_s",
                 "streaming.flush_s", "serve.router.offer_s", "parallel.wall_s"):
        assert metrics[name] is None
    assert metrics["engine.matched_frac"] == pytest.approx(0.9)
    assert metrics["patterndb.rows_end"] == 3


def test_traced_stage_delegates_everything_but_run():
    class Stage:
        name = "scan"
        evolving = "state"

        def run(self, ctx):
            ctx.append("ran")

    class Engine:
        def __init__(self):
            self.stages = [Stage()]
            self.analyze_stage = self.stages[0]

    tracer = Tracer()
    engine = Engine()
    tracer.wrap_stages(engine)
    proxy = engine.stages[0]
    assert isinstance(proxy, TracedStage) and engine.analyze_stage is proxy
    ctx = []
    proxy.run(ctx)
    assert ctx == ["ran"] and proxy.name == "scan" and proxy.evolving == "state"
    assert [s["name"] for s in tracer.spans()] == ["scanner"]
    assert "scanner" in tracer.installed and "parser" in tracer.missing


def test_total_only_keeps_a_running_total_instead_of_spans():
    class Router:
        def offer(self, record):
            return "accepted"

    tracer = Tracer()
    router = Router()
    assert tracer.wrap(router, "offer", "serve.router.offer", total_only=True)
    assert [router.offer(i) for i in range(3)] == ["accepted"] * 3
    assert tracer.spans() == []
    assert tracer.seconds("serve.router.offer", {}) == tracer.totals["serve.router.offer"] > 0
