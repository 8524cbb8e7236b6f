"""Prometheus text exposition format details."""

from repro.obs.exposition import CONTENT_TYPE, render_prometheus
from repro.obs.metrics import MetricsRegistry


def test_content_type_is_version_0_0_4():
    assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


def test_help_and_type_lines():
    registry = MetricsRegistry()
    registry.counter("rtg_events_total", "Things that happened").inc()
    text = render_prometheus(registry)
    assert "# HELP rtg_events_total Things that happened\n" in text
    assert "# TYPE rtg_events_total counter\n" in text
    assert "rtg_events_total 1\n" in text


def test_labels_sorted_and_quoted():
    registry = MetricsRegistry()
    registry.counter("c").inc(b="2", a="1")
    assert 'c{a="1",b="2"} 1' in render_prometheus(registry)


def test_label_values_escaped():
    registry = MetricsRegistry()
    registry.counter("c").inc(path='a"b\\c\nd')
    assert 'c{path="a\\"b\\\\c\\nd"} 1' in render_prometheus(registry)


def test_histogram_buckets_cumulative_and_terminated_by_inf():
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(0.1, 1.0))
    hist.observe(0.05, stage="scan")
    hist.observe(0.5, stage="scan")
    hist.observe(7.0, stage="scan")
    text = render_prometheus(registry)
    assert 'h_bucket{le="0.1",stage="scan"} 1\n' in text
    assert 'h_bucket{le="1",stage="scan"} 2\n' in text
    assert 'h_bucket{le="+Inf",stage="scan"} 3\n' in text
    assert 'h_sum{stage="scan"} 7.55' in text
    assert 'h_count{stage="scan"} 3\n' in text


def test_integral_floats_render_as_integers():
    registry = MetricsRegistry()
    registry.gauge("g").set(4.0)
    assert "g 4\n" in render_prometheus(registry)


def test_output_is_deterministic():
    def build():
        registry = MetricsRegistry()
        registry.counter("b_total").inc(5, service="y")
        registry.counter("b_total").inc(1, service="x")
        registry.gauge("a").set(2)
        return render_prometheus(registry)

    assert build() == build()


def test_families_sorted_by_name():
    registry = MetricsRegistry()
    registry.counter("z_total").inc()
    registry.gauge("a").set(1)
    text = render_prometheus(registry)
    assert text.index("# TYPE a gauge") < text.index("# TYPE z_total counter")


def test_empty_registry_renders_empty():
    assert render_prometheus(MetricsRegistry()) == ""


def test_weighted_observe_renders_like_repeated_observes():
    # values exact in binary, so n * value is the repeated sum to the bit
    weighted, repeated = MetricsRegistry(), MetricsRegistry()
    for value, n in ((0.0625, 256), (0.5, 3), (8.0, 1), (0.0625, 7)):
        weighted.histogram("h", buckets=(0.1, 1.0)).observe(
            value, n=n, stage="scan"
        )
        for _ in range(n):
            repeated.histogram("h", buckets=(0.1, 1.0)).observe(
                value, stage="scan"
            )
    assert render_prometheus(weighted) == render_prometheus(repeated)
    assert weighted.snapshot() == repeated.snapshot()
    assert weighted.histogram("h", buckets=(0.1, 1.0)).count(stage="scan") == 267
