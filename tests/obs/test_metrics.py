"""Registry semantics: families, labels, thread safety, snapshot/merge."""

import threading

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    snapshot_to_dict,
)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labelled_samples_are_independent(self):
        counter = MetricsRegistry().counter("events_total")
        counter.inc(service="a")
        counter.inc(3, service="b")
        assert counter.value(service="a") == 1
        assert counter.value(service="b") == 3
        assert counter.value(service="c") == 0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("events_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_label_order_is_canonical(self):
        counter = MetricsRegistry().counter("events_total")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("size")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value() == 2


class TestHistogram:
    def test_observe_places_in_buckets(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)  # overflow
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(5.55)

    def test_boundary_lands_in_its_bucket(self):
        """Prometheus buckets are `le` (inclusive upper bounds)."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.1)
        dump = snapshot_to_dict(registry.snapshot())
        (sample,) = dump["lat"]["samples"]
        assert sample["buckets"]["0.1"] == 1

    def test_default_buckets_are_the_latency_scale(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.buckets == LATENCY_BUCKETS

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            MetricsRegistry().histogram("lat", buckets=(1.0, 0.1))


class TestHistogramQuantile:
    def test_empty_sample_is_zero(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        assert hist.quantile(0.99) == 0.0

    def test_returns_the_bound_of_the_bucket_holding_the_rank(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0, 10.0))
        hist.observe(0.05, n=90)
        hist.observe(0.5, n=9)
        hist.observe(5.0)
        # 0-based ranks 0-89 sit in the first bucket, 90-98 in the
        # second, 99 in the third
        assert hist.quantile(0.0) == 0.1
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(0.9) == 1.0
        assert hist.quantile(0.99) == 10.0
        assert hist.quantile(1.0) == 10.0  # clamped to the last rank

    def test_reads_one_labelled_sample(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05, stage="scan")
        hist.observe(0.5, stage="parse")
        assert hist.quantile(0.99, stage="scan") == 0.1
        assert hist.quantile(0.99, stage="parse") == 1.0
        assert hist.quantile(0.99) == 0.0  # the unlabelled sample is empty

    def test_overflow_bucket_is_infinite(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(50.0)
        assert hist.quantile(0.99) == float("inf")


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_const_labels_stamped_on_every_sample(self):
        """Pool workers stamp worker=N; the const labels must merge with
        per-call labels into one canonical key."""
        registry = MetricsRegistry(const_labels={"worker": "3"})
        counter = registry.counter("events_total")
        counter.inc(service="a")
        counter.inc()
        (key_a, key_bare) = sorted(counter.samples())
        assert dict(key_bare) == {"worker": "3"} or dict(key_a) == {"worker": "3"}
        keys = {tuple(sorted(dict(k).items())) for k in counter.samples()}
        assert (("service", "a"), ("worker", "3")) in keys
        assert (("worker", "3"),) in keys

    def test_collect_is_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert [m.name for m in registry.collect()] == ["a", "b"]


class TestThreadSafety:
    def test_concurrent_updates_lose_nothing(self):
        """The ingester's reader thread and the scrape server touch the
        registry concurrently with analysis; counts must stay exact."""
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        hist = registry.histogram("lat", buckets=(0.5,))
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                counter.inc(service="s")
                hist.observe(0.1, stage="scan")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value(service="s") == n_threads * per_thread
        assert hist.count(stage="scan") == n_threads * per_thread


class TestSnapshotDeltaMerge:
    def test_delta_subtracts_counters_and_histograms(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        hist = registry.histogram("h", buckets=(1.0,))
        counter.inc(5)
        hist.observe(0.5)
        before = registry.snapshot()
        counter.inc(2)
        hist.observe(2.0)
        delta = MetricsRegistry.snapshot_delta(before, registry.snapshot())
        assert delta["c"]["samples"][()] == 2
        counts, h_sum, h_count = delta["h"]["samples"][()]
        assert counts == (0, 1)  # only the overflow observation is new
        assert h_sum == pytest.approx(2.0)
        assert h_count == 1

    def test_delta_of_new_sample_counts_from_zero(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.counter("c").inc(4, service="new")
        delta = MetricsRegistry.snapshot_delta(before, registry.snapshot())
        assert delta["c"]["samples"][(("service", "new"),)] == 4

    def test_delta_gauges_take_the_after_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(10)
        before = registry.snapshot()
        gauge.set(3)
        delta = MetricsRegistry.snapshot_delta(before, registry.snapshot())
        assert delta["g"]["samples"][()] == 3

    def test_merge_adds_counters_and_overwrites_gauges(self):
        worker = MetricsRegistry(const_labels={"worker": "0"})
        worker.counter("c", "help").inc(5, service="a")
        worker.gauge("g").set(7)
        worker.histogram("h", buckets=(1.0,)).observe(0.2)

        parent = MetricsRegistry()
        parent.counter("c").inc(1, service="a", worker="0")
        parent.merge(worker.snapshot())
        parent.merge(worker.snapshot())

        assert parent.counter("c").value(service="a", worker="0") == 11
        assert parent.gauge("g").value(worker="0") == 7
        assert parent.histogram("h", buckets=(1.0,)).count(worker="0") == 2

    def test_merge_creates_missing_families_with_help_and_buckets(self):
        source = MetricsRegistry()
        source.histogram("h", "the help", buckets=(0.5, 2.0)).observe(1.0)
        target = MetricsRegistry()
        target.merge(source.snapshot())
        hist = target.histogram("h")
        assert hist.help == "the help"
        assert hist.buckets == (0.5, 2.0)
        assert hist.count() == 1

    def test_snapshot_is_picklable(self):
        """Worker deltas cross a multiprocessing pipe."""
        import pickle

        registry = MetricsRegistry(const_labels={"worker": "1"})
        registry.counter("c").inc(service="a")
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = pickle.loads(pickle.dumps(registry.snapshot()))
        restored = MetricsRegistry()
        restored.merge(snapshot)
        assert restored.counter("c").value(service="a", worker="1") == 1


class TestJsonDump:
    def test_histogram_buckets_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(9.0)
        dump = registry.to_dict()
        (sample,) = dump["h"]["samples"]
        assert sample["buckets"] == {"0.1": 1, "1.0": 2, "+Inf": 3}
        assert sample["count"] == 3

    def test_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c", "help").inc(2, service="a")
        registry.histogram("h").observe(0.01, stage="scan")
        text = json.dumps(registry.to_dict())
        assert "stage" in text
