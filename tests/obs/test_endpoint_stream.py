"""Acceptance: the ``/metrics`` endpoint during live stream runs.

For each execution path — serial :class:`SequenceRTG` and the
:class:`PersistentParallelSequenceRTG` pool — the miner's registry is
served over HTTP while ``process_stream`` is driving batches, and the
scrape must expose stage-latency histograms and fast-lane counters in
Prometheus text format.
"""

import urllib.request

import pytest

from repro.core.parallel import PersistentParallelSequenceRTG
from repro.core.patterndb import PatternDB
from repro.core.pipeline import SequenceRTG
from repro.obs.exposition import render_prometheus
from repro.obs.server import MetricsServer
from repro.workflow.stream import ProductionStream, StreamConfig


def batches(n_batches=3, per_batch=200, n_services=8, seed=11):
    stream = ProductionStream(StreamConfig(
        n_services=n_services, seed=seed, duplicate_fraction=0.5,
    ))
    return [list(stream.records(per_batch)) for _ in range(n_batches)]


def scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        return response.read().decode("utf-8")


def assert_scrape_complete(text: str, expect_workers: bool) -> None:
    # per-stage latency histograms, with cumulative buckets and +Inf
    for stage in ("scan", "parse", "analyze", "persist"):
        assert f'stage="{stage}"' in text
    assert "rtg_stage_latency_seconds_bucket" in text
    assert 'le="+Inf"' in text
    assert "rtg_stage_latency_seconds_sum" in text
    # throughput counters and batch aggregates
    assert "rtg_records_total{" in text
    assert "rtg_batches_total " in text
    assert "rtg_matched_fraction " in text
    # fast-lane hit/miss counters
    assert 'rtg_fastlane_events_total{cache="dedup",event="unique"}' in text
    assert 'cache="scan"' in text
    # database gauges
    assert 'rtg_patterndb_rows{table="patterns"}' in text
    if expect_workers:
        assert 'worker="' in text
        assert "rtg_pool_workers " in text


def drive_and_scrape(miner, expect_workers: bool) -> None:
    with MetricsServer(miner.metrics, port=0) as server:
        mid_scrapes = []
        for result in miner.process_stream(batches()):
            assert result.n_records > 0
            mid_scrapes.append(scrape(server.url))
        final = scrape(server.url)
    # scrapes during the run already carry the live families
    assert "rtg_stage_latency_seconds_count" in mid_scrapes[0]
    assert_scrape_complete(final, expect_workers=expect_workers)


class TestEndpointDuringStream:
    def test_serial_path(self):
        drive_and_scrape(SequenceRTG(db=PatternDB()), expect_workers=False)

    def test_pool_path(self):
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=3) as miner:
            drive_and_scrape(miner, expect_workers=True)
            # the pool's own lifecycle events, on the same endpoint
            text = render_prometheus(miner.metrics)
            assert 'rtg_pool_events_total{event="spawn"} 3' in text


class TestPoolAggregation:
    def test_worker_samples_survive_merge_with_labels(self):
        """Stage histograms recorded inside workers surface in the
        parent registry with their worker label."""
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=2) as miner:
            for batch in batches(n_batches=2):
                miner.analyze_by_service(batch)
            snap = miner.metrics.snapshot()
            samples = snap["rtg_stage_latency_seconds"]["samples"]
            workers = {dict(key).get("worker") for key in samples}
            assert workers - {None}, "no worker-labelled stage samples"
            backends = {
                dict(key)["stage"]: dict(key).get("backend") for key in samples
            }
            assert backends == {
                "scan": "compiled",
                "parse": "compiled",
                "analyze": "compiled",
                "partition_length": None,
                "persist": None,
            }

    def test_mining_counters_match_across_paths(self):
        """The same stream yields identical mining counters (records,
        matched, unmatched, patterns) on both paths."""
        def totals(registry):
            snap = registry.snapshot()
            out = {}
            for name in (
                "rtg_records_total", "rtg_matched_total",
                "rtg_unmatched_total", "rtg_patterns_total",
            ):
                per_service: dict[str, float] = {}
                for key, value in snap.get(name, {}).get("samples", {}).items():
                    service = dict(key).get("service")
                    per_service[service] = per_service.get(service, 0) + value
                out[name] = per_service
            return out

        serial = SequenceRTG(db=PatternDB())
        for batch in batches():
            serial.analyze_by_service(batch)

        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=3) as warm:
            for batch in batches():
                warm.analyze_by_service(batch)
            assert totals(serial.metrics) == totals(warm.metrics)

    def test_batches_total_counts_each_batch_once(self):
        """Worker-side batch aggregates must not double-count on merge."""
        with PersistentParallelSequenceRTG(db=PatternDB(), n_workers=3) as warm:
            for batch in batches(n_batches=4):
                warm.analyze_by_service(batch)
            assert warm.metrics.counter("rtg_batches_total").value() == 4

    def test_metrics_disabled_end_to_end(self):
        from repro.core.config import RTGConfig

        config = RTGConfig(enable_metrics=False)
        with PersistentParallelSequenceRTG(
            db=PatternDB(), config=config, n_workers=2
        ) as warm:
            result = warm.analyze_by_service(batches(n_batches=1)[0])
            assert result.metrics == {}
            assert warm.metrics.collect() == []
