"""Production observability (`repro.obs`).

The paper sells Sequence-RTG as *production-ready*; this package is the
runtime visibility that claim needs in practice: a dependency-free
metrics registry (:mod:`repro.obs.metrics`), Prometheus text exposition
(:mod:`repro.obs.exposition`), a stdlib scrape endpoint
(:mod:`repro.obs.server`) and the :class:`StageObserver` that feeds the
registry from the staged mining engine (:mod:`repro.obs.observer`).

Both execution paths — serial :class:`~repro.core.pipeline.SequenceRTG`
and the persistent worker pool — publish into a registry reachable as
``miner.metrics``; pool workers aggregate into the parent's registry by
shipping snapshot deltas with their batch replies.
"""

from repro.obs.exposition import CONTENT_TYPE, render_prometheus
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    snapshot_to_dict,
)
from repro.obs.observer import (
    METRIC_HELP,
    MetricsObserver,
    fold_batch_result,
    observe_patterndb,
)
from repro.obs.server import MetricsServer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "snapshot_to_dict",
    "render_prometheus",
    "CONTENT_TYPE",
    "MetricsObserver",
    "fold_batch_result",
    "observe_patterndb",
    "METRIC_HELP",
    "MetricsServer",
]
