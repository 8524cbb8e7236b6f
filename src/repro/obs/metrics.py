"""Dependency-free metrics primitives.

The paper positions Sequence-RTG as a continuously running production
service behind syslog-ng; operating one means watching match rates,
per-stage latency and pattern-database growth over time.  This module
is the storage layer for that telemetry: a :class:`MetricsRegistry`
holding :class:`Counter`, :class:`Gauge` and :class:`Histogram`
families, free of third-party dependencies (the library's standing
constraint) and safe to touch from multiple threads (the pipelined
ingester's reader thread and the metrics HTTP server both run
concurrently with analysis).

Label handling is per-sample rather than per-family: a sample's key is
the sorted tuple of its ``(label, value)`` pairs, so the same metric
name can carry ``{stage=...}`` samples from the serial engine and
``{stage=..., worker=...}`` samples merged from pool workers without a
schema conflict.

Cross-process aggregation is a snapshot/delta discipline: counters and
histograms are cumulative and additive, so a worker snapshots its registry before
and after a batch, ships :meth:`MetricsRegistry.snapshot_delta` of the
two, and the parent folds it in with :meth:`MetricsRegistry.merge`.
Gauges are last-value-wins — safe here because pool sharding is
service-disjoint, so no two workers ever publish the same gauge sample.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "snapshot_to_dict",
]

#: Fixed log-scale latency buckets (seconds): 1–2.5–5 steps per decade
#: from 100µs to 10s, wide enough for a single scan stage and for a
#: whole 100k-message batch.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


def _label_key(const: tuple, labels: dict) -> tuple:
    """Canonical hashable key of one sample's label set."""
    if not labels:
        return const
    if not const:
        return tuple(sorted(labels.items()))
    merged = dict(const)
    merged.update(labels)
    return tuple(sorted(merged.items()))


class _Metric:
    """One metric family: a name, a help string and labelled samples."""

    kind = "untyped"
    __slots__ = ("name", "help", "_lock", "_const", "_samples")

    def __init__(self, name: str, help: str, lock: threading.RLock,
                 const: tuple) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._const = const
        #: label key -> sample value (float, or histogram state)
        self._samples: dict[tuple, object] = {}

    def samples(self) -> dict[tuple, object]:
        """Point-in-time copy of the family's samples."""
        with self._lock:
            return dict(self._samples)


class Counter(_Metric):
    """Monotonically increasing value (events, rows, patterns)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        key = _label_key(self._const, labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._samples.get(_label_key(self._const, labels), 0.0))


class Gauge(_Metric):
    """Point-in-time value (sizes, fractions, lags)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(self._const, labels)
        with self._lock:
            self._samples[key] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return float(self._samples.get(_label_key(self._const, labels), 0.0))


class Histogram(_Metric):
    """Cumulative-bucket distribution (latencies).

    A sample is ``[bucket_counts, sum, count]`` where ``bucket_counts``
    holds the non-cumulative count per bucket bound (cumulated only at
    exposition time), which keeps delta/merge plain element-wise
    addition.
    """

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(self, name: str, help: str, lock: threading.RLock,
                 const: tuple, buckets: tuple[float, ...]) -> None:
        super().__init__(name, help, lock, const)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be a sorted non-empty sequence, got {buckets}")
        self.buckets = tuple(float(b) for b in buckets)

    def observe(self, value: float, n: int = 1, **labels: str) -> None:
        """Record *n* observations of *value* (identical to *n* calls)."""
        key = _label_key(self._const, labels)
        # index of the first bucket >= value; len(buckets) = +Inf overflow
        i = bisect_left(self.buckets, value)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._samples[key] = state
            state[0][i] += n
            state[1] += n * value
            state[2] += n

    def count(self, **labels: str) -> int:
        with self._lock:
            state = self._samples.get(_label_key(self._const, labels))
            return int(state[2]) if state is not None else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            state = self._samples.get(_label_key(self._const, labels))
            return float(state[1]) if state is not None else 0.0

    def quantile(self, q: float, **labels: str) -> float:
        """Upper bound of the bucket holding the *q*-quantile (0..1)
        observation of one sample: an over-estimate by at most one
        bucket's width.  0.0 when the sample is empty, ``inf`` when that
        observation fell in the overflow bucket."""
        with self._lock:
            state = self._samples.get(_label_key(self._const, labels))
            if state is None or not state[2]:
                return 0.0
            # 0-based rank of the observation, as in a sorted list
            rank = min(state[2] - 1, int(q * state[2]))
            seen = 0
            for bound, n in zip(self.buckets, state[0]):
                seen += n
                if seen > rank:
                    return bound
            return float("inf")


class MetricsRegistry:
    """Thread-safe collection of metric families.

    ``get-or-create`` accessors (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) make wiring order-independent: the first caller
    registers the family, later callers get the same object, and a kind
    mismatch raises instead of silently mixing semantics.

    *const_labels* are stamped onto every sample recorded through this
    registry — pool workers use ``{"worker": "3"}`` so their samples
    stay distinguishable after the parent merges them.
    """

    def __init__(self, const_labels: dict[str, str] | None = None) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}
        self._const: tuple = tuple(sorted((const_labels or {}).items()))

    # -- family accessors ------------------------------------------------
    def _get(self, name: str, kind: type, factory) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif type(metric) is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(
            name, Counter, lambda: Counter(name, help, self._lock, self._const)
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(
            name, Gauge, lambda: Gauge(name, help, self._lock, self._const)
        )

    def histogram(
        self, name: str, help: str = "",
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get(
            name,
            Histogram,
            lambda: Histogram(name, help, self._lock, self._const, buckets),
        )

    def collect(self) -> list[_Metric]:
        """The registered families, sorted by name (for exposition)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    # -- snapshot / delta / merge ---------------------------------------
    def snapshot(self) -> dict:
        """Picklable cumulative state of every family.

        Shape: ``{name: {"kind", "help", "buckets"?, "samples": {label_key:
        value}}}`` with histogram sample values as ``(tuple(bucket_counts),
        sum, count)``.  Diff two snapshots with :meth:`snapshot_delta`,
        fold a snapshot (or delta) into another registry with
        :meth:`merge`.
        """
        out: dict = {}
        with self._lock:
            for name, metric in self._metrics.items():
                entry: dict = {"kind": metric.kind, "help": metric.help}
                if metric.kind == "histogram":
                    entry["buckets"] = metric.buckets
                    entry["samples"] = {
                        key: (tuple(state[0]), state[1], state[2])
                        for key, state in metric._samples.items()
                    }
                else:
                    entry["samples"] = dict(metric._samples)
                out[name] = entry
        return out

    @staticmethod
    def snapshot_delta(before: dict, after: dict) -> dict:
        """Per-interval change between two :meth:`snapshot` calls.

        Counters and histograms subtract (a sample absent from *before*
        deltas against zero); gauges report their *after* value.
        """
        out: dict = {}
        for name, entry in after.items():
            prior = before.get(name, {}).get("samples", {})
            delta_entry = {k: v for k, v in entry.items() if k != "samples"}
            samples: dict = {}
            for key, value in entry["samples"].items():
                if entry["kind"] == "gauge":
                    samples[key] = value
                elif entry["kind"] == "histogram":
                    b_counts, b_sum, b_count = prior.get(
                        key, ((0,) * len(value[0]), 0.0, 0)
                    )
                    samples[key] = (
                        tuple(a - b for a, b in zip(value[0], b_counts)),
                        value[1] - b_sum,
                        value[2] - b_count,
                    )
                else:
                    samples[key] = value - prior.get(key, 0.0)
            delta_entry["samples"] = samples
            out[name] = delta_entry
        return out

    def merge(self, delta: dict) -> None:
        """Fold a :meth:`snapshot` (or delta) into this registry.

        Counter and histogram samples add; gauge samples overwrite.
        This is how the pool front ends aggregate worker-side registries
        into the shared one.
        """
        for name, entry in delta.items():
            kind = entry["kind"]
            if kind == "counter":
                metric = self.counter(name, entry.get("help", ""))
            elif kind == "gauge":
                metric = self.gauge(name, entry.get("help", ""))
            elif kind == "histogram":
                metric = self.histogram(
                    name, entry.get("help", ""),
                    buckets=tuple(entry["buckets"]),
                )
            else:  # pragma: no cover - snapshots only carry known kinds
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            with self._lock:
                for key, value in entry["samples"].items():
                    key = tuple(key)
                    if kind == "gauge":
                        metric._samples[key] = float(value)
                    elif kind == "histogram":
                        state = metric._samples.get(key)
                        if state is None:
                            state = [[0] * (len(metric.buckets) + 1), 0.0, 0]
                            metric._samples[key] = state
                        counts, h_sum, h_count = value
                        for i, c in enumerate(counts):
                            state[0][i] += c
                        state[1] += h_sum
                        state[2] += h_count
                    else:
                        metric._samples[key] = metric._samples.get(key, 0.0) + value

    def to_dict(self) -> dict:
        """JSON-compatible dump of the current state."""
        return snapshot_to_dict(self.snapshot())


def snapshot_to_dict(snapshot: dict) -> dict:
    """Render a :meth:`MetricsRegistry.snapshot` (or delta) JSON-safe.

    Label keys become plain dicts; histogram samples expose cumulative
    bucket counts keyed by upper bound, matching the exposition shape.
    """
    out: dict = {}
    for name, entry in sorted(snapshot.items()):
        samples = []
        for key in sorted(entry["samples"]):
            value = entry["samples"][key]
            labels = dict(key)
            if entry["kind"] == "histogram":
                cumulative: dict[str, int] = {}
                running = 0
                for bound, count in zip(entry["buckets"], value[0]):
                    running += count
                    cumulative[repr(float(bound))] = running
                cumulative["+Inf"] = running + value[0][-1]
                samples.append(
                    {
                        "labels": labels,
                        "buckets": cumulative,
                        "sum": value[1],
                        "count": value[2],
                    }
                )
            else:
                samples.append({"labels": labels, "value": value})
        out[name] = {
            "kind": entry["kind"],
            "help": entry["help"],
            "samples": samples,
        }
    return out
