"""A lightweight metrics registry: counters, gauges, histograms.

The simulator's claims are quantitative — termination rounds, CONGEST
bits on the air, topology churn, wall-clock per engine phase — so the
observability layer keeps them as first-class metrics instead of ad-hoc
post-processing of an in-memory trace.  The design follows the usual
client-library shape (Prometheus et al.): a *registry* owns named
metrics, each metric may carry a frozen label set, and updates are
O(1).  Engine runs fold into the registry once per run, when an
observation session records them
(:meth:`repro.obs.runtime.ObservationSession.run_finished`).

Everything is plain Python with no dependencies; values are exported via
:meth:`MetricsRegistry.snapshot` as JSON-ready dicts.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]

Labels = Tuple[Tuple[str, str], ...]

#: Default histogram buckets for phase wall-clock observations (seconds).
#: Spans sub-microsecond phase slices up to multi-second whole runs.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
    1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: Labels, **extra: str) -> str:
    """``{k="v",...}`` in exposition format, or "" with no labels."""
    pairs = list(labels) + sorted(extra.items())
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, str(v).replace("\\", r"\\").replace('"', r"\""))
        for k, v in pairs
    )
    return "{" + body + "}"


class Counter:
    """A monotonically increasing count (e.g. ``bits_sent_total``)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value that may go up or down (e.g. ``round``)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def merge_from(self, other: "Gauge") -> None:
        # last-write-wins: callers merge in task order, which reproduces
        # the value a sequential run would have left behind
        self.value = other.value

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A bucketed distribution, tuned for wall-clock observations.

    Tracks count, sum, min, max and cumulative bucket counts over fixed
    upper bounds, which is all the phase-timing breakdowns need.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: Labels = (), buckets: Sequence[float] = DEFAULT_TIME_BUCKETS):
        self.name = name
        self.labels = labels
        self.bounds: List[float] = sorted(buckets)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)  # +inf bucket
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        # upper-inclusive bounds (the usual "le" convention)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge_from(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        for i, c in enumerate(other.bucket_counts):
            self.bucket_counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                **{repr(b): c for b, c in zip(self.bounds, self.bucket_counts)},
                "+inf": self.bucket_counts[-1],
            },
        }


class MetricsRegistry:
    """Owns named metrics; get-or-create semantics per (name, labels).

    Instruments are cached on first use, so hot paths should hold the
    instrument object rather than re-resolving it every update.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Labels], object] = {}

    def _get(self, cls, name: str, labels: Optional[Mapping[str, str]], **kwargs):
        key = (name, _freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one.

        The semantics make merging parallel-worker registries in task
        order equivalent to one sequential registry: counters add,
        gauges keep the incoming (later) value, histograms pool their
        distributions.  Used by the observation runtime to absorb
        per-worker registries shipped back from a process pool.
        """
        type_map = {Counter: self.counter, Gauge: self.gauge, Histogram: self.histogram}
        for (name, labels), metric in sorted(other._metrics.items()):
            getter = type_map.get(type(metric))
            if getter is None:  # pragma: no cover - no other types exist
                continue
            kwargs = {"buckets": metric.bounds} if isinstance(metric, Histogram) else {}
            mine = self._get(type(metric), name, dict(labels), **kwargs)
            mine.merge_from(metric)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def snapshot(self) -> dict:
        """JSON-ready dump: ``{name{labels}: {type, value/...}}``."""
        out: Dict[str, dict] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            key = name
            if labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            out[key] = metric.as_dict()  # type: ignore[attr-defined]
        return out

    def render_openmetrics(self) -> str:
        """Prometheus/OpenMetrics text exposition of the registry.

        Counters and gauges render one sample per label set; histograms
        render cumulative ``_bucket{le=...}`` samples plus ``_sum`` and
        ``_count``, matching the standard client-library layout so the
        output scrapes directly (``--metrics-out metrics.prom``).
        """
        by_name: Dict[str, List] = {}
        for (name, _labels), metric in sorted(self._metrics.items()):
            by_name.setdefault(name, []).append(metric)
        lines: List[str] = []
        for name in sorted(by_name):
            metrics = by_name[name]
            kind = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}.get(
                type(metrics[0]), "untyped"
            )
            lines.append(f"# TYPE {name} {kind}")
            for metric in metrics:
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, count in zip(metric.bounds, metric.bucket_counts):
                        cumulative += count
                        lines.append(
                            f"{name}_bucket{_render_labels(metric.labels, le=repr(bound))}"
                            f" {cumulative}"
                        )
                    lines.append(
                        f"{name}_bucket{_render_labels(metric.labels, le='+Inf')}"
                        f" {metric.count}"
                    )
                    lines.append(f"{name}_sum{_render_labels(metric.labels)} {metric.sum}")
                    lines.append(f"{name}_count{_render_labels(metric.labels)} {metric.count}")
                else:
                    lines.append(f"{name}{_render_labels(metric.labels)} {metric.value}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"
