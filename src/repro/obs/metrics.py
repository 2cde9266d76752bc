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

from typing import Dict, Mapping, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Labels = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


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
    """Count and sum of observations (e.g. one stage's seconds per run)."""

    __slots__ = ("name", "labels", "count", "sum")

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value

    def merge_from(self, other: "Histogram") -> None:
        self.count += other.count
        self.sum += other.sum

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {"type": "histogram", "count": self.count, "sum": self.sum,
                "mean": self.mean}


class MetricsRegistry:
    """Owns named metrics; get-or-create semantics per (name, labels).

    Instruments are cached on first use, so hot paths should hold the
    instrument object rather than re-resolving it every update.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Labels], object] = {}

    def _get(self, cls, name: str, labels: Optional[Mapping[str, str]]):
        key = (name, _freeze_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
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

    def histogram(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Histogram:
        return self._get(Histogram, name, labels)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one.

        The semantics make merging parallel-worker registries in task
        order equivalent to one sequential registry: counters add,
        gauges keep the incoming (later) value, histograms add their
        counts and sums.  Used by the observation runtime to absorb
        per-worker registries shipped back from a process pool.
        """
        for (name, labels), metric in sorted(other._metrics.items()):
            self._get(type(metric), name, dict(labels)).merge_from(metric)

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
