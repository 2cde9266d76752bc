"""Tests for the metrics registry (counters, gauges, histograms)."""

from __future__ import annotations

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


class TestRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c1 = reg.counter("rounds_total")
        c2 = reg.counter("rounds_total")
        assert c1 is c2
        c1.inc()
        c2.inc(4)
        assert c1.value == 5

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        a = reg.histogram("phase_seconds", {"phase": "actions"})
        b = reg.histogram("phase_seconds", {"phase": "delivery"})
        assert a is not b
        # label order does not matter
        c = reg.counter("m", {"x": "1", "y": "2"})
        d = reg.counter("m", {"y": "2", "x": "1"})
        assert c is d

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(TypeError):
            reg.gauge("thing")

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3.0)
        g.inc(-1.0)
        assert g.value == 2.0

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("bits_sent_total").inc(7)
        reg.histogram("phase_seconds", {"phase": "actions"}).observe(0.25)
        snap = reg.snapshot()
        assert snap["bits_sent_total"] == {"type": "counter", "value": 7}
        hist = snap["phase_seconds{phase=actions}"]
        assert hist["type"] == "histogram"
        assert hist == {"type": "histogram", "count": 1, "sum": 0.25, "mean": 0.25}


class TestHistogram:
    def test_bucketing_and_stats(self):
        h = Histogram("h")
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        assert h.mean == pytest.approx(55.55 / 4)

    def test_empty_histogram_mean(self):
        assert Histogram("h").mean == 0.0


class TestNullSink:
    def test_real_counter_standalone(self):
        c = Counter("n")
        c.inc()
        assert c.as_dict()["value"] == 1
