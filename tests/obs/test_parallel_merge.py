"""Merge semantics for parallel-worker observability.

Two layers of guarantee:

* unit: ``merge_from`` / ``MetricsRegistry.merge`` implement the
  documented algebra (counters add, gauges last-write-wins, histograms
  add their counts and sums);
* session: an experiment run under ``observe()`` with a process pool
  leaves behind the *same* metrics snapshot and run files as the
  sequential run — modulo wall-clock fields — and its merged proof
  ledger still passes ``repro audit``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments.reductions import exp_thm6_reduction
from repro.obs.audit import audit_path
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import observe
from repro.obs.stream import load_session
from repro.sim.config import RunConfig


class TestInstrumentMerge:
    def test_counter_adds(self):
        a, b = Counter("bits"), Counter("bits")
        a.inc(3)
        b.inc(4)
        a.merge_from(b)
        assert a.value == 7

    def test_gauge_last_write_wins(self):
        a, b = Gauge("round"), Gauge("round")
        a.set(10)
        b.set(4)
        a.merge_from(b)
        assert a.value == 4

    def test_histogram_pools(self):
        a = Histogram("t")
        b = Histogram("t")
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge_from(b)
        assert a.count == 3
        assert a.sum == pytest.approx(11.0)


class TestRegistryMerge:
    def test_merge_creates_and_combines(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("bits", {"phase": "send"}).inc(5)
        worker.counter("bits", {"phase": "send"}).inc(2)
        worker.counter("bits", {"phase": "recv"}).inc(1)  # new to parent
        worker.gauge("round").set(7)
        worker.histogram("t").observe(0.5)
        parent.merge(worker)
        snap = parent.snapshot()
        assert snap["bits{phase=send}"]["value"] == 7
        assert snap["bits{phase=recv}"]["value"] == 1
        assert snap["round"]["value"] == 7
        assert snap["t"]["count"] == 1

    def test_merge_in_task_order_equals_sequential(self):
        # the property the parallel runner relies on: folding worker
        # registries in task order reproduces one shared registry
        sequential = MetricsRegistry()
        for task in range(3):
            sequential.counter("runs").inc()
            sequential.gauge("last_seed").set(task)

        parent = MetricsRegistry()
        for task in range(3):
            worker = MetricsRegistry()
            worker.counter("runs").inc()
            worker.gauge("last_seed").set(task)
            parent.merge(worker)
        assert parent.snapshot() == sequential.snapshot()

    def test_merging_empty_registry_changes_nothing(self):
        parent = MetricsRegistry()
        parent.counter("bits").inc(2)
        before = parent.snapshot()
        parent.merge(MetricsRegistry())
        assert parent.snapshot() == before


# ---- session-level equivalence ---------------------------------------

_TIMING_KEYS = {"wall_seconds", "phase_seconds", "run_metrics", "package_version"}


def _strip_timing(obj):
    """Drop wall-clock-valued fields anywhere in a JSON document."""
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v) for k, v in obj.items() if k not in _TIMING_KEYS
        }
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _session_fingerprint(trace_dir):
    """(metrics snapshot, per-run-file stripped JSON lines) for a session."""
    manifest = load_session(trace_dir).manifest
    runs = {}
    for path in sorted(trace_dir.glob("run-*.jsonl")):
        lines = [
            _strip_timing(json.loads(line))
            for line in path.read_text().splitlines()
            if line
        ]
        runs[path.name] = lines
    metrics = {
        k: v
        for k, v in manifest.metrics.items()
        if v.get("type") == "counter" or v.get("type") == "gauge"
    }
    return metrics, runs


def _run_thm6(tmp_path, workers):
    out = tmp_path / f"w{workers}"
    with observe(trace_dir=out, label="thm6-merge-test"):
        exp_thm6_reduction(
            q_values=(25,), n=3, seeds=(1, 2), config=RunConfig(workers=workers)
        )
    return out


class TestSessionMergeEquivalence:
    def test_parallel_session_equals_sequential(self, tmp_path):
        seq_dir = _run_thm6(tmp_path, workers=0)
        par_dir = _run_thm6(tmp_path, workers=2)

        seq_metrics, seq_runs = _session_fingerprint(seq_dir)
        par_metrics, par_runs = _session_fingerprint(par_dir)
        # run-NNNN files: same names, same (timing-stripped) content
        assert sorted(seq_runs) == sorted(par_runs)
        for name in seq_runs:
            assert par_runs[name] == seq_runs[name], name
        # deterministic metrics (counters, gauges) agree exactly
        assert par_metrics == seq_metrics

    def test_audit_passes_on_merged_ledger(self, tmp_path):
        par_dir = _run_thm6(tmp_path, workers=2)
        reports, skipped, exit_code = audit_path(par_dir)
        assert exit_code == 0
        assert reports and all(r.ok for r in reports)

    def test_manifest_records_worker_count(self, tmp_path):
        par_dir = _run_thm6(tmp_path, workers=2)
        seq_dir = _run_thm6(tmp_path, workers=0)
        assert load_session(par_dir).manifest.workers == 2
        assert load_session(seq_dir).manifest.workers == 0
