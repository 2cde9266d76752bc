"""Streaming telemetry (PR 7): events.jsonl, checkpoints, resource
sampling, partial sessions, and the benchmark history store.

The load-bearing properties:

* **streaming is free of semantics** — a streamed session produces
  bit-identical trace fingerprints and the same deterministic metric
  counters as an unstreamed one (a Hypothesis property over seeds);
* **crash-safety** — the event stream is a valid completed prefix at
  every point: dropping the clean-close artifacts (manifest.json,
  spans.jsonl, session-close) still loads under ``inspect``/``profile``
  with a synthesized PARTIAL manifest, and the spans reconstructed from
  events exactly match the recorder's;
* **trend analysis** — ``bench-history`` flags the injected regression
  against a median-of-last-K window and nothing else.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.adversaries import RandomConnectedAdversary
from repro.obs import observe
from repro.obs.export import read_trace_jsonl
from repro.obs.history import (
    DEFAULT_WINDOW,
    MIN_ENTRIES,
    analyze_history,
    append_history,
    read_history,
    record_from_result,
    render_history,
    sparkline,
)
from repro.obs.inspect import inspect_session
from repro.obs.manifest import MANIFEST_FILENAME, collect_provenance
from repro.obs.profile import profile_session, render_profile
from repro.obs.resource import (
    RESOURCE_FILENAME,
    ResourceSampler,
    read_resource_jsonl,
    resolve_interval,
    sample_resources,
    summarize_resources,
)
from repro.obs.spans import session_spans
from repro.obs.stream import (
    CHECKPOINT_FILENAME,
    EVENTS_FILENAME,
    STREAM_ENV,
    EventStream,
    is_partial_session,
    load_checkpoint,
    load_session_manifest,
    read_events_jsonl,
    resolve_stream,
    spans_from_events,
    stream_progress_totals,
    synthesize_manifest,
    write_checkpoint,
)
from repro.protocols.flooding import TokenFloodNode
from repro.sim.config import RunConfig
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.runner import replicate
from repro.sim.trace import trace_fingerprint


def _token_replicate(seeds, workers=0):
    ids = tuple(range(6))
    return replicate(
        NodeSet(ids, BoundNode(TokenFloodNode, source=ids[0])),
        Constant(RandomConnectedAdversary(list(ids), seed=7)),
        seeds=seeds,
        config=RunConfig(max_rounds=24, workers=workers, backend="reference"),
    )


def _streamed_session(tmp_path, seeds=(1, 2, 3), workers=0, name="stream"):
    d = tmp_path / name
    with observe(trace_dir=d, stream=True, resource_interval=0, label=name) as s:
        _token_replicate(seeds, workers=workers)
    return d, s


def _fingerprints(directory):
    return [
        trace_fingerprint(read_trace_jsonl(p).trace)
        for p in sorted(directory.glob("run-*.jsonl"))
    ]


def _counters(session):
    return {
        k: m["value"]
        for k, m in session.manifest.metrics.items()
        if m.get("type") == "counter" and not k.startswith("process_")
    }


class TestResolveStream:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(STREAM_ENV, "1")
        assert resolve_stream(False) is False
        monkeypatch.delenv(STREAM_ENV)
        assert resolve_stream(True) is True

    @pytest.mark.parametrize("raw,expect", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("no", False),
    ])
    def test_env_truthiness(self, monkeypatch, raw, expect):
        monkeypatch.setenv(STREAM_ENV, raw)
        assert resolve_stream(None) is expect

    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(STREAM_ENV, raising=False)
        assert resolve_stream(None) is False


class TestEventStream:
    def test_emit_sequences_and_close(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        stream = EventStream(path, label="t")
        stream.emit("run-complete", run={"seed": 1})
        stream.emit("heartbeat", rss_bytes=1)
        stream.close(runs=1)
        events = read_events_jsonl(path)
        assert [e["type"] for e in events] == [
            "stream-start", "run-complete", "heartbeat", "session-close",
        ]
        assert [e["seq"] for e in events] == [1, 2, 3, 4]
        assert events[-1]["runs"] == 1

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        stream = EventStream(path)
        stream.emit("run-complete", run={"seed": 1})
        # simulate a kill mid-write: append half a JSON line
        with path.open("a") as fh:
            fh.write('{"type": "run-com')
        events = read_events_jsonl(path)
        stream.close()
        assert [e["type"] for e in events] == ["stream-start", "run-complete"]

    def test_checkpoint_roundtrip_is_atomic(self, tmp_path):
        payload = {"runs": 3, "metrics": {"a": 1}}
        write_checkpoint(tmp_path, payload)
        assert load_checkpoint(tmp_path)["runs"] == 3
        # no stray tmp file left behind
        leftovers = [p for p in tmp_path.iterdir() if p.name != CHECKPOINT_FILENAME]
        assert leftovers == []

    def test_corrupt_checkpoint_loads_none(self, tmp_path):
        (tmp_path / CHECKPOINT_FILENAME).write_text("{nope")
        assert load_checkpoint(tmp_path) is None


class TestStreamingSession:
    def test_event_stream_written_and_manifest_links_it(self, tmp_path):
        d, session = _streamed_session(tmp_path)
        events = read_events_jsonl(d / EVENTS_FILENAME)
        types = Counter(e["type"] for e in events)
        assert types["stream-start"] == 1
        assert types["run-complete"] == 3
        assert types["session-close"] == 1
        manifest = load_session_manifest(d)
        assert not manifest.partial
        assert manifest.events_file == EVENTS_FILENAME
        assert manifest.provenance.get("hostname")
        assert manifest.provenance.get("python_version")

    def test_progress_events_streamed(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        events = read_events_jsonl(d / EVENTS_FILENAME)
        progress = [e for e in events if e["type"] == "progress"]
        assert {e["phase"] for e in progress} >= {"begin", "advance", "finish"}
        # live state: mid-flight the outermost scope shows done/total,
        # and the finish event pops it (a closed session tails to {})
        mid_flight = [e for e in events if not (
            e["type"] == "progress" and e["phase"] == "finish"
        )]
        totals = stream_progress_totals(mid_flight)
        assert totals[min(totals)] == (3, 3)
        assert stream_progress_totals(events) == {}

    def test_spans_from_events_match_recorder(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        rebuilt = spans_from_events(read_events_jsonl(d / EVENTS_FILENAME))
        recorded = session_spans(d)
        shape = lambda spans: Counter(  # noqa: E731
            (sp.kind, sp.name) for sp in spans if sp.kind != "event"
        )
        assert shape(rebuilt) == shape(recorded)

    def test_unstreamed_session_writes_no_events(self, tmp_path):
        d = tmp_path / "plain"
        with observe(trace_dir=d, stream=False):
            _token_replicate((1,))
        assert not (d / EVENTS_FILENAME).exists()
        assert load_session_manifest(d).events_file is None

    def test_collect_sessions_never_stream(self, tmp_path, monkeypatch):
        from repro.obs.runtime import ObservationSession

        monkeypatch.setenv(STREAM_ENV, "1")
        session = ObservationSession(collect=True)
        assert not session.streaming
        session.close()

    def test_concurrent_checkpoints_never_raise(self, tmp_path):
        """The resource sampler and the main thread both checkpoint.

        They share ``checkpoint.json.tmp``: unserialized, one writer's
        ``os.replace`` finds the temp file already moved and raises
        FileNotFoundError.  Half the threads go through the rate-limited
        path the sampler uses, half through the direct call.
        """
        from repro.obs.runtime import ObservationSession

        d = tmp_path / "racy"
        session = ObservationSession(trace_dir=d, stream=True, resource_interval=0)
        session.checkpoint_interval = 0.0
        threads_n, calls = 4, 200
        start = threading.Barrier(threads_n)
        errors = []

        def hammer(call):
            try:
                start.wait(timeout=10)
                for _ in range(calls):
                    call()
            except Exception as exc:  # the assertion below reports it
                errors.append(exc)

        targets = [session.checkpoint, session._maybe_checkpoint] * (threads_n // 2)
        threads = [threading.Thread(target=hammer, args=(t,), daemon=True)
                   for t in targets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            session.close()
        assert not any(t.is_alive() for t in threads), "checkpoint threads hung"
        assert errors == []
        assert load_checkpoint(d) is not None
        assert not (d / (CHECKPOINT_FILENAME + ".tmp")).exists()


class TestStreamingEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(seeds=st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    def test_streaming_changes_nothing(self, tmp_path_factory, seeds):
        tmp = tmp_path_factory.mktemp("equiv")
        plain = tmp / "plain"
        with observe(trace_dir=plain, stream=False) as base:
            _token_replicate(tuple(seeds))
        streamed = tmp / "streamed"
        with observe(trace_dir=streamed, stream=True, resource_interval=0) as s:
            _token_replicate(tuple(seeds))
        assert _fingerprints(plain) == _fingerprints(streamed)
        assert _counters(base) == _counters(s)

    def test_workers_streaming_equivalence(self, tmp_path):
        plain = tmp_path / "plain"
        with observe(trace_dir=plain, stream=False) as base:
            _token_replicate((1, 2, 3), workers=0)
        streamed = tmp_path / "streamed"
        with observe(trace_dir=streamed, stream=True, resource_interval=0) as s:
            _token_replicate((1, 2, 3), workers=2)
        assert _fingerprints(plain) == _fingerprints(streamed)
        assert _counters(base) == _counters(s)

    def test_sampling_gauges_are_the_only_metric_delta(self, tmp_path):
        d = tmp_path / "sampled"
        with observe(trace_dir=d, stream=True, resource_interval=0.01) as s:
            _token_replicate((1,))
        extra = {
            k for k in s.manifest.metrics if k.startswith("process_")
        }
        assert extra <= {
            "process_rss_bytes", "process_cpu_percent", "process_gc_collections",
        }


def _make_partial(directory):
    """Turn a cleanly closed streamed session into a killed-looking one."""
    (directory / MANIFEST_FILENAME).unlink()
    (directory / "spans.jsonl").unlink(missing_ok=True)
    events = directory / EVENTS_FILENAME
    lines = events.read_text().splitlines()
    assert json.loads(lines[-1])["type"] == "session-close"
    events.write_text("\n".join(lines[:-1]) + "\n")


class TestPartialSession:
    def test_detection_and_synthesis(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        assert not is_partial_session(d)
        _make_partial(d)
        assert is_partial_session(d)
        manifest = load_session_manifest(d)
        assert manifest.partial
        assert len(manifest.runs) == 3
        # synthesized manifests are never persisted
        assert not (d / MANIFEST_FILENAME).exists()

    def test_inspect_marks_partial(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        report = inspect_session(d)
        assert report.partial
        text = report.render()
        assert "PARTIAL" in text
        assert "run-0001" in text

    def test_profile_reconstructs_spans(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        profile = profile_session(d)
        assert profile.partial
        assert profile.by_kind["run"].count == 3
        assert "PARTIAL" in render_profile(profile)

    def test_stale_checkpoint_never_shadows_fresher_events(self, tmp_path):
        d, session = _streamed_session(tmp_path)
        _make_partial(d)
        checkpoint = load_checkpoint(d)
        # rate limiting means the checkpoint may lag the event stream...
        assert checkpoint is not None
        assert checkpoint["runs"] <= session.num_runs
        # ...but runs are synthesized from events, aggregates from the
        # checkpoint's last write (recoverable, not zeroed)
        manifest = synthesize_manifest(d)
        assert len(manifest.runs) == session.num_runs == 3
        assert manifest.metrics
        assert manifest.label == "stream"

    @pytest.mark.parametrize(
        "field, value",
        [("metrics", 5), ("provenance", 5), ("wall_seconds", "x"), ("workers", "x")],
    )
    def test_mistyped_checkpoint_field_read_as_absent(self, tmp_path, field, value):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        checkpoint = load_checkpoint(d)
        checkpoint[field] = value
        write_checkpoint(d, checkpoint)
        manifest = load_session_manifest(d)
        assert manifest.partial
        assert len(manifest.runs) == len(list(d.glob("run-*.jsonl"))) == 3
        assert inspect_session(d).partial

    def test_torn_run_file_skipped_with_note(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        torn = sorted(d.glob("run-*.jsonl"))[-1]
        torn.write_text(torn.read_text()[: 40])
        report = inspect_session(d)
        assert len(report.runs) == 2
        assert any(torn.name in note for note in report.skipped)

    def test_empty_dir_still_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_session_manifest(tmp_path / "nothing-here")


class TestResourceSampler:
    def test_sample_resources_shape(self):
        sample = sample_resources()
        assert sample["cpu_seconds"] >= 0
        assert "gc_collections" in sample

    def test_sampler_writes_lines_and_gauges(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        heartbeats = []
        ticks = []
        sampler = ResourceSampler(
            tmp_path, registry=registry, interval=10,
            emit=lambda **p: heartbeats.append(p), on_tick=lambda: ticks.append(1),
        )
        sampler.sample_once()
        sampler.sample_once()
        sampler.stop()
        samples = read_resource_jsonl(tmp_path / RESOURCE_FILENAME)
        assert len(samples) == 2
        assert len(heartbeats) == 2 and len(ticks) == 2
        summary = summarize_resources(samples)
        assert summary["samples"] == 2

    def test_on_tick_exceptions_swallowed(self, tmp_path):
        def boom():
            raise RuntimeError("never takes the sweep down")

        sampler = ResourceSampler(tmp_path, interval=10, on_tick=boom)
        sampler.sample_once()  # must not raise
        sampler.stop()
        # the sample itself still landed before the tick blew up
        assert len(read_resource_jsonl(tmp_path / RESOURCE_FILENAME)) == 1

    def test_resolve_interval(self, monkeypatch):
        from repro.errors import ConfigurationError
        from repro.obs.resource import DEFAULT_INTERVAL, RESOURCE_INTERVAL_ENV

        monkeypatch.delenv(RESOURCE_INTERVAL_ENV, raising=False)
        assert resolve_interval(None) == DEFAULT_INTERVAL
        assert resolve_interval(0.5) == 0.5
        monkeypatch.setenv(RESOURCE_INTERVAL_ENV, "2.5")
        assert resolve_interval(None) == 2.5
        monkeypatch.setenv(RESOURCE_INTERVAL_ENV, "nope")
        with pytest.raises(ConfigurationError):
            resolve_interval(None)

    def test_summarize_empty(self):
        assert summarize_resources([]) is None


def _history_record(exp="EXP-X", wall=1.0, t=0, **summary):
    return {
        "exp_id": exp,
        "unix_time": t,
        "provenance": collect_provenance(),
        "backend": "reference",
        "timings": {"wall_seconds": wall},
        "summary": summary or {"n": 4},
    }


class TestHistory:
    def test_record_from_result_fields(self):
        record = record_from_result({
            "exp_id": "EXP-T6",
            "timings": {"wall_seconds": 0.5, "phase_seconds": {"delivery": 0.1}},
            "summary": {"runs": 4, "title": "not-a-number", "ok": True},
        }, timestamp=123.0)
        assert record["exp_id"] == "EXP-T6"
        assert record["unix_time"] == 123.0
        assert record["summary"] == {"runs": 4}  # strings and bools dropped
        assert record["provenance"]["hostname"]

    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "deep" / "history.jsonl"
        append_history(path, _history_record(t=1))
        append_history(path, _history_record(t=2))
        with path.open("a") as fh:
            fh.write('{"torn')  # killed mid-append
        records = read_history(path)
        assert [r["unix_time"] for r in records] == [1, 2]

    def test_insufficient_entries_pass(self):
        records = [_history_record(t=i) for i in range(MIN_ENTRIES - 1)]
        trends, code = analyze_history(records)
        assert code == 0
        assert all(t.status == "insufficient" for t in trends)

    def test_steady_history_is_ok(self):
        records = [_history_record(wall=1.0, t=i) for i in range(6)]
        trends, code = analyze_history(records)
        assert code == 0
        wall = next(t for t in trends if t.metric == "wall")
        assert wall.status == "ok" and wall.window_median == 1.0

    def test_regression_flags_exit_1(self):
        records = [_history_record(wall=1.0, t=i) for i in range(5)]
        records.append(_history_record(wall=2.0, t=5))
        trends, code = analyze_history(records)
        assert code == 1
        assert next(t for t in trends if t.metric == "wall").status == "regression"

    def test_window_limits_comparison(self):
        # old slowness outside the window must not mask a regression
        records = [_history_record(wall=5.0, t=0)]
        records += [_history_record(wall=1.0, t=i) for i in range(1, 7)]
        records.append(_history_record(wall=2.0, t=7))
        trends, code = analyze_history(records, window=3)
        assert code == 1

    def test_improvement_is_not_a_regression(self):
        records = [_history_record(wall=2.0, t=i) for i in range(5)]
        records.append(_history_record(wall=1.0, t=5))
        trends, code = analyze_history(records)
        assert code == 0
        assert next(t for t in trends if t.metric == "wall").status == "improved"

    def test_summary_drift_flags(self):
        records = [_history_record(t=i, rows=7) for i in range(4)]
        records.append(_history_record(t=4, rows=8))
        trends, code = analyze_history(records)
        assert code == 1
        drifted = next(t for t in trends if t.metric == "summary[rows]")
        assert drifted.status == "drift"

    def test_experiments_trend_independently(self):
        records = [_history_record(exp="EXP-A", wall=1.0, t=i) for i in range(4)]
        records += [_history_record(exp="EXP-B", wall=3.0, t=i) for i in range(4)]
        trends, code = analyze_history(records)
        assert code == 0
        assert {t.exp_id for t in trends} == {"EXP-A", "EXP-B"}

    def test_empty_history_exit_2(self):
        trends, code = analyze_history([])
        assert trends == [] and code == 2

    def test_sparkline(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_render_names_the_window(self):
        records = [_history_record(wall=1.0, t=i) for i in range(6)]
        trends, _ = analyze_history(records, window=DEFAULT_WINDOW)
        text = render_history(trends, window=DEFAULT_WINDOW, threshold=0.25)
        assert "EXP-X" in text and "wall" in text
