"""The session log (events.jsonl), resource heartbeats, partial
sessions, and the benchmark history store.

The load-bearing properties:

* **one log, same content either way** — a persisting session leaves
  exactly ``events.jsonl`` plus its run files; streaming adds
  durability (fsync, heartbeats, checkpoints) and changes no trace
  fingerprint or deterministic metric counter (a Hypothesis property
  over seeds);
* **the loaded session is the recorded one** — the loader's span list
  equals the recorder's, inline and through the process pool;
* **crash-safety** — a log cut anywhere before ``session-close`` loads
  under ``report`` as a PARTIAL session holding the closed prefix;
* **trend analysis** — ``bench-diff`` over a history file flags the
  injected regression against a median-of-last-K window and nothing
  else.
"""

from __future__ import annotations

import io
import json
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.adversaries import RandomConnectedAdversary
from repro.obs import observe
from repro.obs.benchdiff import (
    DEFAULT_WINDOW,
    MIN_ENTRIES,
    append_history,
    diff_history,
    read_history,
    record_from_result,
    render_diff,
    sparkline,
)
from repro.obs.export import read_trace_jsonl
from repro.obs.manifest import collect_provenance
from repro.obs.progress import ProgressRenderer
from repro.obs.report import build_report
from repro.obs.resource import (
    ResourceSampler,
    resolve_interval,
    sample_resources,
    summarize_resources,
)
from repro.obs.stream import (
    EVENTS_FILENAME,
    STREAM_ENV,
    EventStream,
    load_session,
    read_events_jsonl,
    resolve_stream,
)
from repro.obs.tail import tail_session
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


def _streamed_session(tmp_path, seeds=(1, 2, 3), workers=0, name="stream", stream=True):
    d = tmp_path / name
    with observe(trace_dir=d, stream=stream, resource_interval=0, label=name) as s:
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


def _listing(directory):
    return sorted(p.name for p in directory.iterdir())


#: the smallest well-formed run-complete payload
_RUN = {"seed": 1, "num_nodes": 4, "adversary": "X"}


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
        stream.emit("run-complete", run=_RUN)
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
        stream.emit("run-complete", run=_RUN)
        # simulate a kill mid-write: append half a JSON line
        with path.open("a") as fh:
            fh.write('{"type": "run-com')
        events = read_events_jsonl(path)
        stream.close()
        assert [e["type"] for e in events] == ["stream-start", "run-complete"]

    def test_checkpoint_roundtrip_is_atomic(self, tmp_path):
        """A checkpoint is one log line: a live session's aggregates load
        back from it, and the log is the only file the session writes."""
        from repro.obs.runtime import ObservationSession

        session = ObservationSession(trace_dir=tmp_path, stream=True, resource_interval=0)
        session.registry.counter("a").inc(3)
        session.checkpoint()
        log = load_session(tmp_path)
        session.close()
        assert log.partial
        assert log.manifest.metrics["a"]["value"] == 3
        assert _listing(tmp_path) == [EVENTS_FILENAME]

    def test_corrupt_checkpoint_loads_none(self, tmp_path):
        """A checkpoint torn by a kill mid-write is skipped: no metrics."""
        path = tmp_path / EVENTS_FILENAME
        stream = EventStream(path, label="t")
        with path.open("a") as fh:
            fh.write('{"type": "checkpoint", "metrics": {"a": {"ty')
        log = load_session(tmp_path)
        stream.close()
        assert log.partial
        assert log.manifest.metrics == {}


class TestStreamingSession:
    def test_event_stream_written_and_manifest_links_it(self, tmp_path):
        d, session = _streamed_session(tmp_path)
        assert _listing(d) == [
            EVENTS_FILENAME, "run-0001.jsonl", "run-0002.jsonl", "run-0003.jsonl",
        ]
        events = read_events_jsonl(d / EVENTS_FILENAME)
        types = Counter(e["type"] for e in events)
        assert types["stream-start"] == 1
        assert types["run-complete"] == 3
        assert types["session-close"] == 1
        log = load_session(d)
        assert not log.partial
        assert log.manifest.provenance.get("hostname")
        assert log.manifest.provenance.get("python_version")
        assert log.manifest.metrics == session.manifest.metrics
        assert log.manifest.wall_seconds == session.manifest.wall_seconds
        assert [r.as_dict() for r in log.manifest.runs] == [
            r.as_dict() for r in session.manifest.runs
        ]

    def test_progress_events_streamed(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        events = read_events_jsonl(d / EVENTS_FILENAME)
        progress = [e for e in events if e["type"] == "progress"]
        assert {e["phase"] for e in progress} >= {"begin", "advance", "finish"}
        # live state: mid-flight the outermost scope shows done/total,
        # and the finish event pops it (a closed session tails to {})
        renderer = ProgressRenderer()
        for event in progress:
            if event["phase"] != "finish":
                renderer.feed(event, event["elapsed"])
        outer = renderer.scopes[min(renderer.scopes)]
        assert (outer["done"], outer["total"]) == (3, 3)
        for event in progress:
            if event["phase"] == "finish":
                renderer.feed(event, event["elapsed"])
        assert renderer.scopes == {}

    def test_spans_from_events_match_recorder(self, tmp_path):
        """The loaded span tree is the recorded one, ids and all — also
        when the runs (and their protocol tags) come from pool workers."""
        for workers in (0, 2):
            d, session = _streamed_session(
                tmp_path, workers=workers, name=f"w{workers}"
            )
            loaded = load_session(d).spans
            assert [sp.as_dict() for sp in loaded] == [
                sp.as_dict() for sp in session.spans.spans
            ]
            runs = [sp for sp in loaded if sp.kind == "run"]
            assert len(runs) == 3
            assert {sp.tags.get("protocol") for sp in runs} == {"TokenFloodNode"}
            assert [sp for sp in loaded if sp.parent_id is None] == loaded[:1]

    def test_cut_log_loads_the_closed_prefix(self, tmp_path):
        """Cut after the third run: the sweep and the open cell never
        closed, so their closed children are roots, and nothing else is."""
        from repro.analysis.experiments.protocols import exp_known_d_upper_bounds

        d = tmp_path / "cut"
        with observe(trace_dir=d, stream=False) as session:
            exp_known_d_upper_bounds(sizes=(8,), seeds=(21,), config=RunConfig(workers=0))
        path = d / EVENTS_FILENAME
        lines = path.read_text().splitlines(keepends=True)
        events = [json.loads(line) for line in lines]
        cut = [i for i, e in enumerate(events) if e["type"] == "run-complete"][2] + 1
        path.write_text("".join(lines[:cut]))
        closed = {
            e["span"]["span_id"] for e in events[:cut] if e["type"] == "span-close"
        }
        expected = []
        for sp in session.spans.spans:
            if sp.span_id in closed:
                data = sp.as_dict()
                if data["parent_id"] not in closed:
                    data["parent_id"] = None
                expected.append(data)

        log = load_session(d)
        assert log.partial
        assert len(log.manifest.runs) == 3
        assert [sp.as_dict() for sp in log.spans] == expected
        roots = [sp for sp in log.spans if sp.parent_id is None]
        assert [sp.kind for sp in roots] == ["cell", "cell", "run"]
        profile = build_report(d)
        assert profile.partial
        assert 0.0 < profile.coverage <= 1.0

    def test_unstreamed_session_writes_the_same_log(self, tmp_path):
        plain, _ = _streamed_session(tmp_path, name="plain", stream=False)
        streamed, _ = _streamed_session(tmp_path, name="streamed")
        assert _listing(plain) == _listing(streamed)
        durable_only = {"checkpoint", "heartbeat"}

        def shape(directory):
            return [e["type"] for e in read_events_jsonl(directory / EVENTS_FILENAME)
                    if e["type"] not in durable_only]

        assert shape(plain) == shape(streamed)
        types = {e["type"] for e in read_events_jsonl(plain / EVENTS_FILENAME)}
        assert not types & durable_only
        assert not load_session(plain).partial

    def test_reused_directory_holds_only_the_second_session(self, tmp_path):
        d = tmp_path / "reused"
        for label, seeds in (("first", (1, 2, 3)), ("second", (4,))):
            with observe(trace_dir=d, stream=True, resource_interval=0, label=label):
                _token_replicate(seeds)
        events = read_events_jsonl(d / EVENTS_FILENAME)
        assert Counter(e["type"] for e in events)["stream-start"] == 1
        log = load_session(d)
        assert log.manifest.label == "second"
        assert [r.seed for r in log.manifest.runs] == [4]
        out = io.StringIO()
        assert tail_session(d, out, follow=False) == 0
        text = out.getvalue()
        assert "session second" in text and "first" not in text
        assert "tail: 1 runs — closed cleanly" in text
        # the first session's run-0002/0003 went with its log
        assert sorted(p.name for p in d.iterdir()) == [EVENTS_FILENAME, "run-0001.jsonl"]

    def test_collect_sessions_never_stream(self, tmp_path, monkeypatch):
        from repro.obs.runtime import ObservationSession

        monkeypatch.setenv(STREAM_ENV, "1")
        session = ObservationSession(collect=True)
        assert not session.streaming
        session.close()

    def test_concurrent_checkpoints_never_raise(self, tmp_path):
        """The resource sampler and the main thread both checkpoint.

        Both write through the log's one lock: no exception, every line
        decodes, and ``seq`` runs 1..N.  Half the threads go through the
        rate-limited path the sampler uses, half through the direct call.
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
        events = [json.loads(line)
                  for line in (d / EVENTS_FILENAME).read_text().splitlines()]
        assert [e["seq"] for e in events] == list(range(1, len(events) + 1))
        # every direct call logs; a rate-limited call may see another
        # thread's newer stamp and skip (the limit is best-effort)
        direct = threads_n // 2 * calls
        checkpoints = Counter(e["type"] for e in events)["checkpoint"]
        assert direct <= checkpoints <= threads_n * calls
        assert not load_session(d).partial


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
    """Turn a cleanly closed session into a killed-looking one."""
    events = directory / EVENTS_FILENAME
    lines = events.read_text().splitlines()
    assert json.loads(lines[-1])["type"] == "session-close"
    events.write_text("\n".join(lines[:-1]) + "\n")


class TestPartialSession:
    def test_detection_and_synthesis(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        assert not load_session(d).partial
        _make_partial(d)
        before = _listing(d)
        log = load_session(d)
        assert log.partial
        assert len(log.manifest.runs) == 3
        # loading never writes anything back
        assert _listing(d) == before

    def test_inspect_marks_partial(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        report = build_report(d)
        assert report.partial
        text = report.render()
        assert "PARTIAL" in text
        assert "run-0001" in text

    def test_profile_reconstructs_spans(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        profile = build_report(d)
        assert profile.partial
        assert profile.by_kind["run"].count == 3
        assert "PARTIAL" in profile.render()

    def test_stale_checkpoint_never_shadows_fresher_events(self, tmp_path):
        d, session = _streamed_session(tmp_path)
        _make_partial(d)
        events = read_events_jsonl(d / EVENTS_FILENAME)
        checkpoints = [e for e in events if e["type"] == "checkpoint"]
        # rate limiting means the last checkpoint may lag the runs...
        assert checkpoints
        assert checkpoints[-1]["runs"] <= session.num_runs
        # ...but runs come from run-complete events, aggregates from the
        # last checkpoint (recoverable, not zeroed)
        log = load_session(d)
        assert len(log.manifest.runs) == session.num_runs == 3
        assert log.manifest.metrics == checkpoints[-1]["metrics"]
        assert log.manifest.label == "stream"

    @pytest.mark.parametrize(
        "field, value",
        [("metrics", 5), ("provenance", 5), ("wall_seconds", "x"), ("workers", "x")],
    )
    def test_mistyped_checkpoint_field_read_as_absent(self, tmp_path, field, value):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        events = read_events_jsonl(d / EVENTS_FILENAME)
        carriers = [e for e in events if field in e]
        assert carriers
        for event in carriers:
            event[field] = value
        (d / EVENTS_FILENAME).write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )
        log = load_session(d)
        assert log.partial
        assert len(log.manifest.runs) == len(list(d.glob("run-*.jsonl"))) == 3
        absent = {"metrics": {}, "provenance": {}, "workers": 0}
        if field in absent:
            assert getattr(log.manifest, field) == absent[field]
        else:  # a cut session's wall clock is its last event's
            assert log.manifest.wall_seconds == events[-1]["elapsed"]
        assert build_report(d).partial

    def test_torn_run_file_skipped_with_note(self, tmp_path):
        d, _ = _streamed_session(tmp_path)
        _make_partial(d)
        torn = sorted(d.glob("run-*.jsonl"))[-1]
        torn.write_text(torn.read_text()[: 40])
        report = build_report(d)
        assert len(report.runs) == 2
        assert any(torn.name in note for note in report.skipped)

    def test_empty_dir_still_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_session(tmp_path / "nothing-here")
        with pytest.raises(ValueError, match="not an observation session"):
            load_session(tmp_path)


class TestResourceSampler:
    def test_sample_resources_shape(self):
        sample = sample_resources()
        assert sample["cpu_seconds"] >= 0
        assert "gc_collections" in sample

    def test_sampler_writes_lines_and_gauges(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        heartbeats = []
        ticks = []
        sampler = ResourceSampler(
            registry=registry, interval=10,
            emit=lambda **p: heartbeats.append(p), on_tick=lambda: ticks.append(1),
        )
        sampler.sample_once()
        sampler.sample_once()
        sampler.stop()
        assert len(heartbeats) == 2 and len(ticks) == 2
        assert set(heartbeats[0]) >= {
            "rss_bytes", "cpu_seconds", "cpu_percent", "gc_collections",
            "gc_collected", "gc_counts",
        }
        assert registry.gauge("process_cpu_percent").value == heartbeats[-1]["cpu_percent"]
        summary = summarize_resources(heartbeats)
        assert summary["samples"] == 2

    def test_on_tick_exceptions_swallowed(self):
        def boom():
            raise RuntimeError("never takes the sweep down")

        heartbeats = []
        sampler = ResourceSampler(
            interval=10, emit=lambda **p: heartbeats.append(p), on_tick=boom
        )
        sampler.sample_once()  # must not raise
        sampler.stop()
        # the heartbeat itself still landed before the tick blew up
        assert len(heartbeats) == 1

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
        diffs, code = diff_history(records)
        assert code == 0
        assert [d.status for d in diffs] == ["insufficient"]

    def test_steady_history_is_ok(self):
        records = [_history_record(wall=1.0, t=i) for i in range(6)]
        diffs, code = diff_history(records)
        assert code == 0
        assert diffs[0].status == "ok" and diffs[0].old_wall == 1.0
        assert diffs[0].baseline == DEFAULT_WINDOW

    def test_regression_flags_exit_1(self):
        records = [_history_record(wall=1.0, t=i) for i in range(5)]
        records.append(_history_record(wall=2.0, t=5))
        diffs, code = diff_history(records)
        assert code == 1
        assert diffs[0].status == "regression"
        assert diffs[0].details == ["wall: 1.000s -> 2.000s (+100%)"]

    def test_window_limits_comparison(self):
        # old slowness outside the window must not mask a regression
        records = [_history_record(wall=5.0, t=0)]
        records += [_history_record(wall=1.0, t=i) for i in range(1, 7)]
        records.append(_history_record(wall=2.0, t=7))
        diffs, code = diff_history(records, window=3)
        assert code == 1

    def test_improvement_is_not_a_regression(self):
        records = [_history_record(wall=2.0, t=i) for i in range(5)]
        records.append(_history_record(wall=1.0, t=5))
        diffs, code = diff_history(records)
        assert code == 0
        assert diffs[0].status == "improved"

    def test_summary_drift_flags(self):
        records = [_history_record(t=i, rows=7) for i in range(4)]
        records.append(_history_record(t=4, rows=8))
        diffs, code = diff_history(records)
        assert code == 1
        assert diffs[0].status == "drift"
        assert diffs[0].details == ["summary[rows]: 7 -> 8"]

    def test_experiments_trend_independently(self):
        records = [_history_record(exp="EXP-A", wall=1.0, t=i) for i in range(4)]
        records += [_history_record(exp="EXP-B", wall=3.0, t=i) for i in range(4)]
        diffs, code = diff_history(records)
        assert code == 0
        assert {d.exp_id for d in diffs} == {"EXP-A", "EXP-B"}

    def test_empty_history_exit_2(self):
        diffs, code = diff_history([])
        assert diffs == [] and code == 2

    def test_sparkline(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_render_names_the_window(self):
        records = [_history_record(wall=1.0, t=i) for i in range(6)]
        diffs, _ = diff_history(records, window=DEFAULT_WINDOW)
        text = render_diff(diffs, threshold=0.25, window=DEFAULT_WINDOW)
        assert "EXP-X" in text and "wall" in text
        assert f"median of the last {DEFAULT_WINDOW} records" in text
