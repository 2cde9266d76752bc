"""``repro tail``: following a live session's event stream.

The renderer is exercised on synthetic events; the follower is
exercised with injected clock/sleep hooks so a "live" writer is just a
callback appending lines between polls — no real time passes.
"""

from __future__ import annotations

import io
import json
import pathlib

import pytest

from repro.obs import observe
from repro.obs.stream import EVENTS_FILENAME
from repro.obs.tail import TailRenderer, iter_event_lines, tail_session


#: what the session log's decoder requires of these event types
_REQUIRED = {
    "stream-start": {"format_version": 2},
    "run-complete": {"run": {"seed": 1, "num_nodes": 4, "adversary": "X"}},
}


def _line(type_, seq=0, elapsed=0.0, **payload):
    payload = {**_REQUIRED.get(type_, {}), **payload}
    return json.dumps({"type": type_, "seq": seq, "elapsed": elapsed, **payload})


def _write(path, *lines, mode="a"):
    with path.open(mode) as fh:
        for raw in lines:
            fh.write(raw + "\n")


class FakeTimer:
    """Deterministic clock + sleep: each sleep advances the clock and
    runs an optional callback (the 'writer')."""

    def __init__(self, on_sleep=None):
        self.now = 0.0
        self.sleeps = 0
        self.on_sleep = on_sleep

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds
        self.sleeps += 1
        if self.on_sleep is not None:
            self.on_sleep(self.sleeps)


class TestIterEventLines:
    def test_no_follow_reads_to_eof(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        _write(path, _line("stream-start"), _line("run-complete", seq=1))
        events = list(iter_event_lines(path, follow=False))
        assert [e["type"] for e in events] == ["stream-start", "run-complete"]

    def test_stops_at_session_close(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        _write(path, _line("session-close"), _line("never-seen"))
        events = list(iter_event_lines(path, follow=False))
        assert [e["type"] for e in events] == ["session-close"]

    def test_malformed_complete_line_names_the_line(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        _write(path, _line("stream-start"), _line("span-close", span={"kind": "cell"}))
        with pytest.raises(ValueError, match="line 2: field 'span.span_id' is missing"):
            list(iter_event_lines(path, follow=False))

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        _write(path, _line("stream-start"))
        with path.open("a") as fh:
            fh.write('{"type": "run-co')  # killed mid-write
        events = list(iter_event_lines(path, follow=False))
        assert [e["type"] for e in events] == ["stream-start"]

    def test_follow_picks_up_lines_written_between_polls(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        _write(path, _line("stream-start"))

        def writer(nth_sleep):
            if nth_sleep == 2:
                _write(path, _line("run-complete", seq=1))
            if nth_sleep == 4:
                _write(path, _line("session-close", seq=2))

        timer = FakeTimer(on_sleep=writer)
        events = list(iter_event_lines(
            path, follow=True, poll=0.2, timeout=60,
            clock=timer.clock, sleep=timer.sleep,
        ))
        assert [e["type"] for e in events] == [
            "stream-start", "run-complete", "session-close",
        ]

    def test_mid_line_write_buffered_until_newline(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        half = _line("run-complete", seq=1)

        def writer(nth_sleep):
            if nth_sleep == 1:
                with path.open("a") as fh:
                    fh.write(half[:10])
            if nth_sleep == 2:
                with path.open("a") as fh:
                    fh.write(half[10:] + "\n")
                _write(path, _line("session-close", seq=2))

        _write(path, _line("stream-start"))
        timer = FakeTimer(on_sleep=writer)
        events = list(iter_event_lines(
            path, follow=True, poll=0.2, timeout=60,
            clock=timer.clock, sleep=timer.sleep,
        ))
        assert [e["type"] for e in events] == [
            "stream-start", "run-complete", "session-close",
        ]

    def test_timeout_drains_flushed_tail(self, tmp_path):
        # lines flushed just before the writer died must still be seen
        path = tmp_path / EVENTS_FILENAME
        _write(path, _line("stream-start"))

        def writer(nth_sleep):
            if nth_sleep == 1:
                _write(path, _line("run-complete", seq=1))
                timer.now += 100  # then the writer dies: stream goes quiet

        timer = FakeTimer(on_sleep=writer)
        events = list(iter_event_lines(
            path, follow=True, poll=0.2, timeout=5,
            clock=timer.clock, sleep=timer.sleep,
        ))
        assert [e["type"] for e in events] == ["stream-start", "run-complete"]


class TestTailRenderer:
    def test_run_fault_and_close_lines(self):
        r = TailRenderer()
        assert not r.render({"type": "heartbeat"})  # quiet unless verbose
        run = {"adversary": "Spooler", "num_nodes": 8, "seed": 3,
               "backend": "reference", "wall_seconds": 0.01}
        (line,) = r.render({"type": "run-complete", "run": run})
        assert "Spooler" in line and "n=8" in line and "seed=3" in line
        # older sessions streamed fault events; tail now skips them
        assert r.render({"type": "fault",
                         "fault": {"fault": "worker-crash", "layer": "executor"}}) == []
        (line,) = r.render({"type": "session-close", "runs": 1,
                            "wall_seconds": 0.5})
        assert "closed" in line
        assert r.closed and "closed cleanly" in r.summary()

    def test_progress_outer_scope_renders_rate_and_eta(self):
        r = TailRenderer()
        assert r.render({"type": "progress", "phase": "begin", "depth": 1,
                         "total": 4, "unit": "cells", "elapsed": 0.0}) == []
        lines = r.render({"type": "progress", "phase": "advance", "depth": 1,
                          "label": "q=25", "elapsed": 1.0})
        assert lines and "1/4" in lines[0]
        # inner scopes stay quiet
        r.render({"type": "progress", "phase": "begin", "depth": 2,
                  "total": 3, "unit": "runs", "elapsed": 1.0})
        assert r.render({"type": "progress", "phase": "advance", "depth": 2,
                         "elapsed": 1.1}) == []

    def test_unclosed_summary_says_killed(self):
        r = TailRenderer()
        r.render({"type": "stream-start", "label": "x", "pid": 1})
        assert "no close marker" in r.summary()


class TestTailSession:
    def test_closed_session_exits_zero(self, tmp_path):
        from repro.network.adversaries import RandomConnectedAdversary
        from repro.protocols.flooding import TokenFloodNode
        from repro.sim.config import RunConfig
        from repro.sim.factories import BoundNode, Constant, NodeSet
        from repro.sim.runner import replicate

        d = tmp_path / "sess"
        with observe(trace_dir=d, stream=True, resource_interval=0):
            ids = tuple(range(4))
            replicate(
                NodeSet(ids, BoundNode(TokenFloodNode, source=ids[0])),
                Constant(RandomConnectedAdversary(list(ids), seed=7)),
                seeds=(1,),
                config=RunConfig(max_rounds=16, workers=0, backend="reference"),
            )
        out = io.StringIO()
        assert tail_session(d, out, follow=False) == 0
        text = out.getvalue()
        assert "closed cleanly" in text and "run" in text

    def test_killed_session_exits_one(self, tmp_path):
        _write(tmp_path / EVENTS_FILENAME,
               _line("stream-start"), _line("run-complete", seq=1))
        out = io.StringIO()
        assert tail_session(tmp_path, out, follow=False) == 1
        assert "no close marker" in out.getvalue()

    def test_no_stream_raises_for_exit_two(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=f"no {EVENTS_FILENAME}"):
            tail_session(tmp_path, io.StringIO(), follow=False)

    def test_waits_for_stream_to_appear(self, tmp_path):
        def writer(nth_sleep):
            if nth_sleep == 2:
                _write(tmp_path / EVENTS_FILENAME,
                       _line("stream-start"), _line("session-close", seq=1))

        timer = FakeTimer(on_sleep=writer)
        out = io.StringIO()
        code = tail_session(
            tmp_path, out, follow=True, poll=0.2, timeout=30,
            clock=timer.clock, sleep=timer.sleep,
        )
        assert code == 0 and "closed cleanly" in out.getvalue()
