"""Crash safety: a SIGKILL'd streaming sweep leaves a loadable session.

The scenario durable streaming exists for: a ``REPRO_WORKERS=2`` sweep
runs some cells to completion, then wedges on a pool whose workers
sleep for ten minutes and is SIGKILL'd — no atexit, no flush, no
``session-close``.  The partial session must load under ``report``
and ``tail``, showing exactly the completed prefix.
"""

from __future__ import annotations

import io
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.obs.export import read_trace_jsonl
from repro.obs.report import build_report
from repro.obs.stream import EVENTS_FILENAME, load_session, read_events_jsonl
from repro.obs.tail import tail_session

_SEEDS = (1, 2, 3)

# Completed prefix first (a 2-worker replicate, streamed), then wedge on
# a hung 2-worker pool inside the still-open session, and wait to die.
_VICTIM = """
import pathlib, sys, time

from repro.network.adversaries import RandomConnectedAdversary
from repro.obs import observe
from repro.protocols.flooding import TokenFloodNode
from repro.sim.config import RunConfig
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.parallel import ParallelExecutor
from repro.sim.runner import replicate

session_dir, ready_path = map(pathlib.Path, sys.argv[1:3])
with observe(trace_dir=session_dir, stream=True, resource_interval=0.02):
    ids = tuple(range(5))
    replicate(
        NodeSet(ids, BoundNode(TokenFloodNode, source=ids[0])),
        Constant(RandomConnectedAdversary(list(ids), seed=7)),
        seeds=%r,
        config=RunConfig(max_rounds=16, workers=2, backend="reference"),
    )
    ready_path.write_text("prefix-complete")
    ParallelExecutor(workers=2).map(time.sleep, [(600.0,), (600.0,)])
""" % (_SEEDS,)


def _await(path: pathlib.Path, proc, timeout=90.0):
    t0 = time.monotonic()
    while not path.exists():
        if proc.poll() is not None:
            raise AssertionError(
                f"victim exited early (rc={proc.returncode}):\n"
                + proc.stderr.read().decode()
            )
        if time.monotonic() - t0 > timeout:
            proc.kill()
            raise AssertionError(f"timed out waiting for {path}")
        time.sleep(0.05)


@pytest.fixture(scope="module")
def killed_session(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("crash")
    session_dir = tmp / "session"
    ready = tmp / "ready"
    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(__file__).resolve().parents[2] / "src"
    ))
    env.pop("REPRO_STREAM", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _VICTIM, str(session_dir), str(ready)],
        env=env, start_new_session=True, stderr=subprocess.PIPE,
    )
    try:
        _await(ready, proc)
        # let the pool wedge on the hung task and the sampler tick
        time.sleep(0.5)
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait(timeout=30)
        proc.stderr.close()
    assert proc.returncode == -signal.SIGKILL
    return session_dir


class TestKilledSweep:
    def test_partial_session_detected(self, killed_session):
        assert load_session(killed_session).partial
        assert sorted(p.name for p in killed_session.iterdir()) == [
            EVENTS_FILENAME, "run-0001.jsonl", "run-0002.jsonl", "run-0003.jsonl",
        ]

    def test_events_match_completed_prefix(self, killed_session):
        events = read_events_jsonl(killed_session / EVENTS_FILENAME)
        assert events[0]["type"] == "stream-start"
        assert all(e["type"] != "session-close" for e in events)
        streamed_seeds = sorted(
            e["run"]["seed"] for e in events if e["type"] == "run-complete"
        )
        assert streamed_seeds == sorted(_SEEDS)
        # every streamed run's file is present and readable
        file_seeds = sorted(
            read_trace_jsonl(p).manifest.seed
            for p in killed_session.glob("run-*.jsonl")
        )
        assert file_seeds == streamed_seeds

    def test_manifest_synthesized_with_every_run(self, killed_session):
        log = load_session(killed_session)
        assert log.partial
        assert len(log.manifest.runs) == len(_SEEDS)
        assert log.manifest.provenance.get("hostname")
        # the checkpoint after the first run kept the aggregates
        assert log.manifest.metrics

    def test_inspect_loads_and_marks_partial(self, killed_session):
        report = build_report(killed_session)
        assert report.partial
        text = report.render()
        assert "PARTIAL" in text
        assert len(report.runs) == len(_SEEDS)

    def test_profile_reconstructs_prefix_spans(self, killed_session):
        profile = build_report(killed_session)
        assert profile.partial
        assert profile.by_kind["run"].count == len(_SEEDS)
        assert profile.by_protocol["TokenFloodNode"].count == len(_SEEDS)
        assert 0.0 < profile.coverage <= 1.0

    def test_tail_reports_no_close_marker(self, killed_session):
        out = io.StringIO()
        assert tail_session(killed_session, out, follow=False) == 1
        text = out.getvalue()
        assert "no close marker" in text
        assert f"{len(_SEEDS)} runs" in text

    def test_resource_timeline_survived(self, killed_session):
        samples = load_session(killed_session).resources
        assert samples, "sampler never ticked before the kill"
        assert all(s["type"] == "heartbeat" and "rss_bytes" in s for s in samples)
