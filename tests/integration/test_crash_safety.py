"""Crash safety: a SIGKILL'd streaming sweep leaves a loadable session.

The scenario the event stream exists for: a ``REPRO_WORKERS=2`` sweep
runs some cells to completion, then wedges on a pool whose workers
sleep for ten minutes and is SIGKILL'd — no atexit, no flush, no
manifest.  The partial session must load under ``inspect``, ``profile``
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
from repro.obs.inspect import inspect_session
from repro.obs.profile import profile_session
from repro.obs.resource import RESOURCE_FILENAME, read_resource_jsonl
from repro.obs.stream import (
    EVENTS_FILENAME,
    is_partial_session,
    load_session_manifest,
    read_events_jsonl,
)
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
    assert proc.returncode == -signal.SIGKILL
    return session_dir


class TestKilledSweep:
    def test_partial_session_detected(self, killed_session):
        assert is_partial_session(killed_session)
        assert not (killed_session / "manifest.json").exists()

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
        manifest = load_session_manifest(killed_session)
        assert manifest.partial
        assert len(manifest.runs) == len(_SEEDS)
        assert manifest.provenance.get("hostname")

    def test_inspect_loads_and_marks_partial(self, killed_session):
        report = inspect_session(killed_session)
        assert report.partial
        text = report.render()
        assert "PARTIAL" in text
        assert len(report.runs) == len(_SEEDS)

    def test_profile_reconstructs_prefix_spans(self, killed_session):
        profile = profile_session(killed_session)
        assert profile.partial
        assert profile.by_kind["run"].count == len(_SEEDS)

    def test_tail_reports_no_close_marker(self, killed_session):
        out = io.StringIO()
        assert tail_session(killed_session, out, follow=False) == 1
        text = out.getvalue()
        assert "no close marker" in text
        assert f"{len(_SEEDS)} runs" in text

    def test_resource_timeline_survived(self, killed_session):
        samples = read_resource_jsonl(killed_session / RESOURCE_FILENAME)
        assert samples, "sampler never ticked before the kill"
        assert all("rss_bytes" in s for s in samples)
