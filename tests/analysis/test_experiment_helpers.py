"""Tests for the experiment-harness helpers."""

from __future__ import annotations

import time

import pytest

from repro.analysis.experiments.base import ExperimentResult, run_grid
from repro.analysis.experiments.protocols import (
    exp_known_d_upper_bounds,
    measured_diameter,
)
from repro.errors import ConfigurationError
from repro.obs.runtime import observe
from repro.sim.config import RunConfig
from repro.sim.engine import ROUND_STAGES
from repro.network.adversaries import (
    OverlappingStarsAdversary,
    RotatingStarAdversary,
    StaticAdversary,
)
from repro.network.generators import line_edges


class TestMeasuredDiameter:
    def test_static_line(self):
        ids = list(range(1, 9))
        adv = StaticAdversary(ids, line_edges(ids))
        assert measured_diameter(adv) == len(ids) - 1

    def test_overlapping_stars(self):
        ids = list(range(1, 13))
        assert measured_diameter(OverlappingStarsAdversary(ids)) <= 3

    def test_rotating_star_theta_n(self):
        ids = list(range(1, 9))
        assert measured_diameter(RotatingStarAdversary(ids)) == len(ids) - 1


class TestExperimentResult:
    def test_render_contains_everything(self):
        r = ExperimentResult(
            exp_id="EXP-X",
            title="demo",
            headers=["a", "b"],
            rows=[[1, 2.5]],
            notes=["a note"],
            summary={"k": 7},
        )
        out = r.render()
        assert "[EXP-X] demo" in out
        assert "2.5" in out
        assert "summary: k=7" in out
        assert "note: a note" in out

    def test_empty_summary_and_notes(self):
        r = ExperimentResult(exp_id="EXP-Y", title="t", headers=["x"], rows=[[1]])
        out = r.render()
        assert "summary" not in out and "note" not in out


def _echo(a):
    return (a,)


def _echo_backend(a, backend="reference"):
    return (a, backend)


def _fail_on_two(a):
    if a == 2:
        raise ConfigurationError("boom")
    return a


def _burn(seconds):
    """Spin for ``seconds`` of this process's CPU time."""
    start = time.process_time()
    while time.process_time() - start < seconds:
        pass
    return seconds


class TestRunGrid:
    def test_outcomes_come_back_by_row(self):
        timings = {}
        rows = run_grid("EXP-X", _echo, [[(1,), (2,)], [], [(3,)]],
                        RunConfig(workers=0), timings)
        assert rows == [[(1,), (2,)], [], [(3,)]]
        assert set(timings) == {"wall_seconds", "cpu_seconds", "tasks", "workers"}
        assert timings["tasks"] == 3 and timings["workers"] == 0

    def test_backend_reaches_only_cells_that_declare_it(self):
        rows = run_grid("EXP-X", [_echo, _echo_backend], [[(1,)], [(2,)]],
                        RunConfig(workers=0, backend="batch"), {})
        assert rows == [[(1,)], [(2, "batch")]]

    def test_pooled_failure_is_labelled_by_parameter_names(self):
        with pytest.raises(ConfigurationError, match=r"boom \[parallel worker: a=2\]"):
            run_grid("EXP-X", _fail_on_two, [[(1,), (2,)]], RunConfig(workers=2), {})

    def test_pooled_cpu_seconds_count_the_workers(self):
        timings = {}
        before = time.process_time()
        run_grid("EXP-X", _burn, [[(0.3,), (0.3,)]], RunConfig(workers=2), timings)
        parent = time.process_time() - before
        assert timings["workers"] == 2
        # the two workers spent >= 0.6 s that the parent's clock never saw
        assert timings["cpu_seconds"] >= parent + 0.5

    def test_session_keeps_the_grid_wall_and_cpu(self):
        config = RunConfig(workers=0, cache="off")
        with observe() as session:
            result = exp_known_d_upper_bounds(sizes=(8,), seeds=(21,), config=config)
        grid = dict(result.timings)
        result.attach_session(session)
        assert result.timings["wall_seconds"] == grid["wall_seconds"]
        assert result.timings["cpu_seconds"] == grid["cpu_seconds"]
        assert result.timings["engine_runs"] == 5
        assert set(result.timings["phase_seconds"]) == set(ROUND_STAGES)
