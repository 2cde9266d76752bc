"""Worker-level faults: crash/hang degradation in ParallelExecutor.

The PR-3 contract (tests/sim/test_parallel.py) still holds: ordinary
task exceptions re-raise immediately with the task's label and are never
retried.  These tests cover the degradation extension — a worker process
dying or hanging is absorbed by ``retries`` on a rebuilt pool (the
``worker-crash`` and ``worker-hang`` rows of ``test_detection.py``), and
when retries are exhausted the failure surfaces as
:class:`~repro.errors.ParallelExecutionError` naming the task's label,
never a bare ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.sim.parallel import ParallelExecutor

from .injectors import crashy_task, hangy_task


def always_crash(value: int) -> int:
    os.kill(os.getpid(), signal.SIGKILL)
    return value  # pragma: no cover - never reached


def always_raise(value: int) -> int:
    raise RuntimeError(f"deterministic failure for {value}")


def square(value: int) -> int:
    return value * value


@pytest.fixture
def marker(tmp_path):
    path = tmp_path / "fault.marker"
    path.write_text("armed\n")
    return path


class TestCrashDegradation:
    def test_crash_without_retries_names_the_label(self, marker):
        executor = ParallelExecutor(workers=2, retries=0)
        with pytest.raises(ParallelExecutionError) as err:
            executor.map(
                crashy_task,
                [(str(marker), i) for i in range(2)],
                labels=["seed=0", "seed=1"],
            )
        assert "seed=" in str(err.value)

    def test_retries_exhausted_surfaces_with_label(self):
        executor = ParallelExecutor(workers=2, retries=1)
        with pytest.raises(ParallelExecutionError) as err:
            executor.map(always_crash, [(1,), (2,)], labels=["cell=a", "cell=b"])
        message = str(err.value)
        assert "retries exhausted" in message
        assert "cell=" in message
        assert "BrokenProcessPool" not in message


class TestHangDegradation:
    def test_hang_without_retries_surfaces_with_label(self, marker):
        executor = ParallelExecutor(workers=2, retries=0, task_timeout=2.0)
        with pytest.raises(ParallelExecutionError) as err:
            executor.map(
                hangy_task,
                [(str(marker), i, 600.0) for i in range(2)],
                labels=["seed=0", "seed=1"],
            )
        message = str(err.value)
        assert "task_timeout" in message and "seed=" in message


class TestDegradedPathContracts:
    def test_ordinary_exception_is_never_retried(self):
        # retries apply to worker-level faults only; a deterministic
        # task exception re-raises immediately with its label (PR-3).
        executor = ParallelExecutor(workers=2, retries=3, task_timeout=30.0)
        with pytest.raises(RuntimeError) as err:
            executor.map(always_raise, [(7,)], labels=["seed=7"])
        assert "seed=7" in str(err.value)
        assert executor.degradations == []

    def test_degraded_path_preserves_results_and_order(self):
        executor = ParallelExecutor(workers=2, retries=1, task_timeout=30.0)
        results = executor.map(square, [(i,) for i in range(6)])
        assert results == [i * i for i in range(6)]
        assert executor.degradations == []

    def test_clean_run_matches_fast_path(self):
        fast = ParallelExecutor(workers=2).map(square, [(i,) for i in range(5)])
        degraded = ParallelExecutor(workers=2, retries=2, task_timeout=60.0).map(
            square, [(i,) for i in range(5)]
        )
        assert fast == degraded == [i * i for i in range(5)]

    def test_invalid_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(workers=2, retries=-1)

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(workers=2, task_timeout=0)

    def test_inline_mode_ignores_degradation_options(self):
        executor = ParallelExecutor(workers=0, retries=2, task_timeout=1.0)
        assert executor.map(square, [(3,)]) == [9]
        assert executor.degradations == []
