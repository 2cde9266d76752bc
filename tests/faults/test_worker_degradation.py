"""A worker process that dies surfaces with its task's label.

The contract of tests/sim/test_parallel.py holds for worker-level
faults too: a pool worker killed mid-task (SIGKILL, not an exception)
surfaces as :class:`~repro.errors.ParallelExecutionError` naming the
task's label, never as a bare ``BrokenProcessPool``.  This is the
``worker-crash`` row of ``test_detection.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import ParallelExecutionError
from repro.sim.parallel import ParallelExecutor

from .injectors import crashy_task


@pytest.fixture
def marker(tmp_path):
    path = tmp_path / "fault.marker"
    path.write_text("armed\n")
    return path


class TestCrashDegradation:
    def test_crash_without_retries_names_the_label(self, marker):
        executor = ParallelExecutor(workers=2)
        with pytest.raises(ParallelExecutionError) as err:
            executor.map(
                crashy_task,
                [(str(marker), i) for i in range(2)],
                labels=["seed=0", "seed=1"],
            )
        assert "seed=" in str(err.value)
