"""Deterministic parallel replication: process-pool fan-out for runs.

Every quantitative claim in the paper is measured as "time complexity
over average coin flips" — many independent seeded runs per parameter
cell — and every run is deterministic in its public seed.  Independent
deterministic runs are embarrassingly parallel, so this module fans them
out across a :class:`concurrent.futures.ProcessPoolExecutor` while
keeping the three guarantees that make the sweeps auditable:

* **bit-identical results** — each task is deterministic in its inputs
  (the whole simulator is seed-deterministic), and results are returned
  in *input* order regardless of completion order, so a parallel
  :func:`~repro.sim.runner.replicate` or
  :func:`~repro.analysis.sweep.cartesian_sweep` is indistinguishable
  from a sequential one;
* **merged observability** — when an ambient
  :func:`repro.obs.runtime.observe` session is active in the parent,
  each worker task runs under its own *collecting* session (fresh
  :class:`~repro.obs.metrics.MetricsRegistry`, per-run counters and
  stage timings, per-reduction :class:`~repro.obs.ledger.ProofLedger`) whose captured
  runs and metrics are shipped back and merged into the parent session
  in task order — counters add, gauges keep the last-task value,
  histograms merge, and traces/ledgers persist with the same
  ``run-NNNN`` numbering a sequential run would produce;
* **legible failures** — a worker exception is re-raised in the parent
  with its original type and the failing task's label (e.g. ``seed=7``
  or the sweep cell's parameters) appended to the message, never as a
  bare pool error; the worker traceback rides along as
  ``exc.worker_traceback``.

``workers=0`` means inline/sequential execution (the default); the
``REPRO_WORKERS`` environment variable supplies the default when no
explicit worker count is given, which is how the CLI ``--workers`` flag
and the benchmark suite opt whole sweeps in at once.  Worker processes
never nest pools: :func:`resolve_workers` returns 0 inside a worker.

The pool prefers the ``fork`` start method (cheap, inherits imports —
task functions defined in test modules just work); on platforms without
``fork`` the default context is used, which additionally requires task
functions and arguments to be importable from their module path.
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ParallelExecutionError

__all__ = [
    "WORKERS_ENV",
    "resolve_workers",
    "ParallelExecutor",
    "WorkerFailure",
]

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Set in pool workers (via the pool initializer) so that nested
#: ``resolve_workers`` calls — e.g. a replicate() inside a sweep cell —
#: always run inline instead of spawning pools of pools.
_IN_WORKER = False


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else ``REPRO_WORKERS``, else 0.

    0 means inline/sequential execution.  Inside a pool worker the answer
    is always 0, whatever was requested — parallelism never nests.
    """
    if _IN_WORKER:
        return 0
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 0
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV}={raw!r} is not an integer worker count"
            ) from None
    workers = int(workers)
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    return workers


class WorkerFailure:
    """A worker exception, flattened into something that always pickles.

    ``exc_class`` is the original exception class when it can cross the
    process boundary (importable, picklable), else ``None``; the
    qualified name and message survive either way.
    """

    __slots__ = ("exc_class", "type_name", "message", "traceback_text", "label")

    def __init__(self, exc: BaseException, label: str):
        cls: Optional[type] = type(exc)
        try:
            pickle.dumps(cls)
        except Exception:
            cls = None
        self.exc_class = cls
        self.type_name = type(exc).__name__
        self.message = str(exc)
        self.traceback_text = traceback.format_exc()
        self.label = label

    def reraise(self) -> "NoReturn":  # type: ignore[name-defined]  # noqa: F821
        """Raise the original exception type with the task label appended."""
        message = f"{self.message} [parallel worker: {self.label}]"
        exc: Optional[BaseException] = None
        if self.exc_class is not None:
            try:
                exc = self.exc_class(message)
            except Exception:
                # constructor with mandatory extra arguments — fall through
                exc = None
        if exc is None:
            exc = ParallelExecutionError(f"{self.type_name}: {message}")
        try:
            exc.worker_label = self.label  # type: ignore[attr-defined]
            exc.worker_traceback = self.traceback_text  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - exceptions with __slots__
            pass
        raise exc


def _worker_init() -> None:
    """Pool initializer: mark the process and drop inherited sessions.

    With the ``fork`` start method a worker inherits the parent's module
    state, including any active observation-session stack; a worker must
    never write to the parent's session (the parent merges instead), and
    must never start its own nested pool.
    """
    global _IN_WORKER
    _IN_WORKER = True
    from ..obs import progress, runtime

    runtime._SESSIONS.clear()
    # Likewise inherited progress reporters: the parent is the single
    # writer of progress output; workers stay silent.
    progress._REPORTERS.clear()
    progress._DEPTH = 0


def _guarded_call(
    fn: Callable[..., Any], args: Tuple, capture: bool, label: str
) -> Tuple[str, Any, Any]:
    """Run one task in a worker; never lets an exception escape unpickled.

    Returns ``("ok", result, observations-or-None)`` or
    ``("err", WorkerFailure, None)``.  With ``capture`` a collecting
    observation session wraps the call, so engines and reductions inside
    the task record traces/ledgers/metrics exactly as they would under
    the parent's session; the capture ships back for ordered merging.
    """
    try:
        if capture:
            from ..obs.runtime import worker_capture

            with worker_capture() as session:
                result = fn(*args)
            return ("ok", result, session.export_worker_observations())
        return ("ok", fn(*args), None)
    except Exception as exc:
        return ("err", WorkerFailure(exc, label), None)


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def ensure_picklable(**named: Any) -> Optional[str]:
    """Name of the first argument that cannot cross a process boundary.

    Returns ``None`` when everything pickles.  Used by callers that want
    to degrade gracefully (``replicate`` falls back to inline execution
    for closure factories) instead of failing at submit time.
    """
    for name, value in named.items():
        try:
            pickle.dumps(value)
        except Exception:
            return name
    return None


class ParallelExecutor:
    """Fans deterministic tasks out over a process pool, in input order.

    ``workers`` is the process count; ``None`` defers to
    ``REPRO_WORKERS``, and 0 runs inline.  Inline mode calls each task
    in the calling process — ambient observation sessions apply
    natively and exceptions propagate untouched, so it *is* the
    sequential baseline.

    ``map`` is the whole API: results come back in task order, worker
    observability is merged into the parent's active session in task
    order, and the first failing task (in input order) raises with its
    label attached.  A worker process that dies (say, SIGKILLed)
    surfaces as :class:`~repro.errors.ParallelExecutionError` naming
    the task's label; a hung worker is not timed out.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Tuple],
        labels: Optional[Sequence[str]] = None,
        capture: Optional[bool] = None,
    ) -> List[Any]:
        """Run ``fn(*task)`` for every task, returning results in order.

        ``labels`` name tasks in failure messages (default: the task's
        repr).  ``capture`` forces worker-side observability capture on
        or off; by default it is on exactly when an ambient observation
        session is active in the parent.
        """
        from ..obs.progress import report_advance

        tasks = [tuple(t) for t in tasks]
        if labels is None:
            labels = [repr(t) for t in tasks]
        if len(labels) != len(tasks):
            raise ConfigurationError("labels must match tasks one to one")
        if self.workers == 0:
            results_inline: List[Any] = []
            for args, label in zip(tasks, labels):
                results_inline.append(fn(*args))
                report_advance(label=label)
            return results_inline

        from concurrent.futures import ProcessPoolExecutor

        from ..obs.runtime import current_session

        session = current_session()
        if capture is None:
            capture = session is not None
        results: List[Any] = []
        with ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_mp_context(),
            initializer=_worker_init,
        ) as pool:
            futures = [
                pool.submit(_guarded_call, fn, args, capture, label)
                for args, label in zip(tasks, labels)
            ]
            # Input order, not completion order: determinism of both
            # the result list and the session's run numbering.
            for future, label in zip(futures, labels):
                try:
                    status, payload, observations = future.result()
                except Exception as exc:
                    raise ParallelExecutionError(
                        f"worker for [{label}] failed before returning a "
                        f"result (unpicklable task function/arguments, or a "
                        f"crashed worker process): {exc}"
                    ) from exc
                if status == "err":
                    payload.reraise()
                if capture and session is not None and observations is not None:
                    session.ingest_worker_observations(
                        observations, workers=self.workers
                    )
                results.append(payload)
                report_advance(label=label)
        return results
