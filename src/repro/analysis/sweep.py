"""Parameter sweeps with seeded replication.

:func:`cartesian_sweep` evaluates one function over a parameter grid,
one task per cell, through
:func:`~repro.analysis.experiments.base.run_grid`: the same cached,
optionally pooled grid runner the experiment drivers use.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..sim.config import RunConfig, check_config
from .experiments.base import run_grid

__all__ = ["cartesian_sweep"]


def _sweep_cell(fn: Callable[..., Mapping[str, Any]], cell: Dict[str, Any]) -> Dict[str, Any]:
    """One grid cell, shaped for the process pool (module-level, picklable)."""
    from ..obs.spans import span

    with span("cell", _cell_label(cell), **cell):
        result = fn(**cell)
    row = dict(cell)
    row.update(result)
    return row


def _cell_label(cell: Mapping[str, Any]) -> str:
    return ", ".join(f"{k}={v!r}" for k, v in cell.items())


def cartesian_sweep(
    params: Mapping[str, Sequence[Any]],
    fn: Callable[..., Mapping[str, Any]],
    config: Optional[RunConfig] = None,
) -> List[Dict[str, Any]]:
    """Run ``fn(**cell)`` for every cell of the parameter grid.

    Each result row is the cell's parameters merged with ``fn``'s result
    dict (result keys win on collision — they are the measurements).

    ``config`` is a :class:`~repro.sim.config.RunConfig`; the sweep reads
    its ``workers`` field (> 0 evaluates the cells on a process pool,
    ``None`` defers to ``REPRO_WORKERS``, 0 stays sequential) via
    :class:`repro.sim.parallel.ParallelExecutor`: rows come back in grid
    order regardless of completion order, and a failing cell re-raises
    with that cell's parameters in the message.  ``fn`` must be
    picklable (a module-level function) to parallelize; otherwise the
    sweep runs inline.

    With ``RunConfig(cache="rw"|"ro")`` (or ``$REPRO_CACHE``) every cell
    is one ``map`` task of the result cache, keyed on the semantic
    config plus ``fn`` plus the cell parameters: hits are served in the
    parent before any pool dispatch (so a fully warmed sweep spawns no
    workers), misses compute as usual and, on ``"rw"``, are stored once
    the map returns.  Served rows are bit-identical to computed ones —
    the store refuses any value it cannot encode losslessly.  A lambda
    or closure ``fn`` has no stable identity, so its cells run uncached.

    The backend choice stays with each cell's ``fn`` (pass it a config
    or let ``$REPRO_BACKEND`` apply inside the workers); the sweep only
    schedules cells.  The backend never enters the cache key: all
    backends are proven bit-identical, so cells cached under one answer
    sweeps run under another.

    Under an ambient observation session every cell is timed as a
    ``cell`` span beneath one ``sweep`` span (identical tree whether the
    cells ran inline or on the pool); cache activity shows up as
    ``cache-hit``/``cache-store`` span events; the progress scope
    (:mod:`repro.obs.progress`) counts cells done/total as they
    complete, cached or computed.
    """
    from ..sim.parallel import ensure_picklable, resolve_workers

    cfg = check_config("cartesian_sweep", config)

    names = list(params)
    cells: List[Dict[str, Any]] = [
        dict(zip(names, values))
        for values in itertools.product(*(params[k] for k in names))
    ]

    if resolve_workers(cfg.workers) > 0 and ensure_picklable(fn=fn) is not None:
        import warnings

        warnings.warn(
            "cartesian_sweep: fn cannot be pickled for process-pool "
            "execution (closure or lambda?); running cells inline.",
            stacklevel=2,
        )
        cfg = cfg.evolve(workers=0)
    (rows,) = run_grid(
        getattr(fn, "__name__", "sweep"), _sweep_cell,
        [[(fn, cell) for cell in cells]], cfg, {},
        unit="cells", labels=[_cell_label(cell) for cell in cells],
    )
    return rows
