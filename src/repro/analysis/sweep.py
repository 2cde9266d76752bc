"""Parameter sweeps with seeded replication."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..sim.config import RunConfig, check_config

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


class _CellCache:
    """The sweep's view of the result cache: serve/store whole rows.

    Built once per sweep; ``None`` stands in when caching is off or the
    cell function itself has no stable identity (lambda/closure) — the
    sweep then runs exactly as before.  Per-cell failures degrade the
    same way: an uncacheable cell computes, a torn entry recomputes and
    rewrites, and neither ever raises out of the sweep.
    """

    def __init__(self, cfg: Any, fn: Callable[..., Mapping[str, Any]]) -> None:
        from ..cache.runcache import cell_key, decode_strict, encode_strict
        from ..cache.store import count_cache_event, open_cache

        self._count = count_cache_event
        self._encode = encode_strict
        self._decode = decode_strict
        self._key_of = cell_key
        self.cfg = cfg
        self.fn = fn
        self.cache, self.mode = open_cache(cfg)  # caller checked mode != off

    def key(self, cell: Mapping[str, Any]) -> Optional[str]:
        from ..cache.key import UncacheableError

        try:
            return self._key_of(self.cfg, self.fn, cell)
        except UncacheableError as exc:
            self._count("uncacheable", reason=str(exc)[:120])
            return None

    def serve(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self.cache.get(key, kind="cell")
        if payload is None:
            return None
        try:
            return self._decode(payload["row"])
        except (KeyError, TypeError, ValueError):
            self._count("corrupt", key=key[:12], kind="cell")
            return None

    def store(self, key: str, cell: Mapping[str, Any], row: Dict[str, Any]) -> None:
        from ..cache.key import UncacheableError, cache_token, semantic_config

        if self.mode != "rw":
            return
        try:
            payload = {"row": self._encode(row)}
        except UncacheableError as exc:
            self._count("uncacheable", reason=str(exc)[:120])
            return
        recipe: Optional[Dict[str, Any]] = None
        try:
            fn_token = cache_token(self.fn)
            recipe = {
                "kind": "cell",
                "fn": [fn_token[1], fn_token[2]],
                "cell": self._encode(dict(cell)),
                "config": semantic_config(self.cfg),
            }
        except UncacheableError:
            recipe = None
        self.cache.put(key, payload, kind="cell", recipe=recipe)


def _open_cell_cache(cfg: Any, fn: Callable[..., Mapping[str, Any]]) -> Optional[_CellCache]:
    if cfg.resolved_cache() == "off":
        return None
    from ..cache.key import UncacheableError, cache_token
    from ..cache.store import count_cache_event

    try:
        cache_token(fn)  # a lambda/closure sweep runs uncached, whole
    except UncacheableError as exc:
        count_cache_event("uncacheable", reason=str(exc)[:120])
        return None
    return _CellCache(cfg, fn)


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
    is one content-addressed cache entry keyed on the semantic config
    plus ``fn`` plus the cell parameters: hits are served in the parent
    before any pool dispatch (so a fully warmed sweep spawns no
    workers), misses compute as usual and are stored on ``"rw"``.
    Served rows are bit-identical to computed ones — the store refuses
    any value it cannot encode losslessly.

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
    from ..obs.progress import report_advance, report_begin, report_finish
    from ..obs.spans import span

    cfg = check_config("cartesian_sweep", config)

    names = list(params)
    cells: List[Dict[str, Any]] = [
        dict(zip(names, values))
        for values in itertools.product(*(params[k] for k in names))
    ]

    from ..sim.parallel import ParallelExecutor, ensure_picklable, resolve_workers

    n_workers = resolve_workers(cfg.workers)
    if n_workers > 0 and ensure_picklable(fn=fn) is not None:
        import warnings

        warnings.warn(
            "cartesian_sweep: fn cannot be pickled for process-pool "
            "execution (closure or lambda?); running cells inline.",
            stacklevel=2,
        )
        n_workers = 0
    cell_cache = _open_cell_cache(cfg, fn)
    with span(
        "sweep", getattr(fn, "__name__", "sweep"),
        cells=len(cells), workers=n_workers,
        params={k: len(v) for k, v in params.items()},
    ):
        report_begin(len(cells), unit="cells", label=getattr(fn, "__name__", "sweep"))
        try:
            rows: List[Optional[Dict[str, Any]]] = [None] * len(cells)
            keys: List[Optional[str]] = [None] * len(cells)
            pending = list(range(len(cells)))
            if cell_cache is not None:
                pending = []
                for i, cell in enumerate(cells):
                    keys[i] = cell_cache.key(cell)
                    served = (
                        cell_cache.serve(keys[i]) if keys[i] is not None else None
                    )
                    if served is not None:
                        rows[i] = served
                        report_advance(label=_cell_label(cell))
                    else:
                        pending.append(i)
            if pending and n_workers > 0:
                tasks: List[Tuple] = [(fn, cells[i]) for i in pending]
                computed = ParallelExecutor(n_workers).map(
                    _sweep_cell, tasks,
                    labels=[_cell_label(cells[i]) for i in pending],
                )
                for i, row in zip(pending, computed):
                    rows[i] = row
                    if cell_cache is not None and keys[i] is not None:
                        cell_cache.store(keys[i], cells[i], row)
            else:
                for i in pending:
                    row = _sweep_cell(fn, cells[i])
                    rows[i] = row
                    if cell_cache is not None and keys[i] is not None:
                        cell_cache.store(keys[i], cells[i], row)
                    report_advance(label=_cell_label(cells[i]))
            return rows  # type: ignore[return-value]
        finally:
            report_finish()
