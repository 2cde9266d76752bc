"""Convenience drivers: run a protocol to termination, replicate over seeds.

These helpers standardize how all experiments execute protocols, so that
"time complexity over average coin flips" (the paper's measure) is
computed the same way everywhere: fixed adversary and input, many public
seeds, report the distribution of termination rounds.

Execution is shaped by a :class:`~repro.sim.config.RunConfig`::

    run_protocol(make_nodes, make_adversary, RunConfig(seed=7, max_rounds=100))
    replicate(make_nodes, make_adversary, seeds, RunConfig(max_rounds=100,
                                                           backend="batch"))

The config selects the execution backend: ``"reference"`` is the
readable one-loop-per-round :class:`~repro.sim.engine.SynchronousEngine`;
``"batch"`` is the vectorized :class:`~repro.sim.batch.BatchEngine`,
bit-identical on oblivious *and* adaptive adversaries (the latter via an
incremental schedule tape).  The legacy call styles — individual
seed/max_rounds/... arguments — were removed; passing them raises a
:class:`~repro.errors.ConfigurationError` naming the ``RunConfig``
replacement.

Both drivers consult the content-addressed result cache
(:mod:`repro.cache`) when ``RunConfig(cache="rw"|"ro")`` or
``$REPRO_CACHE`` enables it: a hit returns a served
:class:`ProtocolRun` (``cached=True``, stored trace fingerprint,
aggregate-only trace) without executing; instrumented runs
(``instrument=True``) always execute and are never cached.

Both drivers thread observability through: ``RunConfig(instrument=True)``
(or an ambient :func:`repro.obs.runtime.observe` session) gives every
run a per-phase wall-clock breakdown and counters in
``ProtocolRun.metrics``; a replication aggregates them in
``ReplicationSummary``.

Replication is embarrassingly parallel — every run is deterministic in
its seed — so ``RunConfig(workers=4)`` fans the seeds out over a process
pool (see :mod:`repro.sim.parallel`) and returns a summary equal, run
for run, to the sequential one.  On the batch backend the seeds are
split into contiguous chunks (one per worker) so each worker amortizes
one shared schedule tape across its chunk.  Factories that cannot cross
the process boundary (closures, lambdas) fall back to inline execution
with a warning rather than failing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from statistics import mean, median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._util import require
from .batch import build_engine, run_batch_replicas
from .coins import CoinSource
from .config import RunConfig, coerce_config
from .node import ProtocolNode
from .trace import ExecutionTrace

__all__ = ["ProtocolRun", "run_protocol", "replicate", "ReplicationSummary"]

NodeFactory = Callable[[], Dict[int, ProtocolNode]]
AdversaryFactory = Callable[[], Any]

#: Legacy positional orders of the pre-RunConfig signatures; the shim
#: maps stray positionals onto these names so the hard error can name
#: the exact ``RunConfig(...)`` replacement.
_RUN_PROTOCOL_LEGACY = (
    "seed", "max_rounds", "bandwidth_factor", "check_connected",
    "instrument", "registry",
)
_REPLICATE_LEGACY = (
    "max_rounds", "bandwidth_factor", "check_connected",
    "instrument", "registry", "workers",
)


@dataclass
class ProtocolRun:
    """Outcome of one execution."""

    trace: ExecutionTrace
    terminated: bool
    rounds: int
    outputs: Dict[int, Any]
    #: per-run instrumentation summary (wall_seconds, phase_seconds,
    #: counters) when the run was instrumented; {} otherwise
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: which engine produced this run ("reference" or "batch")
    backend: str = "reference"
    #: batch runs only: the adjacency representation the schedule tape
    #: settled on ("dense"/"bitset"/"csr"); None on reference runs
    representation: Optional[str] = None
    #: True when this run was served from the result cache instead of
    #: executed; its trace is a :class:`repro.cache.runcache.CachedTrace`
    #: (exact aggregates/outputs, empty per-round record list)
    cached: bool = False
    #: the canonical trace fingerprint recorded at store time; on cached
    #: runs this — not ``trace_fingerprint(run.trace)`` — is the run's
    #: identity (see :func:`repro.cache.runcache.run_fingerprint`)
    fingerprint: Optional[str] = None

    @property
    def total_bits(self) -> int:
        return self.trace.total_bits()

    @property
    def wall_seconds(self) -> Optional[float]:
        return self.metrics.get("wall_seconds")


def run_protocol(
    make_nodes: NodeFactory,
    make_adversary: AdversaryFactory,
    config: Optional[RunConfig] = None,
    *legacy_args: Any,
    **legacy_kwargs: Any,
) -> ProtocolRun:
    """Run one protocol execution to termination (or ``max_rounds``).

    Configuration comes as ``RunConfig(seed=..., max_rounds=..., ...)``;
    ``seed`` and ``max_rounds`` are required.  The legacy individual
    arguments (``run_protocol(mn, ma, seed, max_rounds, ...)``) were
    removed and raise :class:`~repro.errors.ConfigurationError`.

    With ``RunConfig(cache="rw"|"ro")`` (or ``$REPRO_CACHE``) the
    result cache is consulted first: a hit returns a ``cached=True``
    run carrying the stored fingerprint and aggregates; on ``"rw"`` a
    computed run is stored for next time.  Instrumented runs bypass
    the cache entirely.

    ``RunConfig(instrument=True)`` attaches a fresh
    :class:`~repro.obs.instrumentation.Instrumentation` (feeding
    ``config.registry`` if given) and stores its summary on the returned
    run.  ``RunConfig(backend="batch")`` runs the vectorized backend.
    """
    cfg = coerce_config(
        "run_protocol", _RUN_PROTOCOL_LEGACY, config, legacy_args, legacy_kwargs
    )
    require(cfg.seed is not None, "run_protocol requires RunConfig(seed=...)")
    require(cfg.max_rounds is not None, "run_protocol requires RunConfig(max_rounds=...)")
    cache_key = cache = cache_mode = None
    if not cfg.instrument and cfg.resolved_cache() != "off":
        from ..cache.runcache import lookup_run

        cache_key, cache, cache_mode, served = lookup_run(
            cfg, make_nodes, make_adversary
        )
        if served is not None:
            return served
    instrumentation = None
    if cfg.instrument:
        from ..obs.instrumentation import Instrumentation

        instrumentation = Instrumentation(registry=cfg.registry)
    engine = build_engine(
        make_nodes(),
        make_adversary(),
        CoinSource(cfg.seed),
        bandwidth_factor=cfg.bandwidth_factor,
        check_connected=cfg.check_connected,
        instrumentation=instrumentation,
        backend=cfg.resolved_backend(),
    )
    trace = engine.run(cfg.max_rounds)
    terminated = trace.termination_round is not None
    rounds = trace.termination_round if terminated else trace.rounds
    metrics: Dict[str, Any] = {}
    inst = engine.instrumentation
    if inst is not None and hasattr(inst, "run_metrics"):
        metrics = inst.run_metrics()
    run = ProtocolRun(
        trace=trace,
        terminated=terminated,
        rounds=rounds,
        outputs=trace.outputs,
        metrics=metrics,
        backend=engine.backend,
        representation=getattr(engine, "representation", None),
    )
    if cache_key is not None and cache_mode == "rw":
        from ..cache.runcache import store_run

        store_run(cache_key, cache, cfg, make_nodes, make_adversary, run)
    return run


@dataclass
class ReplicationSummary:
    """Aggregate over seeds of one (protocol, adversary, input) cell."""

    runs: List[ProtocolRun]

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    @property
    def termination_rate(self) -> float:
        return sum(r.terminated for r in self.runs) / max(1, len(self.runs))

    @property
    def mean_rounds(self) -> float:
        return mean(r.rounds for r in self.runs)

    @property
    def median_rounds(self) -> float:
        return median(r.rounds for r in self.runs)

    @property
    def max_rounds(self) -> int:
        return max(r.rounds for r in self.runs)

    @property
    def mean_bits(self) -> float:
        return mean(r.total_bits for r in self.runs)

    @property
    def total_wall_seconds(self) -> Optional[float]:
        """Summed run wall time, when every run was instrumented."""
        walls = [r.wall_seconds for r in self.runs]
        if not walls or any(w is None for w in walls):
            return None
        return sum(walls)  # type: ignore[arg-type]

    def phase_seconds(self) -> Dict[str, float]:
        """Per-phase wall clock summed over instrumented runs."""
        totals: Dict[str, float] = {}
        for run in self.runs:
            for phase, sec in run.metrics.get("phase_seconds", {}).items():
                totals[phase] = totals.get(phase, 0.0) + sec
        return totals

    def error_rate(self, correct: Callable[[ProtocolRun], bool]) -> float:
        """Fraction of runs whose outcome fails the ``correct`` predicate."""
        return sum(not correct(r) for r in self.runs) / max(1, len(self.runs))


def _replicate_task(
    make_nodes: NodeFactory,
    make_adversary: AdversaryFactory,
    seed: int,
    max_rounds: int,
    bandwidth_factor: int,
    check_connected: bool,
    instrument: bool,
) -> Tuple[ProtocolRun, Optional[Any]]:
    """One seed's run inside a pool worker: the run plus its registry.

    With ``instrument=True`` the worker builds its own registry (there
    is no shared one across processes); the parent merges the returned
    registries in seed order, reproducing the sequential shared-registry
    aggregate.
    """
    registry = None
    if instrument:
        from ..obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    run = run_protocol(
        make_nodes,
        make_adversary,
        RunConfig(
            seed=seed,
            max_rounds=max_rounds,
            bandwidth_factor=bandwidth_factor,
            check_connected=check_connected,
            instrument=instrument,
            registry=registry,
            # the parent already resolved the backend; never let a
            # worker re-resolve $REPRO_BACKEND differently
            backend="reference",
            # replicate caches the whole replication as one entry; the
            # per-seed runs must not also consult $REPRO_CACHE
            cache="off",
        ),
    )
    return run, registry


def _replicate_batch_task(
    make_nodes: NodeFactory,
    make_adversary: AdversaryFactory,
    seeds: Tuple[int, ...],
    max_rounds: int,
    bandwidth_factor: int,
    check_connected: bool,
    instrument: bool,
) -> Tuple[List[ProtocolRun], Optional[Any]]:
    """One contiguous seed chunk on the batch backend, inside a worker.

    The chunk shares a single schedule tape (that is what the chunking
    buys); the worker's registry rides back for in-order merging
    exactly like :func:`_replicate_task`.
    """
    registry = None
    if instrument:
        from ..obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    runs = run_batch_replicas(
        make_nodes,
        make_adversary,
        seeds,
        max_rounds=max_rounds,
        bandwidth_factor=bandwidth_factor,
        check_connected=check_connected,
        instrument=instrument,
        registry=registry,
    )
    return runs, registry


def _chunk_seeds(seeds: Sequence[int], n_workers: int) -> List[Tuple[int, ...]]:
    """Split seeds into at most ``n_workers`` contiguous, ordered chunks."""
    n_chunks = min(len(seeds), n_workers)
    if n_chunks == 0:
        return []
    base, extra = divmod(len(seeds), n_chunks)
    chunks: List[Tuple[int, ...]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(tuple(seeds[start:start + size]))
        start += size
    return chunks


def replicate(
    make_nodes: NodeFactory,
    make_adversary: AdversaryFactory,
    seeds: Sequence[int],
    config: Optional[RunConfig] = None,
    *legacy_args: Any,
    **legacy_kwargs: Any,
) -> ReplicationSummary:
    """Run the same cell under each seed and aggregate.

    Configuration comes as ``RunConfig(max_rounds=..., ...)``
    (``max_rounds`` required; ``config.seed`` is ignored — the explicit
    ``seeds`` sequence governs).  The legacy individual arguments were
    removed and raise :class:`~repro.errors.ConfigurationError`.

    With caching enabled (``RunConfig(cache=...)`` / ``$REPRO_CACHE``)
    a whole replication is one cache entry keyed on the semantic config
    (seed dropped) plus factories plus the seed sequence: a hit serves
    every run without executing, all-or-nothing.  The per-seed
    ``run_protocol`` calls inside run with the cache off — the
    replication entry is the unit here.

    With ``instrument=True`` all runs share ``config.registry`` (a fresh
    one by default), so cross-seed counters aggregate while each run
    keeps its own phase breakdown.

    ``workers`` > 0 runs the seeds on a process pool (``None`` defers to
    the ``REPRO_WORKERS`` environment variable, 0 stays sequential); the
    returned summary is identical to the sequential one, and instrumented
    metrics merge back in seed order.  Factories that cannot be pickled
    (closures over local state) fall back to inline execution with a
    :class:`UserWarning`.

    ``backend="batch"`` replays every oblivious seed against one shared
    schedule tape per worker, and gives each adaptive seed its own fresh
    adversary and incremental tape (see
    :func:`repro.sim.batch.run_batch_replicas`), with results identical
    to the reference engine's.
    """
    from ..obs.spans import span
    from .parallel import ensure_picklable, resolve_workers

    cfg = coerce_config(
        "replicate", _REPLICATE_LEGACY, config, legacy_args, legacy_kwargs
    )
    require(cfg.max_rounds is not None, "replicate requires RunConfig(max_rounds=...)")
    cache_key = cache = cache_mode = None
    if not cfg.instrument and cfg.resolved_cache() != "off":
        from ..cache.runcache import lookup_replicate

        cache_key, cache, cache_mode, served = lookup_replicate(
            cfg, make_nodes, make_adversary, seeds
        )
        if served is not None:
            return served
    backend = cfg.resolved_backend()
    n_workers = resolve_workers(cfg.workers)
    if n_workers > 0:
        unpicklable = ensure_picklable(
            make_nodes=make_nodes, make_adversary=make_adversary
        )
        if unpicklable is not None:
            warnings.warn(
                f"replicate: {unpicklable} cannot be pickled for "
                f"process-pool execution (closure or lambda?); running "
                f"seeds inline. Use module-level factories (see "
                f"repro.sim.factories) to parallelize.",
                stacklevel=2,
            )
            n_workers = 0
    with span(
        "replicate", "replicate",
        seeds=len(seeds), backend=backend, workers=n_workers,
    ):
        summary = _replicate_impl(make_nodes, make_adversary, seeds, cfg,
                                  backend, n_workers)
    if cache_key is not None and cache_mode == "rw":
        from ..cache.runcache import store_replicate

        store_replicate(
            cache_key, cache, cfg, make_nodes, make_adversary, seeds, summary
        )
    return summary


def _replicate_impl(
    make_nodes: NodeFactory,
    make_adversary: AdversaryFactory,
    seeds: Sequence[int],
    cfg: RunConfig,
    backend: str,
    n_workers: int,
) -> ReplicationSummary:
    """The execution paths of :func:`replicate`, under its span/progress."""
    from ..obs.progress import report_advance, report_begin, report_finish
    from .parallel import ParallelExecutor

    max_rounds = cfg.max_rounds
    registry = cfg.registry
    if n_workers > 0 and backend == "batch":
        chunks = _chunk_seeds(seeds, n_workers)
        report_begin(len(chunks), unit="chunks", label="replicate")
        try:
            results = ParallelExecutor(n_workers).map(
                _replicate_batch_task,
                [
                    (
                        make_nodes,
                        make_adversary,
                        chunk,
                        max_rounds,
                        cfg.bandwidth_factor,
                        cfg.check_connected,
                        cfg.instrument,
                    )
                    for chunk in chunks
                ],
                labels=[f"seeds={chunk[0]}..{chunk[-1]}" for chunk in chunks],
            )
        finally:
            report_finish()
        runs: List[ProtocolRun] = []
        for chunk_runs, worker_registry in results:
            if registry is not None and worker_registry is not None:
                registry.merge(worker_registry)
            runs.extend(chunk_runs)
        return ReplicationSummary(runs=runs)
    if n_workers > 0:
        report_begin(len(seeds), unit="runs", label="replicate")
        try:
            results = ParallelExecutor(n_workers).map(
                _replicate_task,
                [
                    (
                        make_nodes,
                        make_adversary,
                        seed,
                        max_rounds,
                        cfg.bandwidth_factor,
                        cfg.check_connected,
                        cfg.instrument,
                    )
                    for seed in seeds
                ],
                labels=[f"seed={seed}" for seed in seeds],
            )
        finally:
            report_finish()
        runs = []
        for run, worker_registry in results:
            if registry is not None and worker_registry is not None:
                registry.merge(worker_registry)
            runs.append(run)
        return ReplicationSummary(runs=runs)

    if cfg.instrument and registry is None:
        from ..obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
    if backend == "batch":
        return ReplicationSummary(
            runs=run_batch_replicas(
                make_nodes,
                make_adversary,
                seeds,
                max_rounds=max_rounds,
                bandwidth_factor=cfg.bandwidth_factor,
                check_connected=cfg.check_connected,
                instrument=cfg.instrument,
                registry=registry,
            )
        )
    report_begin(len(seeds), unit="runs", label="replicate")
    try:
        runs = []
        for seed in seeds:
            runs.append(
                run_protocol(
                    make_nodes,
                    make_adversary,
                    RunConfig(
                        seed=seed,
                        max_rounds=max_rounds,
                        bandwidth_factor=cfg.bandwidth_factor,
                        check_connected=cfg.check_connected,
                        instrument=cfg.instrument,
                        registry=registry,
                        backend="reference",  # already resolved above
                        cache="off",  # the replication entry is the cache unit
                    ),
                )
            )
            report_advance(label=f"seed={seed}")
    finally:
        report_finish()
    return ReplicationSummary(runs=runs)
