"""The run-configuration facade shared by every execution entry point.

``run_protocol``/``replicate``/``cartesian_sweep`` and the CLI
experiment drivers used to triplicate the same seven keyword arguments
(seed, rounds, bandwidth, connectivity checking, instrumentation,
registry, workers).  :class:`RunConfig` collapses them into one frozen
value object and adds the one new axis this facade was built for:
``backend`` selects between the reference engine
(:class:`~repro.sim.engine.SynchronousEngine`) and the vectorized batch
backend (:class:`~repro.sim.batch.BatchEngine`), which is verified
bit-identical and exists purely for throughput.

The config-first migration is complete: the drivers accept *only*
``config=RunConfig(...)``.  The legacy individual-argument call styles
(``run_protocol(mn, ma, 3, 30)``, ``replicate(..., max_rounds=200)``)
deprecation-warned through PR 9 and are now a hard
:class:`~repro.errors.ConfigurationError` naming the exact
``RunConfig(...)`` replacement (:func:`coerce_config` remains as the
guard that produces that error).

Backend resolution mirrors the worker resolution of
:mod:`repro.sim.parallel`: an explicit ``backend=`` wins, otherwise the
``REPRO_BACKEND`` environment variable applies (this is how CI runs the
whole tier-1 suite under the batch backend), otherwise ``reference``.
The result-cache mode (``cache``/``$REPRO_CACHE``) follows the same
ladder, defaulting to ``off``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .messages import DEFAULT_BANDWIDTH_FACTOR

__all__ = [
    "RunConfig",
    "BACKENDS",
    "BACKEND_ENV",
    "CACHE_MODES",
    "CACHE_ENV",
    "coerce_config",
    "resolve_backend",
    "resolve_cache",
]

#: recognized execution backends, in documentation order
BACKENDS: Tuple[str, ...] = ("reference", "batch")

#: environment variable supplying the default backend (cf. REPRO_WORKERS)
BACKEND_ENV = "REPRO_BACKEND"

#: recognized result-cache modes: read-write, read-only, disabled
CACHE_MODES: Tuple[str, ...] = ("rw", "ro", "off")

#: environment variable supplying the default cache mode (cf. REPRO_BACKEND)
CACHE_ENV = "REPRO_CACHE"


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a backend request against the environment default.

    ``None`` defers to ``$REPRO_BACKEND`` (empty/unset means
    ``reference``); anything not in :data:`BACKENDS` is a
    :class:`~repro.errors.ConfigurationError`.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV, "").strip() or "reference"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    return backend


def resolve_cache(cache: Optional[str]) -> str:
    """Resolve a result-cache mode against the environment default.

    Same precedence ladder as :func:`resolve_backend`: an explicit
    mode wins, ``None`` defers to ``$REPRO_CACHE`` (empty/unset means
    ``off``); anything not in :data:`CACHE_MODES` is a
    :class:`~repro.errors.ConfigurationError`.
    """
    if cache is None:
        cache = os.environ.get(CACHE_ENV, "").strip() or "off"
    if cache not in CACHE_MODES:
        raise ConfigurationError(
            f"unknown cache mode {cache!r}; expected one of {', '.join(CACHE_MODES)}"
        )
    return cache


@dataclass(frozen=True)
class RunConfig:
    """Everything that shapes a protocol execution, minus the cell itself.

    The cell — node factory, adversary factory, seeds — stays positional
    on the drivers; this object carries the *how*:

    seed:
        Public coin seed (``run_protocol`` only; ``replicate`` takes an
        explicit seed sequence instead).
    max_rounds:
        Round budget; runs stop there if the protocol has not terminated.
    bandwidth_factor:
        CONGEST budget multiplier (messages are limited to
        ``bandwidth_factor * ceil(log2 N)`` bits).
    check_connected:
        Enforce per-round connectivity (the model constraint); the
        lower-bound subnetworks legitimately turn this off.
    instrument:
        Attach per-run instrumentation (phase timings, counters).
    registry:
        Metrics registry the instrumentation feeds (fresh one if None).
    workers:
        Process-pool width for ``replicate``/``cartesian_sweep``
        (``None`` defers to ``$REPRO_WORKERS``, 0 is sequential).
    backend:
        ``"reference"`` or ``"batch"`` (``None`` defers to
        ``$REPRO_BACKEND``, then ``reference``).  The batch backend is
        bit-identical on oblivious and adaptive adversaries alike.
    cache:
        Result-cache mode for ``run_protocol``/``replicate``/
        ``cartesian_sweep`` and the experiment drivers: ``"rw"`` reads
        and writes the content-addressed cache (:mod:`repro.cache`),
        ``"ro"`` only reads, ``"off"`` disables it (``None`` defers to
        ``$REPRO_CACHE``, then off).  Cache keys hash only the
        result-shaping fields (seed, max_rounds, bandwidth_factor,
        check_connected) plus the cell identity — never workers,
        backend, or instrumentation.
    cache_dir:
        Cache root directory (``None`` defers to ``$REPRO_CACHE_DIR``,
        then ``~/.cache/repro``).
    """

    seed: Optional[int] = None
    max_rounds: Optional[int] = None
    bandwidth_factor: int = DEFAULT_BANDWIDTH_FACTOR
    check_connected: bool = True
    instrument: bool = False
    registry: Optional[Any] = None
    workers: Optional[int] = None
    backend: Optional[str] = None
    cache: Optional[str] = None
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        if self.cache is not None and self.cache not in CACHE_MODES:
            raise ConfigurationError(
                f"unknown cache mode {self.cache!r}; "
                f"expected one of {', '.join(CACHE_MODES)}"
            )

    # -- derived ---------------------------------------------------------
    def resolved_backend(self) -> str:
        """The backend this config actually selects (env-resolved)."""
        return resolve_backend(self.backend)

    def resolved_cache(self) -> str:
        """The result-cache mode this config actually selects."""
        return resolve_cache(self.cache)

    # -- ergonomics ------------------------------------------------------
    def evolve(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (the dataclass is frozen)."""
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        """Field dict (shallow; the registry object rides along as-is)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunConfig":
        """Inverse of :meth:`as_dict`; unknown keys are ignored (forward
        compatibility with configs written by newer versions)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def coerce_config(
    fn_name: str,
    legacy_order: Sequence[str],
    config: Optional[Any],
    legacy_args: Tuple[Any, ...],
    legacy_kwargs: Dict[str, Any],
) -> RunConfig:
    """Guard a driver's ``config`` slot against the removed legacy styles.

    The drivers are declared as ``fn(..., config=None, *legacy_args,
    **legacy_kwargs)``: current code passes a :class:`RunConfig` (or
    nothing) in the ``config`` slot.  The pre-RunConfig call styles —
    individual values positionally or by keyword — deprecation-warned
    for four PRs and are now removed; this guard

    * treats a non-``RunConfig`` value in the ``config`` slot as the
      first legacy positional (so ``run_protocol(mn, ma, 3, 30)`` is
      still *recognized*, and rejected with its exact replacement),
    * maps remaining positionals onto ``legacy_order`` and accepts
      legacy keywords whose names are ``RunConfig`` fields, purely to
      name the fields in the error, and
    * raises :class:`~repro.errors.ConfigurationError` spelling out the
      ``config=RunConfig(...)`` call that replaces the rejected one.

    Unknown keywords and positional overflow raise :class:`TypeError`,
    like any Python call.
    """
    legacy: Dict[str, Any] = {}
    if config is not None and not isinstance(config, RunConfig):
        legacy_args = (config,) + tuple(legacy_args)
        config = None
    if len(legacy_args) > len(legacy_order):
        raise TypeError(
            f"{fn_name}() takes at most {len(legacy_order)} positional "
            f"configuration arguments ({', '.join(legacy_order)}); "
            f"got {len(legacy_args)}"
        )
    for name, value in zip(legacy_order, legacy_args):
        legacy[name] = value
    allowed = {f.name for f in fields(RunConfig)}
    for name, value in legacy_kwargs.items():
        if name not in allowed:
            raise TypeError(
                f"{fn_name}() got an unexpected keyword argument {name!r}"
            )
        if name in legacy:
            raise TypeError(f"{fn_name}() got multiple values for argument {name!r}")
        legacy[name] = value
    if not legacy:
        return config if config is not None else RunConfig()
    if config is not None:
        raise ConfigurationError(
            f"{fn_name}: pass either config=RunConfig(...) or the legacy "
            f"individual arguments, not both (got both config= and "
            f"{sorted(legacy)})"
        )
    replacement = ", ".join(f"{k}={legacy[k]!r}" for k in sorted(legacy))
    raise ConfigurationError(
        f"{fn_name}: passing configuration as individual arguments was "
        f"removed; use {fn_name}(..., config=RunConfig({replacement}))"
    )
