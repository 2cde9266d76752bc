"""The run-configuration facade shared by every execution entry point.

``run_protocol``/``replicate``/``cartesian_sweep`` and the CLI
experiment drivers share one frozen value object, :class:`RunConfig`,
for everything that shapes an execution (seed, rounds, bandwidth,
connectivity checking, workers, backend, cache).  ``backend`` selects
between the reference engine
(:class:`~repro.sim.engine.SynchronousEngine`) and the vectorized batch
backend (:class:`~repro.sim.batch.BatchEngine`), which is verified
bit-identical and exists purely for throughput.

The drivers take ``config=RunConfig(...)`` and nothing else: a
``config`` of any other type is a :class:`~repro.errors.ConfigurationError`
(:func:`check_config`), and stray arguments are Python's own
``TypeError``.

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
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigurationError
from .messages import DEFAULT_BANDWIDTH_FACTOR

__all__ = [
    "RunConfig",
    "BACKENDS",
    "BACKEND_ENV",
    "CACHE_MODES",
    "CACHE_ENV",
    "check_config",
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
    workers:
        Process-pool width for ``replicate``/``cartesian_sweep`` and
        the experiment drivers (``None`` defers to ``$REPRO_WORKERS``,
        0 is sequential).
    backend:
        ``"reference"`` or ``"batch"`` (``None`` defers to
        ``$REPRO_BACKEND``, then ``reference``).  The batch backend is
        bit-identical on oblivious and adaptive adversaries alike.
    cache:
        Whether the experiment drivers' and ``cartesian_sweep``'s
        tasks are served from the content-addressed result cache
        (:mod:`repro.cache`): ``"rw"`` reads and writes it, ``"ro"``
        only reads, ``"off"`` disables it (``None`` defers to
        ``$REPRO_CACHE``, then off).  ``run_protocol`` and
        ``replicate`` ignore it and always execute.  Cache keys hash
        only the result-shaping fields (seed, max_rounds,
        bandwidth_factor, check_connected) plus the task identity —
        never workers or backend.
    cache_dir:
        Cache root directory (``None`` defers to ``$REPRO_CACHE_DIR``,
        then ``~/.cache/repro``).
    """

    seed: Optional[int] = None
    max_rounds: Optional[int] = None
    bandwidth_factor: int = DEFAULT_BANDWIDTH_FACTOR
    check_connected: bool = True
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
        """Field dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunConfig":
        """Inverse of :meth:`as_dict`; unknown keys are ignored (forward
        compatibility with configs written by newer versions)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


def check_config(fn_name: str, config: Optional[RunConfig]) -> RunConfig:
    """The driver's config: ``RunConfig()`` for ``None``, else ``config``.

    Anything that is not a :class:`RunConfig` raises
    :class:`~repro.errors.ConfigurationError` naming its type.
    """
    if config is None:
        return RunConfig()
    if not isinstance(config, RunConfig):
        raise ConfigurationError(
            f"{fn_name}: config must be a RunConfig, got {type(config).__name__}"
        )
    return config
