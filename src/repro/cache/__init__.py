"""Content-addressed result cache for deterministic experiment tasks.

The one cached unit is an experiment task: each call of a
:func:`~repro.cache.runcache.cached_map`, the map through which
:func:`~repro.analysis.experiments.base.run_grid` runs the (cell, seed)
tasks of every sweeping experiment driver and of
:func:`~repro.analysis.sweep.cartesian_sweep`.  See
:mod:`repro.cache.key` for key derivation, :mod:`repro.cache.store` for
the on-disk layout, and :mod:`repro.cache.runcache` for the payload
codec, ``cached_map`` and entry verification.
"""

from .key import (
    KEY_VERSION,
    SEMANTIC_CONFIG_FIELDS,
    UncacheableError,
    cache_key,
    cache_token,
    semantic_config,
)
from .runcache import cached_map, decode_strict, encode_strict, verify_entry
from .store import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ENTRY_FORMAT_VERSION,
    ResultCache,
    cache_counters,
    count_cache_event,
    open_cache,
    reset_cache_counters,
    resolve_cache_dir,
)

__all__ = [
    "KEY_VERSION",
    "SEMANTIC_CONFIG_FIELDS",
    "UncacheableError",
    "cache_key",
    "cache_token",
    "semantic_config",
    "cached_map",
    "decode_strict",
    "encode_strict",
    "verify_entry",
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ENTRY_FORMAT_VERSION",
    "ResultCache",
    "cache_counters",
    "count_cache_event",
    "open_cache",
    "reset_cache_counters",
    "resolve_cache_dir",
]
