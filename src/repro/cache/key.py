"""Canonical content-addressed cache keys for deterministic runs.

Every execution in this repository is a pure function of its inputs —
the public-coin seed, the round budget, the node/adversary factories,
the cell parameters.  A cache key is the sha256 of a canonical JSON
rendering of exactly those inputs, so two calls that must produce
bit-identical results hash to the same entry and nothing else does.

Three rules shape the key:

* **Semantic config fields only.**  Of :class:`~repro.sim.config
  .RunConfig`'s fields, only :data:`SEMANTIC_CONFIG_FIELDS` (seed,
  max_rounds, bandwidth_factor, check_connected) can change a result.
  ``workers``/``backend`` are proven bit-identical (golden-fingerprint
  corpus + differential fuzzer), and ``cache``/``cache_dir`` are
  plumbing — none of them participate, so a result computed on the
  batch backend answers a reference-backend query.

* **Structural tokens, not pickles.**  :func:`cache_token` renders a
  value as a JSON-ready tree: primitives stay bare, containers get a
  tag, sets are sorted by their members' own encodings, functions and
  classes become ``["fn", module, qualname]``, and objects serialize
  through their ``__getstate__`` (the picklable-factory contract of
  :mod:`repro.sim.factories`) or ``__dict__``.  Pickle bytes are not
  stable across processes; this is.

* **Refuse rather than guess.**  A lambda, a closure, an open file —
  anything without a stable identity raises :class:`UncacheableError`,
  and the caller runs uncached.  A wrong key would serve wrong results;
  no key just serves slowly.
"""

from __future__ import annotations

import hashlib
import json
import types
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "KEY_VERSION",
    "SEMANTIC_CONFIG_FIELDS",
    "UncacheableError",
    "cache_token",
    "semantic_config",
    "cache_key",
]

#: Bump when the token grammar or key payload layout changes: old
#: entries then simply never match (a miss, never a wrong answer).
KEY_VERSION = 1

#: The RunConfig fields that can change a run's result.  Everything
#: else — workers, backend, cache, cache_dir — is execution plumbing,
#: proven or defined not to alter outputs.
SEMANTIC_CONFIG_FIELDS: Tuple[str, ...] = (
    "seed", "max_rounds", "bandwidth_factor", "check_connected",
)

#: Recursion ceiling for :func:`cache_token` — far above any real
#: factory graph; a cycle hits it and raises instead of spinning.
_MAX_DEPTH = 64


class UncacheableError(Exception):
    """This value has no stable content identity; run uncached instead."""


def _callable_token(obj: Any) -> list:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname:
        raise UncacheableError(f"no stable module/qualname for {obj!r}")
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise UncacheableError(
            f"{module}.{qualname} is a closure or lambda; define it at "
            f"module level to make it cacheable"
        )
    return ["fn", module, qualname]


def _sorted_by_encoding(tokens: list) -> list:
    return sorted(tokens, key=lambda t: json.dumps(t, sort_keys=True))


def cache_token(obj: Any, _depth: int = 0) -> Any:
    """A canonical JSON-ready token for ``obj`` (injective in practice).

    Raises :class:`UncacheableError` for values without a stable
    content identity (lambdas, closures, exotic objects).
    """
    if _depth > _MAX_DEPTH:
        raise UncacheableError("value too deep (or cyclic) to tokenize")
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", obj.hex()]
    if isinstance(obj, (bytes, bytearray)):
        return ["y", bytes(obj).hex()]
    if isinstance(obj, tuple):
        return ["t", [cache_token(x, _depth + 1) for x in obj]]
    if isinstance(obj, list):
        return ["l", [cache_token(x, _depth + 1) for x in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["set", _sorted_by_encoding([cache_token(x, _depth + 1) for x in obj])]
    if isinstance(obj, dict):
        pairs = [
            [cache_token(k, _depth + 1), cache_token(v, _depth + 1)]
            for k, v in obj.items()
        ]
        return ["map", _sorted_by_encoding(pairs)]
    if isinstance(obj, (type, types.FunctionType, types.BuiltinFunctionType)):
        # functions carry a mutable __dict__, so this branch must come
        # before the structural-state one: identity is module.qualname
        return _callable_token(obj)
    if isinstance(obj, types.MethodType):
        raise UncacheableError(
            f"bound method {obj.__qualname__} has instance identity; "
            f"pass a module-level function or a picklable factory object"
        )
    state = _object_state(obj)
    if state is None:
        raise UncacheableError(
            f"cannot derive a stable cache token for {type(obj).__name__!r} "
            f"(no __getstate__ or __dict__)"
        )
    return ["obj", _callable_token(type(obj)), cache_token(state, _depth + 1)]


def _object_state(obj: Any) -> Optional[Any]:
    """Structural state: class-level ``__getstate__`` (the picklable-
    factory contract of :mod:`repro.sim.factories`), else ``__dict__``.

    The ``__getstate__`` lookup walks the MRO explicitly rather than
    using ``hasattr``, so the Python-3.11 ``object.__getstate__``
    default cannot make tokens differ between interpreter versions.
    """
    cls = type(obj)
    if any("__getstate__" in k.__dict__ for k in cls.__mro__ if k is not object):
        return obj.__getstate__()
    if hasattr(obj, "__dict__"):
        return dict(obj.__dict__)
    return None


def semantic_config(config: Optional[Any]) -> Dict[str, Any]:
    """The result-shaping subset of a config's :meth:`as_dict`.

    ``None`` means the all-defaults :class:`~repro.sim.config
    .RunConfig`; unknown extra keys in a future config are ignored, so
    keys stay stable across config-field additions that do not touch
    the semantic set.
    """
    from ..sim.config import RunConfig

    cfg = config if config is not None else RunConfig()
    data = cfg.as_dict() if hasattr(cfg, "as_dict") else dict(cfg)
    return {k: data.get(k) for k in SEMANTIC_CONFIG_FIELDS}


def cache_key(kind: str, config: Optional[Any], parts: Mapping[str, Any]) -> str:
    """sha256 over (key version, kind, semantic config, cell parts).

    ``kind`` namespaces the entry ("run", "replicate", "cell", "map")
    so payload schemas can never collide; ``parts`` carries the cell
    identity — factories, seeds, parameters — tokenized structurally.
    """
    payload = {
        "key_version": KEY_VERSION,
        "kind": kind,
        "config": cache_token(semantic_config(config)),
        "parts": cache_token(dict(parts)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
