"""Task payloads: what the result cache stores and serves.

The cache's one unit is an experiment task: one call ``fn(*task)`` of a
:func:`cached_map`, which
:func:`~repro.analysis.experiments.base.run_grid` — the grid runner of
every sweeping experiment driver and of
:func:`~repro.analysis.sweep.cartesian_sweep` — uses in place of
``ParallelExecutor.map``.  Each task is a pure function of its inputs
(typically one seed of one table cell), so its result is stored under
a key of the semantic config, the task function and the task's
identity, and a later identical task is answered without dispatching.
``run_protocol`` and ``replicate`` always execute.

Storage is **strict**: results are encoded with the same tagged codec
as the JSONL exporter plus a ``"m"`` dict tag, and any value that would
degrade to the exporter's lossy ``repr`` fallback raises
:class:`~repro.cache.key.UncacheableError` instead — the task then
runs uncached.  Serving an approximation would break the bit-identity
contract the cache exists to honor.

Every entry also embeds a *recipe* — the task function's
module/qualname plus the pickled task — so ``repro cache verify`` can
re-execute a sampled entry from the entry alone and assert the
recomputed payload is bit-identical.  An unpicklable task simply gets
no recipe (the entry is then reported as unverifiable, never wrong).
"""

from __future__ import annotations

import base64
import importlib
import pickle
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .key import UncacheableError, cache_key, cache_token
from .store import count_cache_event, open_cache

__all__ = ["encode_strict", "decode_strict", "cached_map", "verify_entry"]


# ----------------------------------------------------------------------
# strict payload codec: the exporter's tags + "m" for dicts, no lossy repr
def encode_strict(obj: Any) -> Any:
    """Encode like :func:`repro.obs.export.encode_payload`, but refuse
    (``UncacheableError``) anything that would fall back to a lossy repr,
    and additionally support string/int-keyed dicts (``"m"`` tag)."""
    import json

    if obj is None:
        return ["n"]
    if isinstance(obj, bool):
        return ["b", obj]
    if isinstance(obj, int):
        return ["i", obj]
    if isinstance(obj, float):
        return ["f", obj.hex()]
    if isinstance(obj, str):
        return ["s", obj]
    if isinstance(obj, (bytes, bytearray)):
        return ["y", bytes(obj).hex()]
    if isinstance(obj, tuple):
        return ["t", [encode_strict(item) for item in obj]]
    if isinstance(obj, list):
        return ["l", [encode_strict(item) for item in obj]]
    if isinstance(obj, frozenset):
        members = sorted((encode_strict(item) for item in obj), key=json.dumps)
        return ["S", members]
    if isinstance(obj, dict):
        pairs = []
        for k, v in obj.items():
            if not isinstance(k, (str, int)) or isinstance(k, bool):
                raise UncacheableError(
                    f"dict key {k!r} is not a plain str/int; cannot store"
                )
            pairs.append([encode_strict(k), encode_strict(v)])
        return ["m", sorted(pairs, key=json.dumps)]
    item = getattr(obj, "item", None)
    if callable(item):  # numpy scalar: store the python value it wraps
        return encode_strict(item())
    raise UncacheableError(
        f"value of type {type(obj).__name__!r} has no lossless encoding; "
        f"refusing to cache an approximation"
    )


def decode_strict(value: Any) -> Any:
    """Invert :func:`encode_strict`.

    A value that no encoding produces raises ``ValueError`` or
    ``TypeError``, which the cache's readers count as a corrupt entry.
    """
    tag, *fields = value
    if len(fields) != (0 if tag == "n" else 1):
        raise ValueError(
            f"strict-payload tag {tag!r} with {len(fields)} field(s)"
        )
    if tag == "n":
        return None
    (field,) = fields
    if tag in ("b", "i", "s"):
        return field
    if tag == "f":
        return float.fromhex(field)
    if tag == "y":
        return bytes.fromhex(field)
    if tag == "t":
        return tuple(decode_strict(item) for item in field)
    if tag == "l":
        return [decode_strict(item) for item in field]
    if tag == "S":
        return frozenset(decode_strict(item) for item in field)
    if tag == "m":
        return {decode_strict(k): decode_strict(v) for k, v in field}
    raise ValueError(f"unknown strict-payload tag {tag!r}")


def _decode_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A ``map`` entry's payload with its result decoded; a damaged
    value raises, which :meth:`~repro.cache.store.ResultCache.get`
    counts as one corrupt miss."""
    return {"result": decode_strict(payload["result"])}


# ----------------------------------------------------------------------
# recipes
def _pickle_b64(obj: Any) -> Optional[str]:
    try:
        return base64.b64encode(pickle.dumps(obj)).decode("ascii")
    except Exception:
        return None


def _unpickle_b64(blob: str) -> Any:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def _fn_ref(fn: Callable[..., Any]) -> Optional[List[str]]:
    token = cache_token(fn)  # raises UncacheableError upstream if unstable
    if isinstance(token, list) and token and token[0] == "fn":
        return [token[1], token[2]]
    return None


def _resolve_fn_ref(module: str, qualname: str) -> Callable[..., Any]:
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


# ----------------------------------------------------------------------
# driver integration: ParallelExecutor.map with per-task caching
def cached_map(
    executor: Any,
    fn: Callable[..., Any],
    tasks: Sequence[Tuple],
    *,
    labels: Optional[Sequence[str]] = None,
    keys: Optional[Sequence[Any]] = None,
    config: Optional[Any] = None,
) -> List[Any]:
    """``executor.map(fn, tasks, labels=...)`` behind the result cache.

    ``keys[i]`` is the *semantic* identity of ``tasks[i]`` — the task
    tuple minus the resolved backend name ``run_grid`` appends, which is
    excluded because backends are proven bit-identical.  Hits are
    answered in the parent without dispatching; an entry whose value no
    longer decodes counts once, as a corrupt miss, and is recomputed.
    Only misses reach the executor (preserving original order), and
    their results are stored under strict encoding.  Any uncacheable
    task simply computes uncached.
    """
    from ..obs.progress import report_advance

    opened = open_cache(config)
    if opened is None:
        return executor.map(fn, tasks, labels=list(labels) if labels else None)
    cache, mode = opened
    try:
        fn_ref = _fn_ref(fn)
    except UncacheableError as exc:
        count_cache_event("uncacheable", reason=str(exc)[:120])
        return executor.map(fn, tasks, labels=list(labels) if labels else None)
    key_parts = list(keys) if keys is not None else [tuple(t) for t in tasks]
    if len(key_parts) != len(tasks):
        raise ValueError(
            f"cached_map: {len(key_parts)} keys for {len(tasks)} tasks"
        )
    missing = object()
    results: List[Any] = [missing] * len(tasks)
    task_keys: List[Optional[str]] = [None] * len(tasks)
    pending: List[int] = []
    for i, task in enumerate(tasks):
        try:
            key = cache_key("map", config, {"fn": fn, "key": key_parts[i]})
        except UncacheableError as exc:
            count_cache_event("uncacheable", reason=str(exc)[:120])
            pending.append(i)
            continue
        task_keys[i] = key
        payload = cache.get(key, decode=_decode_payload, kind="map")
        if payload is None:
            pending.append(i)
            continue
        results[i] = payload["result"]
        report_advance(label=(labels[i] if labels is not None else None))
    if pending:
        sub_tasks = [tasks[i] for i in pending]
        sub_labels = [labels[i] for i in pending] if labels is not None else None
        computed = executor.map(fn, sub_tasks, labels=sub_labels)
        for i, value in zip(pending, computed):
            results[i] = value
            key = task_keys[i]
            if key is None or mode != "rw":
                continue
            try:
                encoded = encode_strict(value)
            except UncacheableError as exc:
                count_cache_event("uncacheable", reason=str(exc)[:120])
                continue
            recipe: Optional[Dict[str, Any]] = None
            if fn_ref is not None:
                task_blob = _pickle_b64(tuple(tasks[i]))
                if task_blob is not None:
                    recipe = {"kind": "map", "fn": fn_ref, "task": task_blob}
            cache.put(key, {"result": encoded}, kind="map", recipe=recipe)
    return results


# ----------------------------------------------------------------------
# verification: re-run a stored entry from its recipe, compare payloads
def verify_entry(entry: Dict[str, Any]) -> Tuple[str, str]:
    """Re-execute one cache entry's recipe with caching off.

    Returns ``("ok", detail)`` when the recomputed payload is
    bit-identical to the stored one, ``("mismatch", detail)`` when it
    is not (semantic drift — the entry no longer reproduces), and
    ``("skip", reason)`` for entries without a usable recipe.
    """
    recipe = entry.get("recipe")
    payload = entry.get("payload")
    if not isinstance(recipe, dict) or payload is None:
        return "skip", "entry carries no recipe"
    kind = recipe.get("kind")
    if kind != "map":
        return "skip", f"unknown recipe kind {kind!r}"
    try:
        fresh = _recompute_map(recipe)
    except Exception as exc:  # a recipe that cannot replay is a skip, not a crash
        return "skip", f"recipe failed to replay: {exc}"
    if fresh == payload:
        detail = entry.get("key", "")[:12]
        return "ok", f"recomputed payload bit-identical ({detail})"
    return "mismatch", "recomputed payload differs from stored entry"


def _recompute_map(recipe: Dict[str, Any]) -> Dict[str, Any]:
    module, qualname = recipe["fn"]
    fn = _resolve_fn_ref(module, qualname)
    task = _unpickle_b64(recipe["task"])
    return {"result": encode_strict(fn(*task))}
