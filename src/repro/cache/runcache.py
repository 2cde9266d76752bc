"""Run/replication/cell payloads: what the result cache stores and serves.

The cache stores *measurements*, not full traces: per run it keeps the
manifest-shaped provenance, the canonical trace fingerprint (the same
sha256 :func:`repro.sim.trace.trace_fingerprint` computes from the
JSONL round lines), and the derived aggregates every consumer reads —
rounds, termination, total/per-node bits, outputs.  A served run comes
back as a :class:`~repro.sim.runner.ProtocolRun` whose trace is a
:class:`CachedTrace`: the aggregate API (``total_bits``,
``bits_by_node``, ``rounds``, ``outputs``) answers from the stored
values, while the per-round record list is empty — so
``run.fingerprint`` (not ``trace_fingerprint(run.trace)``) is the
identity of a cached run, and :func:`run_fingerprint` picks the right
one for either case.

Storage is **strict**: payloads are encoded with the same tagged codec
as the JSONL exporter plus a ``"m"`` dict tag, and any value that would
degrade to the exporter's lossy ``repr`` fallback raises
:class:`~repro.cache.key.UncacheableError` instead — the run proceeds
uncached.  Serving an approximation would break the bit-identity
contract the cache exists to honor.

Entries written by the high-level drivers also embed a *recipe* — the
pickled factories (or the cell function's module/qualname plus its
arguments) — so ``repro cache verify`` can re-execute a sampled entry
from the entry alone and assert the recomputed payload is
bit-identical.  Unpicklable inputs simply get no recipe (the entry is
then reported as unverifiable, never wrong).
"""

from __future__ import annotations

import base64
import importlib
import pickle
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .key import UncacheableError, cache_key, cache_token, semantic_config
from .store import ResultCache, count_cache_event, open_cache

__all__ = [
    "CachedTrace",
    "encode_strict",
    "decode_strict",
    "run_payload",
    "build_cached_run",
    "run_fingerprint",
    "run_key",
    "replicate_key",
    "lookup_run",
    "store_run",
    "lookup_replicate",
    "store_replicate",
    "cell_key",
    "cached_map",
    "verify_entry",
]


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
    """Invert :func:`encode_strict`."""
    tag, *rest = value
    if tag == "n":
        return None
    if tag in ("b", "i", "s"):
        return rest[0]
    if tag == "f":
        return float.fromhex(rest[0])
    if tag == "y":
        return bytes.fromhex(rest[0])
    if tag == "t":
        return tuple(decode_strict(item) for item in rest[0])
    if tag == "l":
        return [decode_strict(item) for item in rest[0]]
    if tag == "S":
        return frozenset(decode_strict(item) for item in rest[0])
    if tag == "m":
        return {decode_strict(k): decode_strict(v) for k, v in rest[0]}
    raise ValueError(f"unknown strict-payload tag {tag!r}")


# ----------------------------------------------------------------------
# cached runs
class CachedTrace:
    """An :class:`~repro.sim.trace.ExecutionTrace`-shaped answer built
    from stored aggregates: totals and outputs are exact, the per-round
    record list is empty (the cache does not store full traces)."""

    def __init__(
        self,
        num_nodes: int,
        termination_round: Optional[int],
        outputs: Dict[int, Any],
        total_bits: int,
        bits_by_node: Dict[int, int],
        rounds: int,
    ) -> None:
        self.num_nodes = num_nodes
        self.records: List[Any] = []
        self.termination_round = termination_round
        self.outputs = outputs
        self._total_bits = total_bits
        self._bits_by_node = dict(bits_by_node)
        self._rounds = rounds

    @property
    def rounds(self) -> int:
        return self._rounds

    def total_bits(self) -> int:
        return self._total_bits

    def bits_by_node(self) -> Dict[int, int]:
        return dict(self._bits_by_node)

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())


def run_fingerprint(run: Any) -> str:
    """The canonical trace fingerprint of a run, fresh or cached."""
    if getattr(run, "fingerprint", None) is not None:
        return run.fingerprint
    from ..sim.trace import trace_fingerprint

    return trace_fingerprint(run.trace)


def run_payload(run: Any, config: Any) -> Dict[str, Any]:
    """What the cache stores for one finished run (strict encoding)."""
    from ..sim.trace import trace_fingerprint

    trace = run.trace
    return {
        "manifest": {
            "seed": config.seed,
            "max_rounds": config.max_rounds,
            "bandwidth_factor": config.bandwidth_factor,
            "check_connected": config.check_connected,
            "num_nodes": trace.num_nodes,
            "backend": run.backend,
            "representation": run.representation,
        },
        "fingerprint": trace_fingerprint(trace),
        "rounds": run.rounds,
        "terminated": run.terminated,
        "termination_round": trace.termination_round,
        "trace_rounds": trace.rounds,
        "total_bits": trace.total_bits(),
        "bits_by_node": {str(u): b for u, b in sorted(trace.bits_by_node().items())},
        "outputs": {str(u): encode_strict(o) for u, o in sorted(trace.outputs.items())},
    }


def build_cached_run(payload: Dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.sim.runner.ProtocolRun` from a payload."""
    from ..sim.runner import ProtocolRun

    manifest = payload["manifest"]
    outputs = {int(u): decode_strict(o) for u, o in payload["outputs"].items()}
    trace = CachedTrace(
        num_nodes=manifest["num_nodes"],
        termination_round=payload["termination_round"],
        outputs=outputs,
        total_bits=payload["total_bits"],
        bits_by_node={int(u): b for u, b in payload["bits_by_node"].items()},
        rounds=payload["trace_rounds"],
    )
    return ProtocolRun(
        trace=trace,
        terminated=payload["terminated"],
        rounds=payload["rounds"],
        outputs=outputs,
        backend=manifest["backend"],
        representation=manifest.get("representation"),
        cached=True,
        fingerprint=payload["fingerprint"],
    )


# ----------------------------------------------------------------------
# keys + recipes
def run_key(config: Any, make_nodes: Any, make_adversary: Any) -> str:
    return cache_key(
        "run", config, {"nodes": make_nodes, "adversary": make_adversary}
    )


def replicate_key(
    config: Any, make_nodes: Any, make_adversary: Any, seeds: Sequence[int]
) -> str:
    # the explicit seed sequence governs; config.seed is documented as
    # ignored by replicate, so it must not perturb the key
    cfg = config.evolve(seed=None) if getattr(config, "seed", None) is not None else config
    return cache_key(
        "replicate",
        cfg,
        {
            "nodes": make_nodes,
            "adversary": make_adversary,
            "seeds": tuple(int(s) for s in seeds),
        },
    )


def cell_key(config: Any, fn: Callable[..., Any], cell: Mapping[str, Any]) -> str:
    return cache_key("cell", config, {"fn": fn, "cell": dict(cell)})


def _pickle_b64(obj: Any) -> Optional[str]:
    try:
        return base64.b64encode(pickle.dumps(obj)).decode("ascii")
    except Exception:
        return None


def _unpickle_b64(blob: str) -> Any:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def _factories_recipe(
    kind: str, config: Any, make_nodes: Any, make_adversary: Any,
    seeds: Optional[Sequence[int]] = None,
) -> Optional[Dict[str, Any]]:
    nodes_blob = _pickle_b64(make_nodes)
    adv_blob = _pickle_b64(make_adversary)
    if nodes_blob is None or adv_blob is None:
        return None
    recipe: Dict[str, Any] = {
        "kind": kind,
        "config": semantic_config(config),
        "make_nodes": nodes_blob,
        "make_adversary": adv_blob,
    }
    if seeds is not None:
        recipe["seeds"] = [int(s) for s in seeds]
    return recipe


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
# runner integration (run_protocol / replicate)
def lookup_run(
    config: Any, make_nodes: Any, make_adversary: Any
) -> Tuple[Optional[str], Optional[ResultCache], Optional[str], Optional[Any]]:
    """``(key, cache, mode, run)`` for run_protocol's cache consult.

    ``run`` is the served result on a hit; key/cache are None when the
    cell is uncacheable (the caller then skips the store step too).
    """
    opened = open_cache(config)
    if opened is None:
        return None, None, None, None
    cache, mode = opened
    try:
        key = run_key(config, make_nodes, make_adversary)
    except UncacheableError as exc:
        count_cache_event("uncacheable", reason=str(exc)[:120])
        return None, None, None, None
    payload = cache.get(key, kind="run")
    if payload is not None:
        try:
            return key, cache, mode, build_cached_run(payload)
        except (KeyError, TypeError, ValueError):
            # entry validated as JSON but its payload is from some older
            # schema: treat exactly like a torn entry — miss + rewrite
            count_cache_event("corrupt", key=key[:12], kind="run")
    return key, cache, mode, None


def store_run(
    key: str, cache: ResultCache, config: Any, make_nodes: Any,
    make_adversary: Any, run: Any,
) -> None:
    try:
        payload = run_payload(run, config)
    except UncacheableError as exc:
        count_cache_event("uncacheable", reason=str(exc)[:120])
        return
    recipe = _factories_recipe("run", config, make_nodes, make_adversary)
    cache.put(key, payload, kind="run", recipe=recipe)


def lookup_replicate(
    config: Any, make_nodes: Any, make_adversary: Any, seeds: Sequence[int]
) -> Tuple[Optional[str], Optional[ResultCache], Optional[str], Optional[Any]]:
    """``(key, cache, mode, summary)`` for replicate's cache consult."""
    opened = open_cache(config)
    if opened is None:
        return None, None, None, None
    cache, mode = opened
    try:
        key = replicate_key(config, make_nodes, make_adversary, seeds)
    except UncacheableError as exc:
        count_cache_event("uncacheable", reason=str(exc)[:120])
        return None, None, None, None
    payload = cache.get(key, kind="replicate")
    if payload is not None:
        try:
            runs = [build_cached_run(p) for p in payload["runs"]]
        except (KeyError, TypeError, ValueError):
            count_cache_event("corrupt", key=key[:12], kind="replicate")
        else:
            from ..sim.runner import ReplicationSummary

            return key, cache, mode, ReplicationSummary(runs=runs)
    return key, cache, mode, None


def store_replicate(
    key: str, cache: ResultCache, config: Any, make_nodes: Any,
    make_adversary: Any, seeds: Sequence[int], summary: Any,
) -> None:
    per_seed = config.evolve(seed=None)
    runs_payload = []
    try:
        for seed, run in zip(seeds, summary.runs):
            runs_payload.append(run_payload(run, per_seed.evolve(seed=seed)))
    except UncacheableError as exc:
        count_cache_event("uncacheable", reason=str(exc)[:120])
        return
    recipe = _factories_recipe(
        "replicate", config, make_nodes, make_adversary, seeds=seeds
    )
    cache.put(key, {"runs": runs_payload}, kind="replicate", recipe=recipe)


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
    kind: str = "map",
) -> List[Any]:
    """``executor.map(fn, tasks, labels=...)`` behind the result cache.

    ``keys[i]`` is the *semantic* identity of ``tasks[i]`` — typically
    the task tuple minus the resolved backend name, which is excluded
    because backends are proven bit-identical.  Hits are answered in
    the parent without dispatching; only misses reach the executor
    (preserving original order), and their results are stored under
    strict encoding.  Any uncacheable task simply computes uncached.
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
            key = cache_key(kind, config, {"fn": fn, "key": key_parts[i]})
        except UncacheableError as exc:
            count_cache_event("uncacheable", reason=str(exc)[:120])
            pending.append(i)
            continue
        task_keys[i] = key
        payload = cache.get(key, kind=kind)
        if payload is not None:
            try:
                results[i] = decode_strict(payload["result"])
            except (KeyError, TypeError, ValueError):
                count_cache_event("corrupt", key=key[:12], kind=kind)
                pending.append(i)
            else:
                report_advance(
                    label=(labels[i] if labels is not None else None)
                )
            continue
        pending.append(i)
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
            cache.put(key, {"result": encoded}, kind=kind, recipe=recipe)
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
    try:
        if kind == "run":
            fresh = _recompute_run(recipe)
        elif kind == "replicate":
            fresh = _recompute_replicate(recipe)
        elif kind == "cell":
            fresh = _recompute_cell(recipe)
        elif kind == "map":
            fresh = _recompute_map(recipe)
        else:
            return "skip", f"unknown recipe kind {kind!r}"
    except Exception as exc:  # a recipe that cannot replay is a skip, not a crash
        return "skip", f"recipe failed to replay: {exc}"
    if fresh == payload:
        detail = entry.get("key", "")[:12]
        return "ok", f"recomputed payload bit-identical ({detail})"
    return "mismatch", "recomputed payload differs from stored entry"


def _recipe_config(recipe: Dict[str, Any]) -> Any:
    from ..sim.config import RunConfig

    cfg = dict(recipe.get("config", {}))
    cfg["cache"] = "off"
    return RunConfig.from_dict(cfg)


def _recompute_run(recipe: Dict[str, Any]) -> Dict[str, Any]:
    from ..sim.runner import run_protocol

    cfg = _recipe_config(recipe)
    run = run_protocol(
        _unpickle_b64(recipe["make_nodes"]),
        _unpickle_b64(recipe["make_adversary"]),
        cfg,
    )
    return run_payload(run, cfg)


def _recompute_replicate(recipe: Dict[str, Any]) -> Dict[str, Any]:
    from ..sim.runner import replicate

    cfg = _recipe_config(recipe)
    seeds = [int(s) for s in recipe["seeds"]]
    summary = replicate(
        _unpickle_b64(recipe["make_nodes"]),
        _unpickle_b64(recipe["make_adversary"]),
        seeds,
        cfg,
    )
    per_seed = cfg.evolve(seed=None)
    return {
        "runs": [
            run_payload(run, per_seed.evolve(seed=seed))
            for seed, run in zip(seeds, summary.runs)
        ]
    }


def _recompute_cell(recipe: Dict[str, Any]) -> Dict[str, Any]:
    module, qualname = recipe["fn"]
    fn = _resolve_fn_ref(module, qualname)
    cell = decode_strict(recipe["cell"])
    row = dict(cell)
    row.update(fn(**cell))
    return {"row": encode_strict(row)}


def _recompute_map(recipe: Dict[str, Any]) -> Dict[str, Any]:
    module, qualname = recipe["fn"]
    fn = _resolve_fn_ref(module, qualname)
    task = _unpickle_b64(recipe["task"])
    return {"result": encode_strict(fn(*task))}
