"""The on-disk result cache: atomic JSON entries under a content hash.

Layout (everything beneath one root, ``$REPRO_CACHE_DIR`` or
``~/.cache/repro``)::

    <root>/objects/<key[:2]>/<key>.json     one entry per cache key

Each entry is a single JSON object::

    {"format_version": 1, "key": "<sha256>", "kind": "map",
     "created_unix": 1723...,  "recipe": {...} | null,
     "payload": {"result": <strict-encoded task result>}}

Writes are atomic (a ``*.tmp`` sibling, then ``os.replace``): readers
never observe a half-written entry, and a crash mid-store leaves at
worst a stale ``*.tmp`` sibling that the next store of that key
overwrites.

Reads are forgiving: a truncated, corrupt, non-UTF-8, wrong-version,
or wrong-key entry is counted (``corrupt``) and treated as a miss — the
caller recomputes and rewrites.  A cache must never convert disk rot
into a traceback, and never serve an entry it cannot fully validate.

Counters (hit/miss/store/corrupt/uncacheable) accumulate in a
process-local snapshot (:func:`cache_counters`) and mirror into the
ambient observation session's metrics registry plus zero-duration span
events, so ``repro report``/``tail`` show cache behaviour per cell.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..sim.config import resolve_cache

__all__ = [
    "ENTRY_FORMAT_VERSION",
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "resolve_cache_dir",
    "open_cache",
    "cache_counters",
    "reset_cache_counters",
    "count_cache_event",
]

#: Bump when the entry envelope changes; old entries become misses.
ENTRY_FORMAT_VERSION = 1

#: environment variable supplying the cache root (cf. REPRO_CACHE)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: default cache root when neither config nor environment names one
DEFAULT_CACHE_DIR = "~/.cache/repro"

_COUNTER_NAMES = ("hit", "miss", "store", "corrupt", "uncacheable")
_COUNTERS: Dict[str, int] = {name: 0 for name in _COUNTER_NAMES}


def cache_counters() -> Dict[str, int]:
    """A snapshot of this process's cache event counts."""
    return dict(_COUNTERS)


def reset_cache_counters() -> None:
    """Zero the process-local counters (tests, per-job deltas)."""
    for name in _COUNTER_NAMES:
        _COUNTERS[name] = 0


def count_cache_event(event: str, **tags: Any) -> None:
    """Count one cache event: process snapshot + ambient session mirror."""
    _COUNTERS[event] += 1
    from ..obs.runtime import current_session
    from ..obs.spans import span_event

    session = current_session()
    if session is not None:
        session.registry.counter(f"cache_{event}_total").inc()
    span_event(f"cache-{event}", **tags)


def resolve_cache_dir(cache_dir: Optional[str]) -> pathlib.Path:
    """Resolve a cache root: explicit > ``$REPRO_CACHE_DIR`` > default."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV, "").strip() or DEFAULT_CACHE_DIR
    return pathlib.Path(os.path.expanduser(str(cache_dir)))


def open_cache(config: Optional[Any]) -> Optional[Tuple["ResultCache", str]]:
    """``(cache, mode)`` for a config, or None when caching is off.

    Mode follows the established precedence (explicit ``config.cache``
    beats ``$REPRO_CACHE`` beats off); the directory likewise.
    """
    cache_attr = getattr(config, "cache", None)
    mode = resolve_cache(cache_attr)
    if mode == "off":
        return None
    root = resolve_cache_dir(getattr(config, "cache_dir", None))
    return ResultCache(root), mode


class ResultCache:
    """Content-addressed result store; every operation is crash-safe."""

    def __init__(self, root: pathlib.Path) -> None:
        self.root = pathlib.Path(root)

    @property
    def objects_dir(self) -> pathlib.Path:
        return self.root / "objects"

    def entry_path(self, key: str) -> pathlib.Path:
        return self.objects_dir / key[:2] / f"{key}.json"

    # -- read --------------------------------------------------------------
    def get(
        self,
        key: str,
        decode: Optional[Callable[[Any], Dict[str, Any]]] = None,
        **tags: Any,
    ) -> Optional[Dict[str, Any]]:
        """The entry's payload, or None (miss) — never a traceback.

        ``decode`` maps the stored payload to the one served; a
        ``KeyError``, ``TypeError`` or ``ValueError`` from it marks the
        entry damaged.  Anything short of a fully valid entry — absent
        file, torn JSON, bytes that are not UTF-8, wrong
        ``format_version``, wrong ``key``, a missing or undecodable
        ``payload`` — is a miss; invalid-but-present files additionally
        count as ``corrupt`` so rot is visible in the stats.  Each read
        counts once: as a hit, or as a miss.
        """
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            count_cache_event("miss", key=key[:12], **tags)
            return None
        entry = self._validate(raw, key)
        payload = None
        if entry is not None:
            payload = entry["payload"]
            if decode is not None:
                try:
                    payload = decode(payload)
                except (KeyError, TypeError, ValueError):
                    payload = None  # a well-formed envelope, a damaged value
        if payload is None:
            count_cache_event("corrupt", key=key[:12], **tags)
            count_cache_event("miss", key=key[:12], **tags)
            return None
        count_cache_event("hit", key=key[:12], **tags)
        return payload

    @staticmethod
    def _validate(raw: bytes, key: Optional[str]) -> Optional[Dict[str, Any]]:
        """Parse + fully validate one entry body; None means corrupt."""
        try:
            # UnicodeDecodeError and JSONDecodeError are both ValueErrors
            entry = json.loads(raw.decode("utf-8"))
        except ValueError:
            return None
        if not isinstance(entry, dict):
            return None
        if entry.get("format_version") != ENTRY_FORMAT_VERSION:
            return None
        if key is not None and entry.get("key") != key:
            return None
        if "payload" not in entry:
            return None
        return entry

    # -- write -------------------------------------------------------------
    def put(
        self,
        key: str,
        payload: Dict[str, Any],
        kind: str,
        recipe: Optional[Dict[str, Any]] = None,
        **tags: Any,
    ) -> pathlib.Path:
        """Store one entry atomically (tmp + ``os.replace``)."""
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format_version": ENTRY_FORMAT_VERSION,
            "key": key,
            "kind": kind,
            "created_unix": time.time(),
            "recipe": recipe,
            "payload": payload,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(entry, sort_keys=True) + "\n")
        os.replace(tmp, path)
        count_cache_event("store", key=key[:12], kind=kind, **tags)
        return path

    # -- maintenance -------------------------------------------------------
    def iter_entries(self) -> Iterator[Tuple[pathlib.Path, Optional[Dict[str, Any]]]]:
        """Every entry file with its parsed entry (None when corrupt)."""
        objects = self.objects_dir
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.json")):
            try:
                raw = path.read_bytes()
            except OSError:  # pragma: no cover - racing deletion
                continue
            yield path, self._validate(raw, None)

    def stats(self) -> Dict[str, Any]:
        """Entry count, total bytes, per-kind breakdown, corrupt count."""
        entries = 0
        total_bytes = 0
        corrupt = 0
        by_kind: Dict[str, int] = {}
        for path, entry in self.iter_entries():
            total_bytes += path.stat().st_size
            if entry is None:
                corrupt += 1
                continue
            entries += 1
            kind = str(entry.get("kind", "?"))
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return {
            "root": str(self.root),
            "entries": entries,
            "corrupt": corrupt,
            "total_bytes": total_bytes,
            "by_kind": dict(sorted(by_kind.items())),
        }

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Prune by age, then by total size (oldest entries first).

        Corrupt entries are always pruned — they can never hit again.
        Returns ``{"removed": n, "kept": n, "bytes_freed": n}``.
        """
        now = time.time() if now is None else now
        keep: List[Tuple[float, pathlib.Path, int]] = []
        removed = 0
        bytes_freed = 0
        for path, entry in self.iter_entries():
            size = path.stat().st_size
            created = entry.get("created_unix", 0.0) if entry else 0.0
            expired = (
                entry is None
                or not isinstance(created, (int, float))
                or (
                    max_age_seconds is not None
                    and now - float(created) > max_age_seconds
                )
            )
            if expired:
                path.unlink(missing_ok=True)
                removed += 1
                bytes_freed += size
                continue
            keep.append((float(created), path, size))
        if max_bytes is not None:
            keep.sort()  # oldest first
            total = sum(size for _, _, size in keep)
            while keep and total > max_bytes:
                _, path, size = keep.pop(0)
                path.unlink(missing_ok=True)
                removed += 1
                bytes_freed += size
                total -= size
        return {"removed": removed, "kept": len(keep), "bytes_freed": bytes_freed}
