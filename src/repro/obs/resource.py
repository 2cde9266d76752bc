"""Background resource sampling: RSS, CPU, GC — the machine's side of a sweep.

Long sweeps fail for machine reasons as often as code reasons — memory
creep from an interned-tape cache, a worker pinning one core while the
rest idle, GC pressure from trace accumulation.  This module runs one
daemon thread per streaming session that samples the process every
``interval`` seconds and records each sample two ways:

* **gauges** — ``process_rss_bytes``, ``process_cpu_percent``,
  ``process_gc_collections`` in the session's metrics registry, so the
  checkpointed and final metrics snapshots carry the last-known machine
  state;
* **heartbeat events** — the full sample as one ``heartbeat`` line of
  the session log, which is both the resource timeline ``repro
  report`` summarizes and what keeps ``repro tail`` honest about a
  session that is alive but between runs (a 20-minute N=4096 cell
  emits no run-complete events while it grinds).

The thread is a ``daemon`` — it can never hold the interpreter (or a
``kill -9``'d parent's reaper) hostage — and sampling is wait-free for
the simulation: no locks shared with the round loop, just gauge stores.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "RESOURCE_INTERVAL_ENV",
    "DEFAULT_INTERVAL",
    "sample_resources",
    "ResourceSampler",
    "summarize_resources",
]

#: Environment override for the sampling interval in seconds; ``0``
#: disables the sampler even for streaming sessions.
RESOURCE_INTERVAL_ENV = "REPRO_RESOURCE_INTERVAL"

DEFAULT_INTERVAL = 1.0


def _rss_bytes() -> Optional[int]:
    """Current resident set size, preferring ``/proc`` (Linux) with a
    peak-RSS fallback from ``getrusage`` elsewhere."""
    try:
        with open("/proc/self/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource as _resource

        peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS
        return peak * 1024 if peak < 1 << 40 else peak
    except Exception:  # pragma: no cover - platforms without getrusage
        return None


def sample_resources() -> Dict[str, Any]:
    """One instantaneous sample (no deltas — the sampler computes those)."""
    stats = gc.get_stats()
    return {
        "rss_bytes": _rss_bytes(),
        "cpu_seconds": time.process_time(),
        "gc_collections": sum(s.get("collections", 0) for s in stats),
        "gc_collected": sum(s.get("collected", 0) for s in stats),
        "gc_counts": list(gc.get_count()),
    }


class ResourceSampler(threading.Thread):
    """The per-session sampling thread.

    Parameters
    ----------
    registry:
        The session's metrics registry, receiving the gauges.
    interval:
        Seconds between samples (resolved by the caller; must be > 0).
    emit:
        Callback for heartbeat events (the session log), called with
        the sample as keyword payload; None disables.
    on_tick:
        Extra per-sample callback (the session hooks its periodic
        checkpoint here); exceptions are swallowed — sampling must
        never take the sweep down.
    """

    def __init__(
        self,
        registry: Any = None,
        interval: float = DEFAULT_INTERVAL,
        emit: Optional[Callable[..., None]] = None,
        on_tick: Optional[Callable[[], None]] = None,
    ):
        super().__init__(name="repro-resource-sampler", daemon=True)
        self.registry = registry
        self.interval = float(interval)
        self.emit = emit
        self.on_tick = on_tick
        self._halt = threading.Event()
        self._last_wall = time.perf_counter()
        self._last_cpu = time.process_time()

    def run(self) -> None:  # pragma: no cover - exercised via real threads
        while not self._halt.wait(self.interval):
            self.sample_once()

    def sample_once(self) -> Optional[dict]:
        """Take and record one sample (also called directly by tests)."""
        try:
            now = time.perf_counter()
            sample = sample_resources()
            wall_delta = now - self._last_wall
            cpu_delta = sample["cpu_seconds"] - self._last_cpu
            self._last_wall, self._last_cpu = now, sample["cpu_seconds"]
            sample["cpu_percent"] = round(
                100.0 * cpu_delta / wall_delta if wall_delta > 0 else 0.0, 2
            )
            self._gauges(sample)
            if self.emit is not None:
                self.emit(**sample)
            if self.on_tick is not None:
                self.on_tick()
            return sample
        except Exception:  # pragma: no cover - sampling never kills a sweep
            return None

    def _gauges(self, sample: dict) -> None:
        if self.registry is None:
            return
        if sample["rss_bytes"] is not None:
            self.registry.gauge("process_rss_bytes").set(sample["rss_bytes"])
        self.registry.gauge("process_cpu_percent").set(sample["cpu_percent"])
        self.registry.gauge("process_gc_collections").set(sample["gc_collections"])

    def stop(self) -> None:
        """Signal the thread and wait briefly for it to finish."""
        self._halt.set()
        if self.is_alive():
            self.join(timeout=max(1.0, 2 * self.interval))


def resolve_interval(interval: Optional[float] = None) -> float:
    """Effective sampling interval: argument, else env, else the default.

    ``0`` (or negative) disables sampling.
    """
    if interval is not None:
        return float(interval)
    raw = os.environ.get(RESOURCE_INTERVAL_ENV, "").strip()
    if raw:
        try:
            return float(raw)
        except ValueError:
            from ..errors import ConfigurationError

            raise ConfigurationError(
                f"{RESOURCE_INTERVAL_ENV}={raw!r} is not a number of seconds"
            ) from None
    return DEFAULT_INTERVAL


def summarize_resources(samples: List[dict]) -> Optional[Dict[str, Any]]:
    """Rollup for ``repro report`` (None: no samples).

    ``samples`` are heartbeat events; ``elapsed`` is their time into
    the session.
    """
    if not samples:
        return None
    rss = [s["rss_bytes"] for s in samples if s.get("rss_bytes") is not None]
    cpu = [s["cpu_percent"] for s in samples if s.get("cpu_percent") is not None]
    gcs = [s["gc_collections"] for s in samples if s.get("gc_collections") is not None]
    return {
        "samples": len(samples),
        "duration_seconds": samples[-1].get("elapsed", 0.0),
        "rss_peak_bytes": max(rss) if rss else None,
        "rss_last_bytes": rss[-1] if rss else None,
        "cpu_percent_mean": sum(cpu) / len(cpu) if cpu else None,
        "cpu_percent_max": max(cpu) if cpu else None,
        "gc_collections": (gcs[-1] - gcs[0]) if len(gcs) >= 2 else 0,
    }
