"""Run manifests: enough metadata to re-create (or diff) any run.

A :class:`RunManifest` pins down one engine execution — public seed, node
count, adversary, bandwidth factor, package version, wall time — so a
persisted JSONL trace can be replayed from metadata alone: construct the
same nodes/adversary, pass ``CoinSource(seed)``, and the engine
reproduces the run bit for bit (the whole simulator is deterministic in
the seed).  A :class:`SessionManifest` aggregates the per-run manifests
of everything recorded under one observation session; it is persisted
as events of the session log (:mod:`repro.obs.stream`), never as a file
of its own.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "RunManifest",
    "SessionManifest",
    "collect_provenance",
]


@functools.lru_cache(maxsize=1)
def _git_sha() -> Optional[str]:
    """HEAD of the repository containing the working directory, if any.

    Cached per process: sessions are cheap to open and a subprocess per
    ``observe()`` would not be.  ``None`` outside a git checkout (an
    installed package still records host provenance).
    """
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def collect_provenance() -> Dict[str, Any]:
    """Where/what produced a session or benchmark record.

    The same stamp serves the session manifest (this module) and the
    benchmark history store (:mod:`repro.obs.benchdiff`): enough to tell
    two measurements apart by code version and host shape.
    """
    import os
    import platform
    import socket

    return {
        "git_sha": _git_sha(),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
    }


def _package_version() -> str:
    from .. import __version__

    return __version__


@dataclass
class RunManifest:
    """Metadata of one engine run (one JSONL trace file)."""

    seed: Optional[int]
    num_nodes: int
    adversary: str
    bandwidth_factor: Optional[int] = None
    check_connected: bool = True
    package_version: str = field(default_factory=_package_version)
    wall_seconds: Optional[float] = None
    #: trace filename relative to the session directory, once persisted
    trace_file: Optional[str] = None
    #: "engine" for SynchronousEngine traces, "reduction" for two-party
    #: reduction runs whose persisted form is the proof ledger
    kind: str = "engine"
    #: which execution backend produced the run ("reference" or "batch");
    #: the backends are bit-identical, so this is provenance, not meaning
    backend: str = "reference"
    #: batch backend only: the adjacency representation the schedule tape
    #: used ("dense"/"bitset"/"csr") and the dense cutoff it ran under —
    #: provenance for the perf model, None on reference runs
    representation: Optional[str] = None
    dense_node_limit: Optional[int] = None

    @classmethod
    def from_engine(cls, engine: Any) -> "RunManifest":
        """Capture an engine's identifying parameters."""
        coin_source = getattr(engine, "coin_source", None)
        backend = getattr(engine, "backend", "reference")
        return cls(
            seed=getattr(coin_source, "seed", None),
            num_nodes=len(engine.nodes),
            adversary=type(engine.adversary).__name__,
            bandwidth_factor=getattr(engine, "bandwidth_factor", None),
            check_connected=getattr(engine, "check_connected", True),
            backend=backend,
            representation=getattr(engine, "representation", None),
            dense_node_limit=(
                getattr(engine, "dense_node_limit", None)
                if backend == "batch"
                else None
            ),
        )

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class SessionManifest:
    """Everything one observation session recorded."""

    label: Optional[str] = None
    package_version: str = field(default_factory=_package_version)
    wall_seconds: Optional[float] = None
    runs: List[RunManifest] = field(default_factory=list)
    #: registry snapshot at session close (counters/gauges/histograms)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: largest process-pool worker count whose runs merged into this
    #: session (0 = everything ran inline/sequentially)
    workers: int = 0
    #: provenance stamp (git SHA, hostname, cpu_count, python version)
    provenance: Dict[str, Any] = field(default_factory=dict)
