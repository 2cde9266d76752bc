"""Structured JSONL export/import of execution traces.

One run = one JSONL file:

* line 1 — ``{"type": "manifest", ...}``: the :class:`RunManifest`
  fields plus the node-id set (enough to replay from metadata);
* one ``{"type": "round", ...}`` line per round, carrying the full
  :class:`~repro.sim.trace.RoundRecord` (edges, sends, bits, receivers,
  delivered counts);
* zero or more ``{"type": "ledger", ...}`` lines (format_version 2):
  proof-ledger records — per-round spoiled counts vs the Lemma 3/4
  budget, cut-crossing bit charges, adversary divergence rounds — as
  emitted by :class:`~repro.obs.ledger.ProofLedger`;
* last line — ``{"type": "summary", ...}``: termination round, outputs,
  totals, and (for runs an observation session recorded) ``run_metrics``:
  the run's counters, wall time and per-stage timing breakdown.

``format_version 2`` adds the ``ledger`` line type and the reduction-run
flavour (:func:`write_ledger_jsonl`: a manifest with ``kind:
"reduction"``, ledger lines, and a summary carrying the reduction
outcome — no round lines, since the two-party simulation has no single
engine trace).  The reader accepts both versions: a version-1 file simply
yields a :class:`PersistedRun` with an empty ``ledger`` list.  A file
declaring a newer ``format_version`` is refused with a ``ValueError``
naming the file and the version.

Payloads are arbitrary protocol values, so they are encoded with a small
tagged codec (:func:`encode_payload` / :func:`decode_payload`) that
round-trips the whole payload algebra :func:`repro._util.bit_size`
charges — None, bool, int, float, str, bytes, tuple, list, frozenset —
losslessly, preserving the tuple/list and int/bool distinctions JSON
alone would collapse.  Unknown objects degrade to a flagged ``repr``
(the trace stays readable; it just stops being replay-exact).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..sim.trace import ExecutionTrace, RoundRecord
from .manifest import RunManifest
from .stream import _check_fields

__all__ = [
    "encode_payload",
    "decode_payload",
    "write_trace_jsonl",
    "write_ledger_jsonl",
    "read_trace_jsonl",
    "PersistedRun",
]

#: Version 2 added "ledger" lines (proof-ledger records) and reduction
#: runs; the reader stays backward-compatible with version-1 files.
FORMAT_VERSION = 2


# ----------------------------------------------------------------------
# payload codec
def encode_payload(obj: Any) -> Any:
    """Encode one payload as a JSON-ready tagged value."""
    if obj is None:
        return ["n"]
    if isinstance(obj, bool):
        return ["b", obj]
    if isinstance(obj, int):
        return ["i", obj]
    if isinstance(obj, float):
        # hex round-trips exactly (json floats would too, but not NaN/inf)
        return ["f", obj.hex()]
    if isinstance(obj, str):
        return ["s", obj]
    if isinstance(obj, (bytes, bytearray)):
        return ["y", bytes(obj).hex()]
    if isinstance(obj, tuple):
        return ["t", [encode_payload(item) for item in obj]]
    if isinstance(obj, list):
        return ["l", [encode_payload(item) for item in obj]]
    if isinstance(obj, frozenset):
        # canonical member order: sort by each member's own encoding
        members = sorted((encode_payload(item) for item in obj), key=json.dumps)
        return ["S", members]
    return ["r", repr(obj)]  # lossy fallback, flagged by its tag


def decode_payload(value: Any) -> Any:
    """Invert :func:`encode_payload` (tag ``r`` decodes to its repr str)."""
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
        return tuple(decode_payload(item) for item in rest[0])
    if tag == "l":
        return [decode_payload(item) for item in rest[0]]
    if tag == "S":
        return frozenset(decode_payload(item) for item in rest[0])
    if tag == "r":
        return rest[0]
    raise ValueError(f"unknown payload tag {tag!r}")


# ----------------------------------------------------------------------
# trace writer / reader
def _round_line(record: RoundRecord) -> dict:
    return {
        "type": "round",
        "round": record.round,
        "edges": sorted([u, v] for u, v in record.edges),
        "sends": {str(uid): encode_payload(p) for uid, p in sorted(record.sends.items())},
        "bits": {str(uid): b for uid, b in sorted(record.bits.items())},
        "receivers": sorted(record.receivers),
        "delivered": {str(uid): c for uid, c in sorted(record.delivered.items())},
    }


def _record_from_line(line: dict) -> RoundRecord:
    return RoundRecord(
        round=line["round"],
        edges=frozenset((u, v) for u, v in line["edges"]),
        sends={int(uid): decode_payload(p) for uid, p in line["sends"].items()},
        bits={int(uid): b for uid, b in line["bits"].items()},
        receivers=frozenset(line["receivers"]),
        delivered={int(uid): c for uid, c in line["delivered"].items()},
    )


def write_trace_jsonl(
    trace: ExecutionTrace,
    path: pathlib.Path,
    manifest: Optional[RunManifest] = None,
    node_ids: Optional[Iterable[int]] = None,
    run_metrics: Optional[dict] = None,
    ledger: Optional[Iterable[dict]] = None,
) -> pathlib.Path:
    """Persist one execution trace (manifest line, rounds, ledger, summary)."""
    path = pathlib.Path(path)
    if manifest is None:
        manifest = RunManifest(seed=None, num_nodes=trace.num_nodes, adversary="?")
    head = {
        "type": "manifest",
        "format_version": FORMAT_VERSION,
        **manifest.as_dict(),
    }
    if node_ids is not None:
        head["node_ids"] = sorted(node_ids)
    summary = {
        "type": "summary",
        "rounds": trace.rounds,
        "termination_round": trace.termination_round,
        "total_bits": trace.total_bits(),
        "outputs": {str(uid): encode_payload(o) for uid, o in sorted(trace.outputs.items())},
    }
    if run_metrics:
        summary["run_metrics"] = run_metrics
    with path.open("w") as fh:
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for record in trace:
            fh.write(json.dumps(_round_line(record), sort_keys=True) + "\n")
        for entry in ledger or ():
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    return path


def write_ledger_jsonl(
    path: pathlib.Path,
    manifest: RunManifest,
    ledger: Iterable[dict],
    summary: Optional[dict] = None,
) -> pathlib.Path:
    """Persist a reduction run: manifest, ledger records, summary.

    The two-party simulation has no single :class:`ExecutionTrace` (two
    partial simulations exchange frames), so its persisted form is the
    format-version-2 file with zero round lines — the proof ledger *is*
    the trace.
    """
    path = pathlib.Path(path)
    head = {
        "type": "manifest",
        "format_version": FORMAT_VERSION,
        **manifest.as_dict(),
    }
    body = dict(summary or {})
    body["type"] = "summary"
    with path.open("w") as fh:
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for entry in ledger:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        fh.write(json.dumps(body, sort_keys=True) + "\n")
    return path


class PersistedRun:
    """A run read back from JSONL: trace + manifest + metrics + ledger."""

    def __init__(
        self,
        trace: ExecutionTrace,
        manifest: RunManifest,
        node_ids: Optional[Tuple[int, ...]],
        run_metrics: Optional[dict],
        summary: dict,
        ledger: Optional[List[dict]] = None,
        format_version: int = FORMAT_VERSION,
    ):
        self.trace = trace
        self.manifest = manifest
        self.node_ids = node_ids
        self.run_metrics = run_metrics
        self.summary = summary
        self.ledger = list(ledger) if ledger else []
        self.format_version = format_version

    @property
    def is_reduction(self) -> bool:
        """True for two-party reduction runs (ledger-only, no rounds)."""
        return self.manifest.kind == "reduction"

    @property
    def phase_seconds(self) -> Dict[str, float]:
        return dict((self.run_metrics or {}).get("phase_seconds", {}))

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.run_metrics and "wall_seconds" in self.run_metrics:
            return self.run_metrics["wall_seconds"]
        return self.manifest.wall_seconds


def _check_run_metrics(summary: dict) -> None:
    """Refuse a summary whose ``run_metrics`` readers cannot use.

    ``run_metrics`` must be an object, its ``wall_seconds`` a number and
    its ``phase_seconds`` an object of numbers; the :class:`ValueError`
    names the first field that is not.
    """
    if "run_metrics" not in summary:
        return
    _check_fields(summary, {"run_metrics": "object"}, ())
    metrics = summary["run_metrics"]
    _check_fields(
        metrics, {"wall_seconds": "number", "phase_seconds": "object"}, (),
        prefix="run_metrics.",
    )
    phases = metrics.get("phase_seconds", {})
    _check_fields(
        phases, dict.fromkeys(phases, "number"), (), prefix="run_metrics.phase_seconds."
    )


def read_trace_jsonl(path: pathlib.Path) -> PersistedRun:
    """Load a persisted run; inverse of :func:`write_trace_jsonl`."""
    path = pathlib.Path(path)
    head: Optional[dict] = None
    summary: dict = {}
    records: List[RoundRecord] = []
    ledger: List[dict] = []
    with path.open() as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSONL ({exc})") from exc
            if not isinstance(line, dict):
                raise ValueError(
                    f"{path}: expected JSON objects per line, got "
                    f"{type(line).__name__}"
                )
            kind = line.get("type")
            if kind == "manifest":
                head = line
            elif kind == "round":
                try:
                    records.append(_record_from_line(line))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{path}: malformed round line (round "
                        f"{line.get('round', '?')}): missing or invalid "
                        f"field {exc}"
                    ) from exc
            elif kind == "ledger":
                ledger.append(line)
            elif kind == "summary":
                try:
                    _check_run_metrics(line)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
                summary = line
            else:
                raise ValueError(f"unknown line type {kind!r} in {path}")
    if head is None:
        raise ValueError(f"{path}: no manifest line — not a run JSONL file")
    version = head.get("format_version", 1)
    if type(version) is not int:
        raise ValueError(
            f"{path}: field 'format_version' must be an integer, "
            f"got {type(version).__name__}"
        )
    if version > FORMAT_VERSION:
        raise ValueError(
            f"{path}: format_version {version} is newer than this reader "
            f"({FORMAT_VERSION})"
        )
    if "format_version" not in head and (ledger or head.get("kind") == "reduction"):
        # Ledger semantics (budgets, record kinds) are versioned; auditing
        # a ledger whose format is undeclared would check the wrong books.
        raise ValueError(
            f"{path}: ledger-bearing run file declares no format_version "
            f"(expected {FORMAT_VERSION}) — refusing to interpret its "
            f"proof-ledger records"
        )
    trace = ExecutionTrace(num_nodes=head.get("num_nodes", 0))
    for record in records:
        trace.append(record)
    trace.termination_round = summary.get("termination_round")
    trace.outputs = {
        int(uid): decode_payload(o) for uid, o in summary.get("outputs", {}).items()
    }
    node_ids = tuple(head["node_ids"]) if "node_ids" in head else None
    return PersistedRun(
        trace=trace,
        manifest=RunManifest.from_dict(head),
        node_ids=node_ids,
        run_metrics=summary.get("run_metrics"),
        summary=summary,
        ledger=ledger,
        format_version=version,
    )
