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

A round line is defined once: :func:`_round_line` gives its fields, and
its text is ``json.dumps(_round_line(record), sort_keys=True)``.
:func:`round_lines` produces exactly that text from fragments cached for
one pass over a trace, and it is the only producer: the run writer,
:func:`repro.sim.trace.trace_fingerprint` and
:func:`~repro.sim.trace.first_trace_divergence` all read it.  The caches
are sound by construction:

* an edge set's text is keyed by the set's ``id()``, and the cache holds
  the set, so no other object can take that ``id()`` while the text is
  served (the batch tape hands every round of one topology the same
  frozenset);
* a payload's text is keyed by its value and served only when
  :func:`~repro.sim.encoding.types_match` vouches that the stored
  payload encodes like the query (``True == 1``, ``1 == 1.0`` and
  ``0.0 == -0.0`` collide as keys but not as text); unhashable payloads,
  and payloads whose text holds a ``repr`` fallback (equal objects may
  print differently), are encoded every time;
* the ``"uid": `` key prefixes are built once per uid, and only for
  records whose ids, counts and round are all exact ``int``s; any other
  record is encoded through :func:`_round_line` itself.
"""

from __future__ import annotations

import json
import pathlib
from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..sim.encoding import types_match
from ..sim.trace import ExecutionTrace, RoundRecord
from .manifest import RunManifest
from .stream import _check_fields

__all__ = [
    "encode_payload",
    "decode_payload",
    "round_lines",
    "write_trace_jsonl",
    "write_ledger_jsonl",
    "read_trace_jsonl",
    "read_run_summary",
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


#: the text ``json.dumps(obj, sort_keys=True)`` returns
_canonical_json = json.JSONEncoder(sort_keys=True).encode

#: a structural ``["r", ...]`` in a payload's JSON text is the repr
#: fallback's tag: a string's own quotes are always escaped
_REPR_TAG = '["r", '

_INT_ONLY = frozenset((int,))


class _KeyTexts(dict):
    """uid -> its ``"uid": `` prefix, built on first use."""

    def __missing__(self, uid: int) -> str:
        text = self[uid] = f'"{uid}": '
        return text


def round_lines(records: Iterable[RoundRecord]) -> Iterator[str]:
    """The round line of each record, as JSON text without the newline.

    Each line is exactly ``json.dumps(_round_line(record),
    sort_keys=True)``.  Fragments (edge lists, payloads, key prefixes)
    are cached for the life of this iterator; see the module docstring
    for why a cached fragment is never served for a different value.
    """
    edge_texts: Dict[int, Tuple[Any, str]] = {}
    payload_texts: Dict[Any, Tuple[Any, str]] = {}
    key_text = _KeyTexts().__getitem__

    def payload_text(payload: Any) -> str:
        try:
            entry = payload_texts.get(payload)
        except TypeError:  # unhashable: never cached
            return _canonical_json(encode_payload(payload))
        if entry is not None and types_match(entry[0], payload):
            return entry[1]
        text = _canonical_json(encode_payload(payload))
        if entry is None and _REPR_TAG not in text:
            payload_texts[payload] = (payload, text)
        return text

    def object_text(mapping: Dict[int, Any], value_text: Callable[[Any], str]) -> str:
        # "10" < "2": the prefixes sort as their str(uid) keys do
        order = sorted(mapping, key=key_text)
        return "{" + ", ".join([key_text(u) + value_text(mapping[u]) for u in order]) + "}"

    for record in records:
        sends, bits, delivered = record.sends, record.bits, record.delivered
        receivers = record.receivers
        if not _INT_ONLY.issuperset(map(type, chain(
            (record.round,), sends, bits, bits.values(),
            delivered, delivered.values(), receivers,
        ))):
            yield _canonical_json(_round_line(record))
            continue
        edges = record.edges
        entry = edge_texts.get(id(edges))
        if entry is None:
            # holding ``edges`` keeps its id() from naming another set
            entry = edge_texts[id(edges)] = (
                edges, _canonical_json(sorted([u, v] for u, v in edges))
            )
        yield (
            '{"bits": ' + object_text(bits, str)
            + ', "delivered": ' + object_text(delivered, str)
            + ', "edges": ' + entry[1]
            + ', "receivers": [' + ", ".join(map(str, sorted(receivers)))
            + '], "round": ' + str(record.round)
            + ', "sends": ' + object_text(sends, payload_text)
            + ', "type": "round"}'
        )


def _edge_from_line(pair) -> Tuple[int, int]:
    """One recorded edge: a pair of distinct integer node ids."""
    if type(pair) is list and len(pair) == 2 and pair[0] != pair[1]:
        if type(pair[0]) is int and type(pair[1]) is int:
            return pair[0], pair[1]
    raise ValueError(f"'edges' ({pair!r} is not a pair of distinct integers)")


def _record_from_line(line: dict) -> RoundRecord:
    return RoundRecord(
        round=line["round"],
        edges=frozenset(_edge_from_line(pair) for pair in line["edges"]),
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
        for line in round_lines(trace):
            fh.write(line + "\n")
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


def _head_version(path: pathlib.Path, head: dict, has_ledger: bool) -> int:
    """The manifest's ``format_version``, refused if this reader cannot read it."""
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
    if "format_version" not in head and (has_ledger or head.get("kind") == "reduction"):
        # Ledger semantics (budgets, record kinds) are versioned; auditing
        # a ledger whose format is undeclared would check the wrong books.
        raise ValueError(
            f"{path}: ledger-bearing run file declares no format_version "
            f"(expected {FORMAT_VERSION}) — refusing to interpret its "
            f"proof-ledger records"
        )
    return version


def _head_node_ids(path: pathlib.Path, head: dict) -> Optional[Tuple[int, ...]]:
    node_ids = head.get("node_ids")
    if node_ids is None:
        return None
    if type(node_ids) is not list or any(type(u) is not int for u in node_ids):
        raise ValueError(f"{path}: field 'node_ids' must be a list of integers")
    return tuple(node_ids)


#: the summary fields the runs table of ``repro report`` shows
_SUMMARY_COLUMNS = ("rounds", "termination_round", "total_bits")


def read_run_summary(path: pathlib.Path) -> Tuple[RunManifest, dict]:
    """A run file's manifest and summary, without decoding its round lines.

    The summary an engine run's writer leaves carries ``rounds``,
    ``termination_round`` and ``total_bits``; here the manifest (first
    line) and summary (last line) get the checks
    :func:`read_trace_jsonl` gives them, and nothing between is parsed.
    A file whose first line is not a versioned manifest, or whose last
    is not such a summary (a torn file, a version-1 file, a hand-written
    one), is read in full instead and the three fields come from its
    rounds, so it gets exactly the reader's answer or its error.
    """
    path = pathlib.Path(path)
    lines = path.read_text().split("\n")
    numbered = [(lineno, raw) for lineno, raw in enumerate(lines, 1) if raw.strip()]
    if len(numbered) >= 2:
        head, summary = (_json_object(raw) for _, raw in (numbered[0], numbered[-1]))
        if (
            head.get("type") == "manifest" and "format_version" in head
            and summary.get("type") == "summary"
            and (head.get("kind") == "reduction"
                 or all(name in summary for name in _SUMMARY_COLUMNS))
        ):
            _head_version(path, head, False)
            _head_node_ids(path, head)
            try:
                _check_run_metrics(summary)
            except ValueError as exc:
                raise ValueError(f"{path}: line {numbered[-1][0]}: {exc}") from None
            return RunManifest.from_dict(head), summary
    run = read_trace_jsonl(path)
    if run.is_reduction:
        return run.manifest, run.summary
    return run.manifest, dict(
        run.summary,
        rounds=run.trace.rounds,
        termination_round=run.trace.termination_round,
        total_bits=run.trace.total_bits(),
    )


def _json_object(raw: str) -> dict:
    """One line's JSON object; ``{}`` when it is not one (the caller falls back)."""
    try:
        line = json.loads(raw)
    except json.JSONDecodeError:
        return {}
    return line if isinstance(line, dict) else {}


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
    version = _head_version(path, head, bool(ledger))
    trace = ExecutionTrace(num_nodes=head.get("num_nodes", 0))
    for record in records:
        trace.append(record)
    trace.termination_round = summary.get("termination_round")
    trace.outputs = {
        int(uid): decode_payload(o) for uid, o in summary.get("outputs", {}).items()
    }
    node_ids = _head_node_ids(path, head)
    if node_ids is not None:
        known = frozenset(node_ids)
        for record in records:
            if not known.issuperset(chain.from_iterable(record.edges)):
                raise ValueError(
                    f"{path}: malformed round line (round {record.round}): "
                    f"field 'edges' names a node outside the manifest's node_ids"
                )
    return PersistedRun(
        trace=trace,
        manifest=RunManifest.from_dict(head),
        node_ids=node_ids,
        run_metrics=summary.get("run_metrics"),
        summary=summary,
        ledger=ledger,
        format_version=version,
    )
