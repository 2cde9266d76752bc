"""Execution traces: everything the engine observed, round by round.

A trace is the raw material for all measurements — communication volume,
termination rounds, and (through :mod:`repro.network.causality`) the
dynamic diameter actually realized by the adversary.  Two traces are
compared by :func:`trace_fingerprint` (bit-identity) and
:func:`first_trace_divergence` (where they part).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

__all__ = [
    "RoundRecord",
    "ExecutionTrace",
    "trace_fingerprint",
    "first_trace_divergence",
]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one round.

    ``edges`` are normalized with ``u < v``.  ``sends`` maps each sending
    node to its payload, ``bits`` to that payload's encoded size.
    ``receivers`` are the nodes that chose to receive, and ``delivered``
    counts how many payloads each receiver got.
    """

    round: int
    edges: FrozenSet[Edge]
    sends: Dict[int, Any]
    bits: Dict[int, int]
    receivers: FrozenSet[int]
    delivered: Dict[int, int]

    @property
    def total_bits(self) -> int:
        """Bits placed on the air this round (one broadcast = one charge)."""
        return sum(self.bits.values())


@dataclass
class ExecutionTrace:
    """The full record of an execution."""

    num_nodes: int
    records: List[RoundRecord] = field(default_factory=list)
    #: round in which every node first had a non-None output, if reached
    termination_round: Optional[int] = None
    #: outputs at the end of the run, by node id
    outputs: Dict[int, Any] = field(default_factory=dict)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self.records)

    @property
    def rounds(self) -> int:
        """Number of rounds executed."""
        return len(self.records)

    def total_bits(self) -> int:
        """Total broadcast bits over the whole execution."""
        return sum(r.total_bits for r in self.records)

    def bits_by_node(self) -> Dict[int, int]:
        """Total broadcast bits per node id."""
        out: Dict[int, int] = {}
        for rec in self.records:
            for uid, b in rec.bits.items():
                out[uid] = out.get(uid, 0) + b
        return out

    def edge_schedule(self) -> List[FrozenSet[Edge]]:
        """The per-round edge sets, for causality / diameter analysis."""
        return [rec.edges for rec in self.records]

    def sends_of(self, uid: int) -> List[Tuple[int, Any]]:
        """All (round, payload) pairs node ``uid`` sent."""
        return [(rec.round, rec.sends[uid]) for rec in self.records if uid in rec.sends]


def trace_fingerprint(trace: ExecutionTrace) -> str:
    """A canonical digest of everything an execution trace recorded.

    Two runs with equal fingerprints produced byte-identical round
    records and outputs; the digest hashes the same canonical JSON lines
    the JSONL exporter writes.
    """
    from ..obs.export import _round_line, encode_payload

    h = hashlib.sha256()
    for record in trace:
        h.update(json.dumps(_round_line(record), sort_keys=True).encode())
    tail = {
        "termination_round": trace.termination_round,
        "outputs": {str(u): encode_payload(o) for u, o in sorted(trace.outputs.items())},
    }
    h.update(json.dumps(tail, sort_keys=True).encode())
    return h.hexdigest()


def first_trace_divergence(a: ExecutionTrace, b: ExecutionTrace) -> Optional[int]:
    """First 1-based round whose records differ, or None if identical."""
    from ..obs.export import _round_line

    for ra, rb in zip(a, b):
        if _round_line(ra) != _round_line(rb):
            return ra.round
    if a.rounds != b.rounds:
        return min(a.rounds, b.rounds) + 1
    if a.outputs != b.outputs or a.termination_round != b.termination_round:
        return a.rounds + 1
    return None
