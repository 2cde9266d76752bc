"""The proof ledger: mechanical accounting of the lower-bound proofs.

PR 1 made the *engine* observable; this module makes the **proof
objects** observable.  The paper's Theorem-6/7 arguments live in three
ledgers that the happy path of :mod:`repro.core.simulation` never used
to record:

* the **spoiled-node discipline** (Lemmas 3/4): each party may only stop
  simulating nodes on the exact schedule the closed forms of
  :mod:`repro.core.chains` dictate.  The ledger recomputes that budget
  curve independently from the chain labels and checks the simulator's
  measured spoiled set against it every round — a party spoiling a node
  one round early is a construction bug even when no delivery ever
  consults that node (the silent failure mode ``repro audit`` exists to
  catch);
* the **cut-charging argument** (Lemma 5): only the four special nodes'
  per-round frames ever cross the Alice/Bob cut, so total communication
  is O(s log N).  The ledger attributes every crossing bit to the
  special node that sent it and keeps the cumulative curve, which
  ``repro audit`` compares against the closed-form budget of
  :func:`repro.core.reduction.cut_budget_bits`;
* the **adversary divergence points**: the reference adversary and the
  two simulated (belief) adversaries agree on a prefix of rounds and
  then diverge — only on spoiled territory, which is the content of
  Lemma 5.  The ledger records the first round each pair's edge sets
  differ, with the edge delta.

Records are JSON-ready dicts with ``"type": "ledger"`` so they embed in
the ``format_version 2`` run JSONL files next to ``round`` records.
The un-observed path stays zero-cost: a :class:`TwoPartyReduction` with
no active observation session and no explicit ledger performs a single
``is None`` check per hook site and nothing else.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .._util import bit_size
from .metrics import MetricsRegistry

__all__ = ["ProofLedger", "lemma_number", "spoiled_budget_curve"]

#: Cap on id/edge lists embedded in ledger records (keeps lines small).
_MAX_IDS = 16


def lemma_number(subnet: Any) -> int:
    """3 for type-Γ spoil schedules, 4 for type-Λ (paper's numbering)."""
    return 4 if getattr(subnet, "lambda_rule5", False) else 3


def spoiled_budget_curve(party: str, subnets: Sequence[Any]) -> Dict[float, int]:
    """Spoil-round -> node-count increments per the Lemma 3/4 closed forms.

    Recomputed from the chain labels (not from the simulator's ``spoil``
    dict), so a simulator or adversary that spoils off-schedule shows up
    as measured-above-budget.  Each subnetwork also contributes the
    peer's special node, spoiled from round 1.
    """
    from ..core.chains import NEVER, alice_spoil_rounds, bob_spoil_rounds

    steps: Dict[float, int] = {}
    for subnet in subnets:
        steps[1] = steps.get(1, 0) + 1  # the peer's special node (A or B)
        for chain in subnet.chains:
            label = chain.top_label if party == "alice" else chain.bottom_label
            rounds = (
                alice_spoil_rounds(label) if party == "alice" else bob_spoil_rounds(label)
            )
            for sr in rounds:
                if sr != NEVER:
                    steps[sr] = steps.get(sr, 0) + 1
    return steps


class _PartyState:
    """Per-party bookkeeping the ledger keeps between rounds."""

    __slots__ = ("budget_steps", "prev_spoiled", "cum_bits", "max_count", "max_budget")

    def __init__(self, budget_steps: Dict[float, int]):
        self.budget_steps = budget_steps
        self.prev_spoiled: int = 0
        self.cum_bits: int = 0
        self.max_count: int = 0
        self.max_budget: int = 0

    def budget_at(self, round_: int) -> int:
        return sum(n for sr, n in self.budget_steps.items() if sr <= round_)


class ProofLedger:
    """Collects spoiled/cut/divergence records for one reduction run.

    Parameters
    ----------
    registry:
        Optional shared :class:`MetricsRegistry`; the ledger maintains
        ``spoiled_nodes{party=...}`` and ``adversary_divergence_round
        {pair=...}`` gauges and the ``cut_bits_total`` counter on it.
        Defaults to a private registry.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.records: List[dict] = []
        self.violations: int = 0
        self.divergence_rounds: Dict[str, Optional[int]] = {}
        self._parties: Dict[str, _PartyState] = {}
        self._cut_bits_total = self.registry.counter("cut_bits_total")
        self._spoiled_gauges: Dict[str, Any] = {}
        self._cut_by_node: Dict[str, int] = {}

    # -- wiring --------------------------------------------------------
    def attach_party(self, sim: Any) -> None:
        """Register one :class:`~repro.core.simulation.PartySimulator`."""
        self._parties[sim.party] = _PartyState(
            spoiled_budget_curve(sim.party, sim.subnets)
        )
        self._spoiled_gauges[sim.party] = self.registry.gauge(
            "spoiled_nodes", {"party": sim.party}
        )

    # -- per-round hooks (called by PartySimulator.step_actions) --------
    def on_round(self, sim: Any, round_: int, frame: Tuple) -> None:
        """Record one party's spoiled set and cut frame for ``round_``."""
        state = self._parties[sim.party]

        # (a) spoiled-node discipline vs the Lemma 3/4 budget curve.
        spoiled = [uid for uid, sr in sim.spoil.items() if sr <= round_]
        newly = sorted(uid for uid, sr in sim.spoil.items() if round_ - 1 < sr <= round_)
        count = len(spoiled)
        budget = state.budget_at(round_)
        ok = count <= budget
        record: dict = {
            "type": "ledger",
            "kind": "spoiled",
            "party": sim.party,
            "round": round_,
            "count": count,
            "budget": budget,
            "ok": ok,
        }
        if newly:
            record["new"] = newly[:_MAX_IDS]
        if not ok:
            self.violations += 1
            record["excess"] = sorted(spoiled)[:_MAX_IDS]
        self.records.append(record)
        state.prev_spoiled = count
        state.max_count = max(state.max_count, count)
        state.max_budget = max(state.max_budget, budget)
        self._spoiled_gauges[sim.party].set(count)

        # (b) cut-crossing bits, attributed to the special nodes.
        # bit_size(frame) = 2 + sum(bit_size(item) + 2), so per-node
        # charges plus the 2-bit frame envelope reconstruct the exact
        # total the simulator adds to bits_sent.
        per_node = {item[0]: bit_size(item) + 2 for item in frame}
        bits = 2 + sum(per_node.values())
        state.cum_bits += bits
        self._cut_bits_total.inc(bits)
        for name, b in per_node.items():
            self._cut_by_node[name] = self._cut_by_node.get(name, 0) + b
        self.records.append({
            "type": "ledger",
            "kind": "cut",
            "party": sim.party,
            "round": round_,
            "bits": bits,
            "cum_bits": state.cum_bits,
            "nodes": per_node,
        })

    # -- one-shot records ----------------------------------------------
    def record_divergence(
        self,
        pair: str,
        round_: Optional[int],
        missing: Sequence[Tuple[int, int]] = (),
        extra: Sequence[Tuple[int, int]] = (),
        horizon: Optional[int] = None,
    ) -> None:
        """First round the two adversaries' edge sets differ (None: never
        within the scanned horizon)."""
        self.divergence_rounds[pair] = round_
        record: dict = {
            "type": "ledger",
            "kind": "divergence",
            "pair": pair,
            "round": round_,
        }
        if horizon is not None:
            record["horizon"] = horizon
        if round_ is not None:
            record["only_first"] = [list(e) for e in list(missing)[:_MAX_IDS]]
            record["only_second"] = [list(e) for e in list(extra)[:_MAX_IDS]]
            self.registry.gauge(
                "adversary_divergence_round", {"pair": pair}
            ).set(round_)
        self.records.append(record)

    def record_violation(self, party: str, round_: int, lemma: int, message: str) -> None:
        """A Lemma 3/4 violation the simulator detected (it then raises)."""
        self.violations += 1
        self.records.append({
            "type": "ledger",
            "kind": "violation",
            "party": party,
            "round": round_,
            "lemma": lemma,
            "message": message,
        })

    # -- summaries ------------------------------------------------------
    @property
    def total_cut_bits(self) -> int:
        return sum(state.cum_bits for state in self._parties.values())

    def cut_bits_of(self, party: str) -> int:
        state = self._parties.get(party)
        return state.cum_bits if state is not None else 0

    def summary(self) -> dict:
        """JSON-ready rollup (embedded in the run JSONL summary line)."""
        return {
            "cut_bits": {
                **{party: state.cum_bits for party, state in sorted(self._parties.items())},
                "total": self.total_cut_bits,
            },
            "cut_bits_by_node": dict(sorted(self._cut_by_node.items())),
            "spoiled_max": {
                party: {"count": state.max_count, "budget": state.max_budget}
                for party, state in sorted(self._parties.items())
            },
            "divergence_rounds": dict(sorted(self.divergence_rounds.items())),
            "violations": self.violations,
        }
