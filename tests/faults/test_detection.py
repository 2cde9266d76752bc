"""Every checker the paper's machinery relies on fires on its violation.

The lower bounds are only as sound as the checks the simulator enforces:
the Section-2 CONGEST budget and connectivity, the Lemma 3–4
spoiled-node bookkeeping, the Lemma-5 simulation fidelity.  Each row of
:data:`CELLS` injects one fault at one layer through the wrappers in
:mod:`tests.faults.injectors` and requires that exactly one injection
was applied and that the named detector fired:

=================  =========  ====================================
fault              layer      expected detector
=================  =========  ====================================
over-budget        engine     ``BandwidthExceeded``
invalid-action     engine     ``InvalidAction``
disconnect         adversary  ``DisconnectedTopology``
foreign-edge       adversary  ``ModelViolation``
message-drop       engine     trace-divergence
bit-corrupt        engine     trace-divergence
coin-tamper        engine     trace-divergence
adversary-perturb  adversary  trace-divergence (adaptive, batch)
adversary-perturb  reduction  ``SimulationDiverged`` + audit finding
message-drop       reduction  reference-divergence
bit-corrupt        reduction  reference-divergence
coin-tamper        reduction  reference-divergence
worker-crash       worker     ``ParallelExecutionError``
=================  =========  ====================================

* **trace-divergence** — the simulator is deterministic given a seed,
  so the clean run's trace is itself the checker: the faulted run must
  differ from it (:func:`repro.sim.trace.first_trace_divergence`).
* **reference-divergence** — the Lemma-5 comparator: a party's
  simulation of its non-spoiled nodes must disagree with the reference
  execution (:func:`~tests.faults.injectors.compare_with_reference`).
* **ParallelExecutionError** — a pool worker killed mid-task surfaces
  with the task's label, never as a bare pool error.

A silent fault is only observable if it changes behaviour (dropping a
payload nobody relied on is a no-op), so those scenarios search
deterministically over injection points taken from the clean run and
use the first one that lands.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

import pytest

from repro.cc.disjointness import random_instance
from repro.core.simulation import TwoPartyReduction
from repro.errors import (
    BandwidthExceeded,
    ParallelExecutionError,
    ReproError,
    SimulationDiverged,
)
from repro.network.adversaries import Adversary, RandomConnectedAdversary
from repro.network.generators import line_edges
from repro.obs.audit import audit_path
from repro.obs.runtime import observe
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.sim.batch import build_engine
from repro.sim.coins import CoinSource
from repro.sim.engine import SynchronousEngine
from repro.sim.parallel import ParallelExecutor
from repro.sim.trace import ExecutionTrace, first_trace_divergence

from .injectors import (
    COIN_TAMPER_MASK,
    FaultyAdversary,
    compare_with_reference,
    crashy_task,
    inject_reduction_fault,
    wire_engine_fault,
)

#: Engine/adversary scenario: max-gossip (randomized send/receive, never
#: terminates on its own) over a random connected dynamic topology.
_ENGINE_N = 8
_ENGINE_ROUNDS = 40
_ENGINE_SEED = 1009
_ADVERSARY_SEED = 11

#: Reduction scenario: Lemma-5 machinery on small DISJOINTNESSCP
#: instances with the gossip oracle.
_REDUCTION_SEED = 7

Detection = Tuple[List[str], Optional[str]]


def _run_engine(applied: List[str], fault: Optional[str] = None,
                at: int = 0, target: int = 0) -> ExecutionTrace:
    """One seeded gossip run, with at most one fault wired in."""
    nodes = {u: GossipMaxNode(u) for u in range(_ENGINE_N)}
    adversary = RandomConnectedAdversary(range(_ENGINE_N), seed=_ADVERSARY_SEED)
    coins = CoinSource(_ENGINE_SEED)
    if fault is not None:
        nodes, adversary, coins = wire_engine_fault(
            nodes, adversary, coins, fault, at, target, applied
        )
    return SynchronousEngine(nodes, adversary, coins).run(_ENGINE_ROUNDS)


def _engine_exception(fault: str, tmp_path: Any) -> Detection:
    """A fault the model validation must reject with one exact error."""
    at, target = (3, 2) if fault in ("over-budget", "invalid-action") else (4, 3)
    applied: List[str] = []
    with pytest.raises(ReproError) as err:
        _run_engine(applied, fault, at, target)
    exc = err.value
    if isinstance(exc, BandwidthExceeded):
        assert (exc.sender, exc.round) == (target, at)
    if fault == "foreign-edge":
        assert "leaves the node set" in str(exc)
    return applied, type(exc).__name__


def _engine_candidates(fault: str, clean: ExecutionTrace) -> Iterator[Tuple[int, int]]:
    """(node, round) points where ``fault`` must change the clean run."""
    last = _ENGINE_ROUNDS - 5
    if fault == "coin-tamper":
        # tampering flips the node's send/receive coin in that round
        honest = CoinSource(_ENGINE_SEED)
        tampered = CoinSource(_ENGINE_SEED ^ COIN_TAMPER_MASK)
        for r in range(1, last):
            for uid in range(_ENGINE_N):
                if honest.coins(uid, r).bit(0.5) != tampered.coins(uid, r).bit(0.5):
                    yield uid, r
        return
    # the clean run delivered payloads there: dropping or corrupting
    # nothing detects nothing
    for record in clean:
        if record.round > last:
            return
        for uid, count in sorted(record.delivered.items()):
            if count > 0:
                yield uid, record.round


def _engine_trace_divergence(fault: str, tmp_path: Any) -> Detection:
    """A silent engine fault: the faulted trace must leave the clean one."""
    clean = _run_engine([])
    for uid, r in _engine_candidates(fault, clean):
        applied: List[str] = []
        faulted = _run_engine(applied, fault, r, uid)
        if applied and first_trace_divergence(clean, faulted) is not None:
            return applied, "trace-divergence"
    return [], None


class _AdaptiveRotatingAdversary(Adversary):
    """Adaptive *and* round-dependent, so a schedule shift is visible.

    Each round is a line over a rotation of the node ids; the offset
    mixes the round with the informed count read from the view (hence
    adaptive: the batch engine must take the incremental-tape path).
    """

    def edges(self, round_: int, view: Any) -> List[Tuple[int, int]]:
        ids = self.node_ids
        n = len(ids)
        informed = sum(1 for u in ids if view.nodes[u].output() is not None)
        shift = (round_ + informed) % n
        return line_edges([ids[(i + shift) % n] for i in range(n)])


def _run_adaptive_batch(applied: List[str], shift_from: Optional[int] = None) -> ExecutionTrace:
    """One adaptive flood run that must execute on the batch backend."""
    nodes = {u: TokenFloodNode(u, source=0) for u in range(_ENGINE_N)}
    adversary: Any = _AdaptiveRotatingAdversary(range(_ENGINE_N))
    if shift_from is not None:
        adversary = FaultyAdversary(adversary, "adversary-perturb", shift_from, applied)
    engine = build_engine(nodes, adversary, CoinSource(_ENGINE_SEED), backend="batch")
    trace = engine.run(_ENGINE_ROUNDS)
    assert engine.backend == "batch"
    return trace


def _adaptive_perturb(fault: str, tmp_path: Any) -> Detection:
    """A shifted adaptive schedule on the batch backend's incremental tape."""
    clean = _run_adaptive_batch([])
    for start in range(2, _ENGINE_ROUNDS - 5):
        applied: List[str] = []
        faulted = _run_adaptive_batch(applied, shift_from=start)
        if applied and first_trace_divergence(clean, faulted) is not None:
            return applied, "trace-divergence"
    return [], None


def _reduction_perturb(fault: str, tmp_path: Any) -> Detection:
    """The Sections 4–5 schedule shift: Lemma 3/4 must object, twice.

    The reduction runs under a persisting observation session, and the
    cell needs both detectors: the ``SimulationDiverged`` raise and the
    ``repro audit`` finding on the violation the simulator ledgered.
    """
    inst = random_instance(3, 9, seed=1)
    for start in range(2, (inst.q - 1) // 2 + 1):
        applied: List[str] = []
        trace_dir = tmp_path / f"shift-{start}"
        with observe(trace_dir=trace_dir):
            red = TwoPartyReduction(inst, "T6", GossipMaxNode, _REDUCTION_SEED)
            inject_reduction_fault(red, fault, start, applied)
            try:
                red.run()
            except SimulationDiverged:
                break
    else:
        return [], None
    reports, _skipped, code = audit_path(trace_dir)
    findings = [f for report in reports for f in report.failures]
    assert code == 1, findings
    assert any("violation recorded by the simulator" in f for f in findings), findings
    return applied, "SimulationDiverged"


def _reduction_candidates(fault: str, inst: Any) -> Iterator[Tuple[str, int, Optional[int]]]:
    """(party, round, node) injection points for the reduction cells."""
    horizon = (inst.q - 1) // 2
    if fault == "coin-tamper":
        # an Alice node still simulated (non-spoiled) whose send/receive
        # coin flips under tampering
        alice = TwoPartyReduction(inst, "T6", GossipMaxNode, _REDUCTION_SEED).alice
        honest = CoinSource(_REDUCTION_SEED)
        tampered = CoinSource(_REDUCTION_SEED ^ COIN_TAMPER_MASK)
        for r in range(1, horizon + 1):
            for uid in sorted(alice.nodes):
                if alice.spoil[uid] >= r and (
                    honest.coins(uid, r).bit(0.5) != tampered.coins(uid, r).bit(0.5)
                ):
                    yield "alice", r, uid
        return
    for party in ("alice", "bob"):
        for r in range(1, horizon + 1):
            yield party, r, None


def _reference_divergence(fault: str, tmp_path: Any) -> Detection:
    """A frame or coin fault on one party vs the Lemma-5 comparator."""
    inst = random_instance(3, 9, seed=2)
    for party, at, target in _reduction_candidates(fault, inst):
        applied: List[str] = []
        try:
            mismatches = compare_with_reference(
                inst, "T6", GossipMaxNode, _REDUCTION_SEED,
                inject=lambda red: inject_reduction_fault(
                    red, fault, at, applied, party, target
                ),
                state_probe=lambda node: node.best,
            )
        except SimulationDiverged:
            continue  # the spoil bookkeeping caught it: another detector's row
        if applied and mismatches:
            return applied, "reference-divergence"
    return [], None


def _worker_fault(fault: str, tmp_path: Any) -> Detection:
    """Kill one pool worker mid-task; the failure must name a task."""
    marker = tmp_path / "fault.marker"
    marker.write_text("armed\n")
    try:
        ParallelExecutor(workers=2).map(
            crashy_task, [(str(marker), i) for i in range(4)],
            labels=[f"seed={i}" for i in range(4)],
        )
    except ParallelExecutionError as exc:
        fired = "ParallelExecutionError" if "[seed=" in str(exc) else None
    else:
        fired = None
    return ([] if marker.exists() else [f"{fault} marker consumed"]), fired


#: fault, layer, the detector that must fire, and the scenario proving it
CELLS = [
    ("over-budget", "engine", "BandwidthExceeded", _engine_exception),
    ("invalid-action", "engine", "InvalidAction", _engine_exception),
    ("disconnect", "adversary", "DisconnectedTopology", _engine_exception),
    ("foreign-edge", "adversary", "ModelViolation", _engine_exception),
    ("message-drop", "engine", "trace-divergence", _engine_trace_divergence),
    ("bit-corrupt", "engine", "trace-divergence", _engine_trace_divergence),
    ("coin-tamper", "engine", "trace-divergence", _engine_trace_divergence),
    ("adversary-perturb", "adversary", "trace-divergence", _adaptive_perturb),
    ("adversary-perturb", "reduction", "SimulationDiverged", _reduction_perturb),
    ("message-drop", "reduction", "reference-divergence", _reference_divergence),
    ("bit-corrupt", "reduction", "reference-divergence", _reference_divergence),
    ("coin-tamper", "reduction", "reference-divergence", _reference_divergence),
    ("worker-crash", "worker", "ParallelExecutionError", _worker_fault),
]


@pytest.mark.parametrize(
    "fault, layer, detector, scenario",
    CELLS,
    ids=[f"{fault}/{layer}" for fault, layer, _, _ in CELLS],
)
def test_fault_is_detected(fault, layer, detector, scenario, tmp_path):
    applied, fired = scenario(fault, tmp_path)
    assert fired == detector, f"{fault}/{layer}: expected {detector}, got {fired}"
    assert len(applied) == 1, applied
