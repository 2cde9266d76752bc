"""Fault injectors for the detection tests: wrappers that break one rule.

Everything here is a *wrapper* — the engine, adversaries, party
simulators and coin sources are never modified.  Each injector appends
one line to a caller-owned ``applied`` list whenever its fault actually
lands, so a test can require exactly one applied injection per
detection.  ``tests/faults/test_detection.py`` drives them over the
whole (fault, layer) taxonomy.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.simulation import TwoPartyReduction, run_reference_execution
from repro.sim.actions import Action, Receive, Send
from repro.sim.coins import Coins, CoinSource
from repro.sim.node import ProtocolNode

#: XOR mask applied to a coin-source seed by coin-tamper faults; any
#: nonzero constant yields an independent splitmix64 stream.
COIN_TAMPER_MASK = 0xFA017FA017FA017F

#: Payload a bit-corrupt fault substitutes for the real one — a large
#: prime, so it is recognizable in traces and (for max-gossip workloads)
#: dominates every honest value.
CORRUPT_PAYLOAD = ("max", 999983)

#: A node id outside every node set the tests build.
GHOST_NODE = 10**6


class FaultyNode(ProtocolNode):
    """Wraps one node, applying ``fault`` in round ``at``.

    * ``over-budget`` — :meth:`action` returns a ``Send`` of ``bits``
      bits, tripping the engine's CONGEST check.
    * ``invalid-action`` — :meth:`action` returns a junk object that is
      neither Send nor Receive.
    * ``message-drop`` — :meth:`on_messages` silently drops every
      payload delivered this round (the round's own trace record is
      untouched, so detection must come from downstream divergence).
    * ``bit-corrupt`` — :meth:`on_messages` replaces each delivered
      payload with :data:`CORRUPT_PAYLOAD`.
    """

    FAULTS = frozenset({"over-budget", "invalid-action", "message-drop", "bit-corrupt"})

    def __init__(self, inner: ProtocolNode, fault: str, at: int,
                 applied: List[str], bits: int = 4096):
        super().__init__(inner.uid)
        self.inner = inner
        self.fault = fault
        self.at = at
        self.applied = applied
        self.bits = bits

    def action(self, round_: int, coins: Coins) -> Action:
        act = self.inner.action(round_, coins)
        if round_ != self.at:
            return act
        if self.fault == "over-budget":
            self.applied.append(f"node {self.uid} sent {self.bits} bits in round {round_}")
            return Send(bytes((self.bits + 7) // 8))
        if self.fault == "invalid-action":
            self.applied.append(f"node {self.uid} returned a non-action in round {round_}")
            return "NOT-AN-ACTION"  # type: ignore[return-value]
        return act

    def on_messages(self, round_: int, payloads: Tuple[Any, ...]) -> None:
        if round_ == self.at and payloads:
            if self.fault == "message-drop":
                self.applied.append(
                    f"node {self.uid} dropped {len(payloads)} payload(s) in round {round_}"
                )
                payloads = ()
            elif self.fault == "bit-corrupt":
                self.applied.append(
                    f"node {self.uid} got {len(payloads)} corrupted payload(s) in round {round_}"
                )
                payloads = tuple(CORRUPT_PAYLOAD for _ in payloads)
        self.inner.on_messages(round_, payloads)

    def on_sent(self, round_: int) -> None:
        self.inner.on_sent(round_)

    def output(self) -> Optional[Any]:
        return self.inner.output()


class FaultyAdversary:
    """Wraps a topology chooser, breaking its edge set at round ``at``.

    * ``disconnect`` — remove every edge incident to ``target``,
      isolating it (the engine's connectivity check must fire).
    * ``foreign-edge`` — add an edge from ``target`` to a node outside
      the node set (the engine's edge-membership check must fire).
    * ``adversary-perturb`` — from round ``at`` on, play the *previous*
      round's topology: the schedule lags one round behind.
    """

    FAULTS = frozenset({"disconnect", "foreign-edge", "adversary-perturb"})

    def __init__(self, inner: Any, fault: str, at: int, applied: List[str],
                 target: Optional[int] = None):
        self.inner = inner
        self.fault = fault
        self.at = at
        self.applied = applied
        self.target = target
        self._shifted = False

    def __getattr__(self, name: str) -> Any:
        # Delegate node_ids / num_nodes etc. to the real chooser.
        return getattr(self.inner, name)

    def schedule_key(self, round_: int) -> Any:
        # A shifted schedule breaks the inner family's "equal keys imply
        # equal topologies" promise, so advertise no keys at all.
        if self.fault == "adversary-perturb":
            return None
        return self.inner.schedule_key(round_)

    def edges(self, round_: int, view: Any) -> List[Tuple[int, int]]:
        if self.fault == "adversary-perturb" and round_ >= self.at:
            if not self._shifted:
                self._shifted = True
                self.applied.append(f"schedule held one round back from round {self.at}")
            return list(self.inner.edges(max(1, round_ - 1), view))
        edges = list(self.inner.edges(round_, view))
        if round_ != self.at:
            return edges
        if self.fault == "disconnect":
            self.applied.append(f"isolated node {self.target} in round {round_}")
            return [(u, v) for u, v in edges if self.target not in (u, v)]
        if self.fault == "foreign-edge":
            self.applied.append(f"added edge ({self.target}, {GHOST_NODE}) in round {round_}")
            return edges + [(self.target, GHOST_NODE)]
        return edges


class FaultyCoinSource:
    """Wraps a :class:`~repro.sim.coins.CoinSource`, tampering one stream.

    For node ``target`` in round ``at`` the coins come from an
    independent seed (``seed ^ COIN_TAMPER_MASK``), breaking the
    public-coin agreement that trace reproducibility and the Lemma-5
    simulation both rest on.
    """

    def __init__(self, inner: CoinSource, at: int, target: int, applied: List[str]):
        self.inner = inner
        self.at = at
        self.target = target
        self.applied = applied
        self._tampered = CoinSource(inner.seed ^ COIN_TAMPER_MASK)

    @property
    def seed(self) -> int:
        # Manifests record engine.coin_source.seed; report the honest one.
        return self.inner.seed

    def coins(self, node_id: int, round_: int) -> Coins:
        if (node_id, round_) == (self.target, self.at):
            self.applied.append(f"tampered the coins of node {node_id} in round {round_}")
            return self._tampered.coins(node_id, round_)
        return self.inner.coins(node_id, round_)


def wire_engine_fault(
    nodes: Dict[int, ProtocolNode],
    adversary: Any,
    coin_source: CoinSource,
    fault: str,
    at: int,
    target: int,
    applied: List[str],
) -> Tuple[Dict[int, ProtocolNode], Any, Any]:
    """Wrap whichever of (nodes, adversary, coin_source) ``fault`` hits."""
    if fault in FaultyNode.FAULTS:
        nodes = {**nodes, target: FaultyNode(nodes[target], fault, at, applied)}
    elif fault in FaultyAdversary.FAULTS:
        adversary = FaultyAdversary(adversary, fault, at, applied, target)
    elif fault == "coin-tamper":
        coin_source = FaultyCoinSource(coin_source, at, target, applied)
    else:
        raise ValueError(f"no engine-layer injector for {fault!r}")
    return nodes, adversary, coin_source


class _ShiftedEdgeSet:
    """``party.edge_set`` held one round behind from ``start`` onward.

    This is the adversary-rule perturbation of the Sections 4–5
    schedules: edges scheduled for removal are kept one round too long,
    so the Lemma 3/4 spoiled-node bookkeeping sees a non-spoiled node
    next to an already-spoiled neighbour and
    :class:`~repro.errors.SimulationDiverged` must fire.
    """

    def __init__(self, orig: Callable, start: int, applied: List[str], party: str):
        self.orig = orig
        self.start = start
        self.applied = applied
        self.party = party

    def __call__(self, round_: int):
        if round_ < self.start:
            return self.orig(round_)
        if round_ == self.start:
            self.applied.append(f"{self.party}'s schedule held back from round {round_}")
        return self.orig(max(1, round_ - 1))


class _TamperedFrameActions:
    """``party.step_actions`` with the emitted frame tampered in transit.

    The party's own bookkeeping sees the honest frame; only what crosses
    to the peer changes: the first non-empty payload of round ``at``
    becomes ``None`` (``message-drop``) or :data:`CORRUPT_PAYLOAD`
    (``bit-corrupt``).
    """

    def __init__(self, orig: Callable, fault: str, at: int, applied: List[str], party: str):
        self.orig = orig
        self.fault = fault
        self.at = at
        self.applied = applied
        self.party = party

    def __call__(self, round_: int):
        frame = self.orig(round_)
        if round_ != self.at:
            return frame
        for i, (key, payload) in enumerate(frame):
            if payload is not None:
                bad = None if self.fault == "message-drop" else CORRUPT_PAYLOAD
                self.applied.append(
                    f"{self.fault} on {self.party}'s {key} payload in round {round_}"
                )
                return frame[:i] + ((key, bad),) + frame[i + 1:]
        return frame


def inject_reduction_fault(
    reduction: TwoPartyReduction,
    fault: str,
    at: int,
    applied: List[str],
    party: str = "alice",
    target: Optional[int] = None,
) -> TwoPartyReduction:
    """Patch one fault into one party of a two-party reduction.

    Perturbations are instance-attribute patches over the party's
    methods; ``target`` names the node whose coins ``coin-tamper``
    replaces.
    """
    sim = reduction.alice if party == "alice" else reduction.bob
    if fault == "adversary-perturb":
        sim.edge_set = _ShiftedEdgeSet(sim.edge_set, at, applied, party)
    elif fault == "coin-tamper":
        sim.coin_source = FaultyCoinSource(sim.coin_source, at, target, applied)
    elif fault in ("message-drop", "bit-corrupt"):
        sim.step_actions = _TamperedFrameActions(sim.step_actions, fault, at, applied, party)
    else:
        raise ValueError(f"no reduction-layer injector for {fault!r}")
    return reduction


def compare_with_reference(
    inst: Any,
    mapping: str,
    factory: Callable[[int], Any],
    seed: int,
    inject: Optional[Callable[[TwoPartyReduction], Any]] = None,
    state_probe: Optional[Callable[[Any], Any]] = None,
) -> List[str]:
    """The Lemma-5 comparator as a checker: mismatches, not assertions.

    Drives a (possibly ``inject``-ed) :class:`TwoPartyReduction` in
    lockstep with the clean reference execution and collects every
    disagreement on a non-spoiled node — action kind, sent payload, or
    (via ``state_probe``) final state.  A correct construction with no
    injection returns an empty list (that is Lemma 5).
    """
    T = (inst.q - 1) // 2
    ref = run_reference_execution(inst, mapping, factory, seed, rounds=T)
    red = TwoPartyReduction(inst, mapping, factory, seed)
    if inject is not None:
        inject(red)
    mismatches: List[str] = []
    for r in range(1, T + 1):
        fa = red.alice.step_actions(r)
        fb = red.bob.step_actions(r)
        for party in (red.alice, red.bob):
            for uid in party.nodes:
                if party.spoil[uid] < r:
                    continue
                act = party.actions_of(uid)
                kind, payload = ref.spies[uid].history[r]
                if isinstance(act, Send):
                    if kind != "send" or payload != act.payload:
                        mismatches.append(
                            f"round {r}: {party.party}'s node {uid} sent "
                            f"{act.payload!r}, reference {kind} {payload!r}"
                        )
                elif isinstance(act, Receive):
                    if kind != "recv":
                        mismatches.append(
                            f"round {r}: {party.party}'s node {uid} received, "
                            f"reference sent {payload!r}"
                        )
        red.alice.step_delivery(r, fb)
        red.bob.step_delivery(r, fa)
    if state_probe is not None:
        for party in (red.alice, red.bob):
            for uid, node in party.nodes.items():
                if party.spoil[uid] > T:
                    mine = state_probe(node)
                    theirs = state_probe(ref.spies[uid].inner)
                    if mine != theirs:
                        mismatches.append(
                            f"final state of {party.party}'s node {uid}: "
                            f"{mine!r} != reference {theirs!r}"
                        )
    return mismatches


# ----------------------------------------------------------------------
# worker faults: module-level tasks, importable from pool workers


def _consume_marker(marker_path: str) -> bool:
    """Atomically claim a one-shot fault marker file.

    The marker arms exactly one injection: the first task attempt that
    claims it faults, the retry finds it gone and succeeds.  ``unlink``
    is atomic on POSIX, so concurrent workers race safely.
    """
    try:
        os.unlink(marker_path)
        return True
    except FileNotFoundError:
        return False


def crashy_task(marker_path: str, value: int) -> int:
    """Worker-crash fault: SIGKILL this worker process once, then behave.

    SIGKILL (not an exception) models a genuine worker death — the pool
    breaks, and the executor's degradation path must retry on a fresh
    pool instead of surfacing ``BrokenProcessPool``.
    """
    if _consume_marker(marker_path):
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def hangy_task(marker_path: str, value: int, hang_seconds: float = 3600.0) -> int:
    """Worker-hang fault: block far past any sane task timeout, once."""
    if _consume_marker(marker_path):
        time.sleep(hang_seconds)
    return value * value
