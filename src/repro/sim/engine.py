"""The synchronous round engine.

One round (paper, Section 2):

1. coins are flipped — the engine materializes a per-(node, round) stream;
2. every node commits to Send/Receive, deterministically in state+coins;
3. the adversary picks this round's topology.  It is handed an
   :class:`AdversaryView` containing the committed actions and node states
   — this is exactly the power the paper grants (the adversary knows the
   protocol, the states, and all coin flips so far, hence can predict the
   deterministic actions; it cannot see future coins);
4. payloads of sending nodes are delivered to receiving neighbours;
5. outputs are polled for termination.

The engine validates the model invariants (connected topology, CONGEST
budget, edges within the node set) and records a full
:class:`~repro.sim.trace.ExecutionTrace`.

Rounds execute as the fixed stage sequence :data:`ROUND_STAGES`
(actions → adversary → validation → delivery → termination), each stage
a method over a shared per-round state.  One driver,
:class:`RoundDriver`, runs them for both engines: :meth:`~RoundDriver.step`
drives all five inline; :meth:`~RoundDriver.step_stages` exposes the
same methods as a generator yielding a :class:`StageEvent` after each
stage, so a caller can interpose between the committed actions and the
adversary's decision.  The batch backend (:mod:`repro.sim.batch`)
supplies the identical stage sequence with the within-stage work
vectorized — which is how adaptive adversaries batch: their per-round
decision sits between vectorized stages.

The driver always times each stage (one ``perf_counter`` read per stage
boundary, never per node) into ``engine.stage_seconds``, summed over the
run; :meth:`~RoundDriver.finish` hands the finished run to the
observation session the engine was built under, if any.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, FrozenSet, Iterator, Mapping, Optional, Tuple

from .._util import bit_size, canonical_encoding
from ..errors import BandwidthExceeded, DisconnectedTopology, InvalidAction
from ..network.topology import _is_connected, _normalize_edges
from .actions import Action, Receive, Send
from .coins import CoinSource
from .encoding import types_match
from .messages import DEFAULT_BANDWIDTH_FACTOR, congest_budget
from .node import ProtocolNode
from .trace import ExecutionTrace, RoundRecord

__all__ = [
    "ROUND_STAGES",
    "StageEvent",
    "AdversaryView",
    "RoundDriver",
    "SynchronousEngine",
]

Edge = Tuple[int, int]

#: The five stages of one synchronous round, in execution order.  They
#: match the numbered steps of the module docstring (coins+actions are
#: one stage: a node's action is a deterministic function of its state
#: and coins, so there is no observable point between them) and key the
#: stage clock (``engine.stage_seconds``) and the ``phase_seconds``
#: metrics one-to-one.  Both engines — reference and batch — run exactly
#: this sequence; the batch backend vectorizes *within* stages, which is
#: what lets an adaptive adversary's per-round decision sit between
#: vectorized coin folds and vectorized delivery.
ROUND_STAGES = ("actions", "adversary", "validation", "delivery", "termination")


@dataclass(frozen=True)
class StageEvent:
    """What one completed stage exposes to a :meth:`step_stages` consumer.

    Fields fill in as the round progresses: ``actions`` after the
    ``actions`` stage (the committed :class:`~repro.sim.actions.Action`
    per node — exactly the adversary's view; the batch engine's fused
    oblivious path never materializes this mapping and leaves it
    ``None``), ``edges`` after the ``adversary`` stage, ``record`` after
    ``delivery``.
    """

    stage: str
    round: int
    actions: Optional[Mapping[int, Action]] = None
    edges: Optional[FrozenSet[Edge]] = None
    record: Optional[RoundRecord] = None


class _RoundState:
    """Mutable scratch threaded through one round's stage methods.

    Shared by both engines; each stage reads what earlier stages wrote.
    The batch engine's fused classification fills the ``send_uids`` /
    ``send_payloads`` / ``receiver_list`` triple instead of (or, when an
    adaptive adversary needs the view, in addition to) ``actions``; its
    array programs fill the ``send_idx`` / ``recv_idx`` dense index
    arrays instead.
    """

    __slots__ = (
        "round", "actions", "view", "edges", "record",
        "send_uids", "send_payloads", "receiver_list", "topo",
        "send_idx", "recv_idx",
    )

    def __init__(self, round_: int):
        self.round = round_
        self.actions: Optional[Dict[int, Action]] = None
        self.view: Optional[AdversaryView] = None
        self.edges: Optional[FrozenSet[Edge]] = None
        self.record: Optional[RoundRecord] = None
        self.send_uids: Optional[list] = None
        self.send_payloads: Optional[list] = None
        self.receiver_list: Optional[list] = None
        self.topo: Any = None
        self.send_idx: Any = None
        self.recv_idx: Any = None


@dataclass(frozen=True)
class AdversaryView:
    """What the adversary may inspect when choosing a round's topology."""

    round: int
    actions: Mapping[int, Action]
    nodes: Mapping[int, ProtocolNode]
    trace: ExecutionTrace

    def is_receiving(self, uid: int) -> bool:
        """True iff node ``uid`` committed to receive this round."""
        return isinstance(self.actions[uid], Receive)

    def is_sending(self, uid: int) -> bool:
        """True iff node ``uid`` committed to send this round."""
        return isinstance(self.actions[uid], Send)


class RoundDriver:
    """The timed round driver both engines share.

    An engine supplies the five stage methods ``_stage_<name>`` of
    :data:`ROUND_STAGES`; the driver owns the model parameters every
    engine carries, the trace, the round counter, and the drivers
    :meth:`step`, :meth:`step_stages`, :meth:`run` and :meth:`finish`.
    Both backends run rounds through this one loop, which is what
    guarantees an adaptive adversary sees the identical per-round view
    on either backend.

    The stage clock is always on: each stage of each round is timed
    with ``time.perf_counter`` into :attr:`stage_seconds`, never per
    node, so a run's stage timings come from the same loop whether or
    not anything observes it.  The observation session active when the
    engine is built (:func:`repro.obs.runtime.observe`) receives the
    run from :meth:`finish`.
    """

    def __init__(
        self,
        nodes: Dict[int, ProtocolNode],
        adversary: Any,
        coin_source: CoinSource,
        bandwidth_factor: int = DEFAULT_BANDWIDTH_FACTOR,
        check_connected: bool = True,
    ):
        self.nodes = dict(nodes)
        self.node_ids = frozenset(self.nodes)
        self.adversary = adversary
        self.coin_source = coin_source
        self.bandwidth_factor = bandwidth_factor
        self.budget = congest_budget(len(self.nodes), bandwidth_factor)
        self.check_connected = check_connected
        self.trace = ExecutionTrace(num_nodes=len(self.nodes))
        self.round = 0
        #: seconds spent in each stage, summed over the run so far
        self.stage_seconds: Dict[str, float] = dict.fromkeys(ROUND_STAGES, 0.0)
        #: (stage name, stage function) in ROUND_STAGES order —
        #: resolved once so the per-round driver loop is attribute-free.
        #: Unbound, so the engine holds no reference to itself: a
        #: finished run and its trace are freed as soon as the caller
        #: drops them, not at the next cyclic collection.
        self._stages = tuple(
            (name, getattr(type(self), f"_stage_{name}")) for name in ROUND_STAGES
        )
        # Lazy import: obs depends on sim.trace, so importing it at
        # module scope would be cyclic.  One list lookup per engine.
        from ..obs.runtime import current_session

        self._session = current_session()

    def step(self) -> RoundRecord:
        """Execute one round and return its record."""
        self.round += 1
        state = _RoundState(self.round)
        seconds = self.stage_seconds
        t0 = perf_counter()
        for name, method in self._stages:
            method(self, state)
            t1 = perf_counter()
            seconds[name] += t1 - t0
            t0 = t1
        return state.record

    def step_stages(self) -> Iterator[StageEvent]:
        """Execute one round stage by stage, yielding after each stage.

        The generator face of the round protocol: the same five stage
        methods :meth:`step` drives, but control returns to the caller
        after every stage with a :class:`StageEvent` describing what
        just completed.  The stage clock times only the engine's work —
        the consumer's time between ``next()`` calls is charged to no
        stage — and the round counter advances when the generator
        starts, so a partially consumed round leaves the engine
        mid-round: drive each round's generator to exhaustion before
        calling :meth:`step` or starting another.
        """
        self.round += 1
        state = _RoundState(self.round)
        seconds = self.stage_seconds
        for name, method in self._stages:
            t0 = perf_counter()
            method(self, state)
            seconds[name] += perf_counter() - t0
            yield StageEvent(
                stage=name,
                round=state.round,
                actions=state.actions,
                edges=state.edges,
                record=state.record,
            )

    def run(
        self,
        max_rounds: int,
        stop: Optional[Callable[[Dict[int, ProtocolNode]], bool]] = None,
        stop_on_termination: bool = True,
    ) -> ExecutionTrace:
        """Run until termination, a custom stop predicate, or ``max_rounds``."""
        while self.round < max_rounds:
            self.step()
            if stop_on_termination and self.trace.termination_round is not None:
                break
            if stop is not None and stop(self.nodes):
                break
        return self.finish()

    def finish(self) -> ExecutionTrace:
        """End the run: record final outputs, hand it to the session.

        :meth:`run` calls this; a caller that drives :meth:`step`
        itself (lockstep replicas) calls it once per engine when done.
        """
        self.trace.outputs = {uid: node.output() for uid, node in self.nodes.items()}
        if self._session is not None:
            self._session.run_finished(self)
        return self.trace


class SynchronousEngine(RoundDriver):
    """Runs a protocol over an adversary-controlled dynamic network.

    This is the *reference* backend: the executable definition of the
    model, one readable Python loop per round.  The drop-in fast path
    (:class:`~repro.sim.batch.BatchEngine`, selected with
    ``RunConfig(backend="batch")``) is verified bit-identical to this
    engine and exists purely for throughput.

    Parameters
    ----------
    nodes:
        Node objects keyed by id.  Ids need not be contiguous.
    adversary:
        Anything with ``edges(round_, view) -> iterable of (u, v)``.
        See :mod:`repro.network.adversaries`.
    coin_source:
        The (public) coin source; pass the same seed to reproduce a run.
    bandwidth_factor:
        CONGEST budget multiplier; messages over
        ``bandwidth_factor * ceil(log2 N)`` bits raise
        :class:`~repro.errors.BandwidthExceeded`.
    check_connected:
        Validate per-round connectivity (the model constraint).  On by
        default; the lower-bound *subnetworks* are legitimately
        disconnected in isolation and turn this off.
    """

    #: which execution backend produced this engine's traces (manifests
    #: record it; see :mod:`repro.sim.batch` for the "batch" backend)
    backend = "reference"

    def __init__(
        self,
        nodes: Dict[int, ProtocolNode],
        adversary: Any,
        coin_source: CoinSource,
        bandwidth_factor: int = DEFAULT_BANDWIDTH_FACTOR,
        check_connected: bool = True,
    ):
        super().__init__(nodes, adversary, coin_source, bandwidth_factor, check_connected)
        # payload -> (payload, canonical_encoding) memo (payloads repeat
        # heavily across rounds; unhashable ones fall through to direct
        # encoding).  The stored payload guards against equal-but-
        # differently-encoded keys (True == 1, 0.0 == -0.0).
        self._enc_cache: Dict[Any, Tuple[Any, bytes]] = {}

    # -- the staged round protocol -------------------------------------
    #
    # One round is the fixed stage sequence ROUND_STAGES; each stage is
    # a method over the round's _RoundState, driven by RoundDriver.

    def _stage_actions(self, state: _RoundState) -> None:
        """(1)+(2): coins and committed actions, in deterministic id order."""
        r = state.round
        actions: Dict[int, Action] = {}
        for uid in sorted(self.nodes):
            action = self.nodes[uid].action(r, self.coin_source.coins(uid, r))
            if not isinstance(action, (Send, Receive)):
                raise InvalidAction(
                    f"node {uid} returned {action!r} from action() in round {r}"
                )
            actions[uid] = action
        state.actions = actions

    def _stage_adversary(self, state: _RoundState) -> None:
        """(3): the adversary fixes the topology, seeing the committed view."""
        r = state.round
        view = AdversaryView(
            round=r, actions=state.actions, nodes=self.nodes, trace=self.trace
        )
        state.view = view
        state.edges = _normalize_edges(self.adversary.edges(r, view), self.node_ids)

    def _stage_validation(self, state: _RoundState) -> None:
        """The model validates the chosen topology."""
        if self.check_connected and not _is_connected(self.node_ids, state.edges):
            raise DisconnectedTopology(
                f"round {state.round}: adversary topology is disconnected"
            )

    def _stage_delivery(self, state: _RoundState) -> None:
        """(4): delivery — CONGEST accounting, canonical order, callbacks."""
        r = state.round
        edges = state.edges
        sends: Dict[int, Any] = {}
        bits: Dict[int, int] = {}
        receivers = set()
        for uid, action in state.actions.items():
            if isinstance(action, Send):
                nbits = bit_size(action.payload)
                if nbits > self.budget:
                    raise BandwidthExceeded(nbits, self.budget, uid, r)
                sends[uid] = action.payload
                bits[uid] = nbits
            else:
                receivers.add(uid)

        adjacency: Dict[int, list] = {uid: [] for uid in self.node_ids}
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)

        # canonical order: receivers learn nothing from arrival order.
        # Keyed on the value's stable byte encoding (the one bit_size
        # charges), never repr — default reprs embed memory addresses,
        # which would make delivery order irreproducible across runs.
        # Each sender's payload is encoded once per round, not once per
        # receiver; equal encodings mean equal values, so the sender-id
        # tie-break cannot leak information.
        cache = self._enc_cache
        sort_keys: Dict[int, Tuple[bytes, int]] = {}
        for uid, payload in sends.items():
            try:
                entry = cache.get(payload)
            except TypeError:  # unhashable payload: encode every time
                sort_keys[uid] = (canonical_encoding(payload), uid)
                continue
            if entry is not None and types_match(entry[0], payload):
                enc = entry[1]
            else:
                enc = canonical_encoding(payload)
                if entry is None:
                    if len(cache) > 8192:  # bound memory on high entropy
                        cache.clear()
                    cache[payload] = (payload, enc)
            sort_keys[uid] = (enc, uid)
        delivered: Dict[int, int] = {}
        for uid in sorted(receivers):
            senders = [nbr for nbr in adjacency[uid] if nbr in sends]
            senders.sort(key=sort_keys.__getitem__)
            delivered[uid] = len(senders)
            self.nodes[uid].on_messages(r, tuple(sends[nbr] for nbr in senders))
        for uid in sends:
            self.nodes[uid].on_sent(r)

        record = RoundRecord(
            round=r,
            edges=edges,
            sends=sends,
            bits=bits,
            receivers=frozenset(receivers),
            delivered=delivered,
        )
        self.trace.append(record)
        state.record = record

    def _stage_termination(self, state: _RoundState) -> None:
        """(5): termination bookkeeping."""
        if self.trace.termination_round is None:
            outputs = {uid: node.output() for uid, node in self.nodes.items()}
            if all(out is not None for out in outputs.values()):
                self.trace.termination_round = state.round
                self.trace.outputs = outputs
