"""Array programs: protocols whose round is a send mask and a reduction.

The batch engine's per-node path asks every node for its action, hands
every receiver its payload tuple and polls every ``output()``, every
round.  Many of the paper's known-D protocols have a round of one
shape — a send mask, one payload per sender, and a commutative
reduction at each receiver — so :class:`~repro.sim.batch.BatchEngine`
runs such a node set as numpy state instead:

* token push (TokenFlood, CFLOOD): the send mask is the ``informed``
  array, no coins, and a receiver that hears anything becomes informed,
  so delivery needs only per-receiver counts;
* MAX (MaxId, GossipMax) and CONSENSUS (ConsensusKnownD): a coin per
  node decides the mask, senders send their best value, receivers keep
  the max (CONSENSUS carries the max id's value with it);
* COUNT-N (CountNodes): every node holds an (R,) row of quantized
  exponential minima, round r sends component ``(r - 1) mod R`` on a
  coin, and receivers keep the min of that one column.

The coins are the round's (N,) uint64 stream states, drawn with
:func:`~repro.sim.coins.nth_draws` and compared with the integer
threshold of :func:`~repro.sim.coins.bit_threshold`, so every bit is
the one the node's own :class:`~repro.sim.coins.Coins` would flip.  The
merges run over the sender positions
:func:`~repro.sim.batch._incidence` groups by receiver
(:func:`merge_heard`), on dense, bitset and CSR topologies alike.

An array program transcribes one node class, and it runs only where the
transcription is exact.  :func:`select_program` checks that

* every node is of one class the program names — a subclass is never
  trusted, however little it changes;
* that class resolves ``action``, ``on_messages``, ``on_sent`` and
  ``output`` to exactly the functions the program captured when its
  protocol module was imported, so a method that is monkeypatched,
  overridden or wrapped by an outside tracer falls back to the per-node
  path;
* every uid is in [0, 2^64) when the program draws coins, so the
  engine's vectorized coin fold exists;
* the node state passes the program's own :meth:`ArrayProgram.accepts`
  (equal immutable tokens, int64 values, one R, ...).

The engine adds the last condition, a replay tape: an adaptive adversary
reads the committed actions, which an array program never builds.

Node sync: during a run the arrays are the state, and the program writes
back the node fields that other code reads (``finish()``, ``stop=``
predicates, experiment checks, manual ``step()`` loops) at every stage
boundary — in :meth:`ArrayProgram.act` after the actions stage
(``rounds_seen``, COUNT-N's first ``mins``), in
:meth:`ArrayProgram.hear` after delivery (the fields a receiver
changed).  The arrays are read from the nodes once, when the engine is
built.  The node classes stay the reference engine's oracle; the array
forms live beside them (:mod:`repro.protocols.flooding`,
:mod:`repro.protocols.cflood`, :mod:`repro.protocols.max_id`,
:mod:`repro.protocols.consensus`, :mod:`repro.protocols.hearfrom`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .encoding import immutable_payload, interned_encoding, types_match
from .node import ProtocolNode

__all__ = [
    "NODE_METHODS",
    "node_methods",
    "is_int64",
    "merge_heard",
    "ArrayProgram",
    "TokenPushProgram",
    "select_program",
]

#: the node methods an engine calls, all of which a program transcribes
NODE_METHODS = ("action", "on_messages", "on_sent", "output")

#: exact node class -> the array program that transcribes it
_PROGRAMS: Dict[type, type] = {}

_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def node_methods(*classes: type) -> Dict[type, Dict[str, Callable[..., Any]]]:
    """The functions each class resolves :data:`NODE_METHODS` to."""
    return {cls: {name: getattr(cls, name) for name in NODE_METHODS} for cls in classes}


def is_int64(value: Any) -> bool:
    """True iff ``value`` is an exact ``int`` (not a bool) that fits int64."""
    return type(value) is int and _INT64_MIN <= value <= _INT64_MAX


def merge_heard(
    ufunc: np.ufunc,
    column: np.ndarray,
    recv_idx: np.ndarray,
    send_idx: np.ndarray,
    counts: np.ndarray,
    cols: np.ndarray,
) -> Tuple[List[int], List[int]]:
    """Merge each receiver's senders into ``column`` with ``ufunc``.

    ``column`` holds one value per node and is updated in place;
    ``counts`` and ``cols`` are :func:`~repro.sim.batch._incidence`'s
    per-receiver sender counts and grouped sender positions, so one
    ``ufunc.reduceat`` reduces what every receiver heard.  Returns the
    node positions whose value changed and their new values, as lists,
    for the node write-back.
    """
    heard = counts > 0
    starts = (np.cumsum(counts) - counts)[heard]
    merged = ufunc.reduceat(column[send_idx][cols], starts)
    idx = recv_idx[heard]
    own = column[idx]
    new = ufunc(own, merged)
    changed = new != own
    idx, new = idx[changed], new[changed]
    column[idx] = new
    return idx.tolist(), new.tolist()


class ArrayProgram:
    """One node class's round as numpy state over the sorted node ids.

    A subclass captures the exact node classes it runs with
    ``methods = node_methods(...)`` (defining the class registers it),
    says whether :meth:`act` needs the round's coin states
    (``draws_coins``) and whether :meth:`hear` needs each receiver's
    sender positions or only counts (``ranks``), and implements the
    round: :meth:`act`, :meth:`charge`, :meth:`hear`, :meth:`complete`.
    """

    #: exact node class -> its :data:`NODE_METHODS` functions, captured at import
    methods: Dict[type, Dict[str, Callable[..., Any]]] = {}
    #: act() reads the round's (N,) uint64 coin states
    draws_coins = False
    #: hear() reads each receiver's sender positions, not only counts
    ranks = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for node_cls in cls.methods:
            _PROGRAMS[node_cls] = cls

    def __init__(self, nodes: List[ProtocolNode]):
        self.nodes = nodes

    @classmethod
    def accepts(cls, nodes: Sequence[ProtocolNode]) -> bool:
        """True iff this node state has an exact array form."""
        return True

    def act(self, round_: int, states: Optional[np.ndarray]) -> np.ndarray:
        """The (N,) send mask; writes back what ``action`` changes.

        ``states`` are the round's coin states (``draws_coins`` only).
        """
        raise NotImplementedError

    def charge(self, send_idx: np.ndarray) -> Tuple[Sequence[Any], Sequence[int]]:
        """Each sender's payload and its CONGEST bits, in ``send_idx`` order."""
        raise NotImplementedError

    def hear(
        self,
        round_: int,
        recv_idx: np.ndarray,
        send_idx: np.ndarray,
        counts: np.ndarray,
        cols: Optional[np.ndarray],
    ) -> None:
        """Apply the receivers' reduction and write back what changed."""
        raise NotImplementedError

    def complete(self, round_: int) -> bool:
        """True iff every node's ``output()`` is set after this round."""
        raise NotImplementedError

    @staticmethod
    def _charged(
        memo: Dict[int, Tuple[Any, int]], keys: List[int], make: Callable[[int], Any]
    ) -> Tuple[Sequence[Any], Sequence[int]]:
        """:meth:`charge` for payloads ``make(key)``, one per key.

        ``memo`` keeps each key's payload and bits, so
        :func:`~repro.sim.encoding.interned_encoding` is asked once per
        distinct payload.
        """
        try:
            entries = list(map(memo.__getitem__, keys))
        except KeyError:
            for key in keys:
                if key not in memo:
                    payload = make(key)
                    memo[key] = (payload, interned_encoding(payload)[1])
            entries = list(map(memo.__getitem__, keys))
        payloads, bits = zip(*entries)
        return payloads, bits


class TokenPushProgram(ArrayProgram):
    """Token push: ``Send(token) if informed else Receive()``, and a
    receiver becomes informed on any payload.

    A subclass defines :meth:`complete` (and :meth:`act`, if the node's
    ``action`` writes state).
    """

    def __init__(self, nodes: List[ProtocolNode]):
        super().__init__(nodes)
        #: each node's own token object (the round records hold them)
        self.tokens = [node.token for node in nodes]
        #: one representative: every token encodes like it
        self.token = self.tokens[0]
        self.informed = np.fromiter(
            (bool(node.informed) for node in nodes), dtype=bool, count=len(nodes)
        )

    @classmethod
    def accepts(cls, nodes: Sequence[ProtocolNode]) -> bool:
        """Every token equals the first, of the same types, and is vouched
        immutable, so one encoding charges every sender."""
        token = nodes[0].token
        if not immutable_payload(token):
            return False
        for node in nodes:
            other = node.token
            # the type structure first, so == only ever compares flat tuples
            # of scalars (or scalars) shaped like the vouched token
            if other is not token and not (types_match(token, other) and other == token):
                return False
        return True

    def act(self, round_: int, states: Optional[np.ndarray]) -> np.ndarray:
        return self.informed

    def charge(self, send_idx: np.ndarray) -> Tuple[Sequence[Any], Sequence[int]]:
        payloads = list(map(self.tokens.__getitem__, send_idx.tolist()))
        return payloads, [interned_encoding(self.token)[1]] * len(payloads)

    def hear(self, round_, recv_idx, send_idx, counts, cols) -> None:
        idx = recv_idx[counts > 0]
        self.informed[idx] = True
        nodes = self.nodes
        for i in idx.tolist():
            node = nodes[i]
            node.informed = True
            node.informed_round = round_


def select_program(
    uids: Sequence[int], nodes: Sequence[ProtocolNode]
) -> Optional[ArrayProgram]:
    """The array program for ``nodes`` (in ``uids`` order), or None.

    None keeps the per-node path; see the module docstring for the
    conditions.
    """
    if not nodes:
        return None
    cls = type(nodes[0])
    program = _PROGRAMS.get(cls)
    if program is None or any(
        getattr(cls, name, None) is not fn for name, fn in program.methods[cls].items()
    ):
        return None
    if any(type(node) is not cls for node in nodes):
        return None
    if program.draws_coins and not all(0 <= uid < 2 ** 64 for uid in uids):
        return None
    if not program.accepts(nodes):
        return None
    return program(list(nodes))
