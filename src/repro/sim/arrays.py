"""Array programs: token-push protocols run as (N,) numpy state.

The batch engine's per-node path asks every node for its action, hands
every receiver its payload tuple and polls every ``output()``, every
round.  For deterministic token push — informed nodes send one token,
the others receive, and a receiver that hears anything becomes informed
— all of that is a function of one boolean per node.  So
:class:`~repro.sim.batch.BatchEngine` runs such a node set as arrays:
the send mask is the ``informed`` array, the CONGEST charge is one
encoding lookup per round for the shared token, delivery needs only
per-receiver counts, and termination is an array reduction.

An array program transcribes one node class, and it runs only where the
transcription is exact.  :func:`select_program` checks that

* every node is of one class the program names — a subclass is never
  trusted, however little it changes;
* that class resolves ``action``, ``on_messages``, ``on_sent`` and
  ``output`` to exactly the functions the program captured when its
  protocol module was imported, so a method that is monkeypatched,
  overridden or wrapped by an outside tracer falls back to the per-node
  path;
* every node holds a token equal to the first, of the same types
  (:func:`~repro.sim.encoding.types_match`), which
  :func:`~repro.sim.encoding.immutable_payload` vouches for, so one
  encoding charges every sender.

The engine adds the last condition, a replay tape: an adaptive adversary
reads the committed actions, which an array program never builds.

Node sync: during a run the arrays are the state, and the engine writes
back the node fields that other code reads (``finish()``, ``stop=``
predicates, experiment checks, manual ``step()`` loops) at every stage
boundary — :meth:`TokenPushProgram.act` after the actions stage (CFLOOD's
``rounds_seen``), :meth:`TokenPushProgram.hear` after delivery
(``informed`` and ``informed_round`` of each newly informed node).  The
arrays are read from the nodes once, when the engine is built.  The
node classes stay the reference engine's oracle; the array forms live
beside them (:mod:`repro.protocols.flooding`,
:mod:`repro.protocols.cflood`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .encoding import immutable_payload, types_match
from .node import ProtocolNode

__all__ = ["NODE_METHODS", "node_methods", "TokenPushProgram", "select_program"]

#: the node methods an engine calls, all of which a program transcribes
NODE_METHODS = ("action", "on_messages", "on_sent", "output")

#: exact node class -> the array program that transcribes it
_PROGRAMS: Dict[type, type] = {}


def node_methods(cls: type) -> Dict[str, Callable[..., Any]]:
    """The functions ``cls`` resolves :data:`NODE_METHODS` to, by name."""
    return {name: getattr(cls, name) for name in NODE_METHODS}


class TokenPushProgram:
    """A token-push node class as (N,) arrays over the sorted node ids.

    A subclass names the exact ``node_classes`` it runs, captures their
    ``methods`` with :func:`node_methods` at import, and defines
    :meth:`complete`; defining the class registers it.  The nodes' own
    transcribed methods are ``Send(token) if informed else Receive()``
    and "become informed on any payload", which this base implements.
    """

    #: the exact node classes this program runs
    node_classes: Tuple[type, ...] = ()
    #: :data:`NODE_METHODS` -> the functions transcribed, captured at import
    methods: Dict[str, Callable[..., Any]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for node_cls in cls.node_classes:
            _PROGRAMS[node_cls] = cls

    def __init__(self, nodes: List[ProtocolNode]):
        self.nodes = nodes
        #: each node's own token object (the round records hold them)
        self.tokens = [node.token for node in nodes]
        #: one representative: every token encodes like it
        self.token = self.tokens[0]
        self.informed = np.fromiter(
            (bool(node.informed) for node in nodes), dtype=bool, count=len(nodes)
        )

    def act(self, round_: int) -> None:
        """Write back what ``action`` changes on the nodes (default: nothing)."""

    def hear(self, round_: int, idx: np.ndarray) -> None:
        """Receivers at ``idx`` heard at least one token this round."""
        self.informed[idx] = True
        nodes = self.nodes
        for i in idx.tolist():
            node = nodes[i]
            node.informed = True
            node.informed_round = round_

    def complete(self, round_: int) -> bool:
        """True iff every node's ``output()`` is set after this round."""
        raise NotImplementedError


def select_program(nodes: Sequence[ProtocolNode]) -> Optional[TokenPushProgram]:
    """The array program for ``nodes`` (uid order), or None for per-node.

    None unless the transcription is exact; see the module docstring.
    """
    if not nodes:
        return None
    cls = type(nodes[0])
    program = _PROGRAMS.get(cls)
    if program is None or any(
        getattr(cls, name, None) is not fn for name, fn in program.methods.items()
    ):
        return None
    if any(type(node) is not cls for node in nodes):
        return None
    token = nodes[0].token
    if not immutable_payload(token):
        return None
    for node in nodes:
        other = node.token
        # the type structure first, so == only ever compares flat tuples
        # of scalars (or scalars) shaped like the vouched token
        if other is not token and not (types_match(token, other) and other == token):
            return None
    return program(list(nodes))
