"""Process-global interned payload encodings for the CONGEST hot path.

Every round, the engine needs two derived values per sent payload: its
:func:`~repro._util.canonical_encoding` (the delivery sort key) and its
:func:`~repro._util.bit_size` (the CONGEST charge).  Both are recursive
pure functions of the payload value, and experiment payloads repeat
heavily — a gossip protocol re-sends ``("max", best)`` thousands of
times per sweep cell — so this module interns ``payload -> (encoding,
bits)`` once per process and shares the table across engines, rounds,
and replicas.

Correctness of the intern table is mechanical, not probabilistic.  A
plain ``dict`` keyed on the payload would confuse values that compare
equal but encode differently — ``True == 1``, ``1.0 == 1``, and
``0.0 == -0.0`` all collide as dict keys while their canonical
encodings (and bit charges) differ.  Every cache hit is therefore
verified with :func:`types_match`, a cheap structural type walk over
the stored payload and the query; a mismatch falls through to a fresh
computation and never poisons the table.  Unhashable payloads (lists)
bypass the table entirely, exactly like the reference engine's
per-run memo.

In front of the table, each batch engine keeps an :class:`EncodingMemo`:
every sender's last payload object.  A node that re-sends the object it
sent last round (a token, a held estimate) is answered by one identity
test; a protocol that builds a fresh payload each round pays one dict
lookup and one store on top of the table.  The trace writer
(:func:`repro.obs.export.round_lines`) caches payload *texts* under the
same :func:`types_match` rule.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

from .._util import bit_size, canonical_encoding

__all__ = [
    "interned_encoding",
    "types_match",
    "cache_info",
    "clear_cache",
    "immutable_payload",
    "EncodingMemo",
]

#: payload -> (payload-as-stored, canonical encoding, bit size).  The
#: stored payload lets each hit verify structural types (see module
#: docs); bounded so high-entropy workloads cannot grow it unboundedly.
_CACHE: Dict[Any, Tuple[Any, bytes, int]] = {}
_CACHE_LIMIT = 65536

_hits = 0
_misses = 0


#: the exact types whose encoding :func:`types_match` knows directly;
#: any other class is first mapped to the base it encodes as
_KNOWN_TYPES = frozenset(
    (tuple, list, float, frozenset, int, bool, str, bytes, type(None))
)


def _encoded_base(cls: type) -> type:
    """The container or float base a subclass encodes as, else ``cls``."""
    for base in (tuple, list, float, frozenset):
        if issubclass(cls, base):
            return base
    return cls


def types_match(a: Any, b: Any) -> bool:
    """True iff equal values ``a`` and ``b`` also encode identically.

    Callers only invoke this on values that already compare equal (they
    collided as dict keys), so only the *type structure* needs checking:
    same types at every level of the tuple/list nesting, plus the one
    same-type trap — ``0.0 == -0.0`` with distinct IEEE encodings.
    Tuple, list and float subclasses are checked like their bases (a
    namedtuple encodes as its items, so ``P(1, 2)`` and ``P(True, 2)``
    differ).  Frozensets are conservatively rejected (their
    equal-but-mixed-type pairings cannot be matched element-wise
    without re-encoding).
    """
    if a is b:
        return True
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls not in _KNOWN_TYPES:
        cls = _encoded_base(cls)
    if cls is tuple or cls is list:
        for x, y in zip(a, b):
            # hot path: interned strings and small-int leaves are
            # identical objects, so most elements settle on `is`
            if x is not y and not types_match(x, y):
                return False
        return True
    if cls is float:
        # equal floats with different encodings: only the signed zeros
        return math.copysign(1.0, a) == math.copysign(1.0, b)
    if cls is frozenset:
        return False
    return True


def interned_encoding(payload: Any) -> Tuple[bytes, int]:
    """``(canonical_encoding(payload), bit_size(payload))``, interned.

    Hashable payloads are computed once per process; unhashable ones are
    computed every call (matching the reference engine's fallback).
    """
    global _hits, _misses
    try:
        entry = _CACHE.get(payload)
    except TypeError:  # unhashable payload: never interned
        return canonical_encoding(payload), bit_size(payload)
    if entry is not None and types_match(entry[0], payload):
        _hits += 1
        return entry[1], entry[2]
    _misses += 1
    enc = canonical_encoding(payload)
    bits = bit_size(payload)
    if entry is None:
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.clear()
        _CACHE[payload] = (payload, enc, bits)
    return enc, bits


#: leaf types whose values can never change under a live reference
_SCALAR_TYPES = frozenset((int, float, bool, str, bytes, type(None)))


def immutable_payload(payload: Any) -> bool:
    """True iff this exact object's encoding can be memoized by identity.

    Flat tuples of scalars (and bare scalars) are immutable all the way
    down, so the same object always encodes the same way.  Anything
    nested or mutable falls back to the value-keyed interned cache.
    """
    cls = payload.__class__
    if cls is tuple:
        for item in payload:
            if item.__class__ not in _SCALAR_TYPES:
                return False
        return True
    return cls in _SCALAR_TYPES


class EncodingMemo:
    """Each sender's last payload object, with its ``(encoding, bits)``.

    Protocols re-send the *same object* round after round (a node holds
    its best estimate, or its token, and keeps forwarding it), so asking
    "is this the object this sender sent last?" beats even the interned
    table's hash-and-verify.  The memo holds that object, so ``is``
    cannot match another object that reused its ``id()``; and it answers
    only for payloads :func:`immutable_payload` vouches for, where
    identity implies value.  Every other lookup falls through to
    :func:`interned_encoding`, so the memo can only save work, never
    change a result.

    A protocol that builds a fresh payload every round never hits, so a
    miss costs one dict lookup and one store on top of
    :func:`interned_encoding`; the immutability check runs only on an
    identity hit.  One entry per sender bounds the memo at N entries
    with no clearing.  Each :class:`~repro.sim.batch.BatchEngine` owns
    one.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last: Dict[Any, Tuple[Any, bytes, int]] = {}

    def lookup(self, sender: Any, payload: Any) -> Tuple[bytes, int]:
        """``(canonical_encoding, bit_size)`` of ``sender``'s ``payload``."""
        entry = self._last.get(sender)
        if entry is not None and entry[0] is payload and immutable_payload(payload):
            return entry[1], entry[2]
        enc, nbits = interned_encoding(payload)
        self._last[sender] = (payload, enc, nbits)
        return enc, nbits

    def __len__(self) -> int:
        return len(self._last)


def cache_info() -> Dict[str, int]:
    """Hit/miss/size counters (for tests and the performance docs)."""
    return {"hits": _hits, "misses": _misses, "size": len(_CACHE)}


def clear_cache() -> None:
    """Drop the interned table (tests; never needed in production)."""
    global _hits, _misses
    _CACHE.clear()
    _hits = 0
    _misses = 0
