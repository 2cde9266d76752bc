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


def types_match(a: Any, b: Any) -> bool:
    """True iff equal values ``a`` and ``b`` also encode identically.

    Callers only invoke this on values that already compare equal (they
    collided as dict keys), so only the *type structure* needs checking:
    same types at every level of the tuple/list nesting, plus the one
    same-type trap — ``0.0 == -0.0`` with distinct IEEE encodings.
    Frozensets are conservatively rejected (their equal-but-mixed-type
    pairings cannot be matched element-wise without re-encoding).
    """
    if a is b:
        return True
    cls = a.__class__
    if cls is not b.__class__:
        return False
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
    """An identity-keyed ``payload -> (encoding, bits)`` memo.

    Protocols re-send the *same object* round after round (a node holds
    its best estimate and keeps forwarding it), so an ``id()`` lookup
    beats even the interned table's hash-and-verify.  Admission is
    restricted to payloads :func:`immutable_payload` vouches for —
    identity then implies value — and every miss falls through to
    :func:`interned_encoding`, so the memo can only save work, never
    change a result.

    Each :class:`~repro.sim.batch.BatchEngine` owns one.  Bounded: the
    memo clears itself at ``limit`` entries (payload churn would
    otherwise pin every sent object alive via the stored reference).
    """

    __slots__ = ("_memo", "limit")

    def __init__(self, limit: int = 4096):
        self._memo: Dict[int, Tuple[Any, bytes, int]] = {}
        self.limit = limit

    def lookup(self, payload: Any) -> Tuple[bytes, int]:
        """``(canonical_encoding, bit_size)`` via identity, then interning."""
        memo = self._memo
        entry = memo.get(id(payload))
        if entry is not None and entry[0] is payload:
            return entry[1], entry[2]
        enc, nbits = interned_encoding(payload)
        if immutable_payload(payload):
            if len(memo) >= self.limit:  # bound memory on payload churn
                memo.clear()
            memo[id(payload)] = (payload, enc, nbits)
        return enc, nbits

    def __len__(self) -> int:
        return len(self._memo)


def cache_info() -> Dict[str, int]:
    """Hit/miss/size counters (for tests and the performance docs)."""
    return {"hits": _hits, "misses": _misses, "size": len(_CACHE)}


def clear_cache() -> None:
    """Drop the interned table (tests; never needed in production)."""
    global _hits, _misses
    _CACHE.clear()
    _hits = 0
    _misses = 0
