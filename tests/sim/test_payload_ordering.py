"""Delivery-order canonicalization: payloads sort by value encoding.

Regression for the ``sort(key=repr)`` bug: objects without a canonical
``__repr__`` (the default includes the memory address) made the
receivers' payload order depend on allocation addresses — deterministic
within a process by accident, different across processes, which breaks
the bit-identical re-execution the Lemma-5 simulation requires.  The
engine now sorts by :func:`repro._util.canonical_encoding`, the stable
byte encoding whose sizes :func:`bit_size` charges.  The batch engine
reads those encodings through an identity memo, pinned at the end.
"""

from __future__ import annotations

from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import bit_size, canonical_encoding
from repro.errors import ConfigurationError
from repro.network.adversaries import StaticAdversary
from repro.network.generators import star_edges
from repro.sim.actions import Receive, Send
from repro.sim.coins import CoinSource
from repro.sim.encoding import EncodingMemo, interned_encoding
from repro.sim.engine import SynchronousEngine
from repro.sim.node import ProtocolNode


class OpaquePayload:
    """A payload whose default repr embeds ``id(self)`` — the bug trigger."""

    def __init__(self, rank: int):
        self.rank = rank

    def payload_bits(self) -> int:
        return 8

    def payload_encoding(self) -> bytes:
        return bytes([self.rank])


class SendRanked(ProtocolNode):
    def __init__(self, uid: int, rank: int):
        super().__init__(uid)
        self.rank = rank

    def action(self, round_, coins):
        return Send(OpaquePayload(self.rank))

    def on_messages(self, round_, payloads):
        pass


class Collector(ProtocolNode):
    def __init__(self, uid: int):
        super().__init__(uid)
        self.seen = []

    def action(self, round_, coins):
        return Receive()

    def on_messages(self, round_, payloads):
        self.seen.append([getattr(p, "rank", p) for p in payloads])


def run_star(ranks_by_uid):
    """Hub 0 receives from leaves 1..k, each sending an OpaquePayload."""
    ids = [0] + sorted(ranks_by_uid)
    nodes = {0: Collector(0)}
    nodes.update({u: SendRanked(u, r) for u, r in ranks_by_uid.items()})
    adv = StaticAdversary(ids, star_edges(0, ids[1:]))
    eng = SynchronousEngine(nodes, adv, CoinSource(1))
    eng.step()
    return nodes[0].seen[0]


class TestEngineDeliveryOrder:
    def test_opaque_payloads_sorted_by_value_not_address(self):
        # whatever the allocation order, delivery follows the encoding
        order_a = run_star({1: 30, 2: 10, 3: 20})
        order_b = run_star({1: 10, 2: 20, 3: 30})
        assert order_a == order_b == [10, 20, 30]

    def test_int_payloads_sorted_numerically(self):
        class SendInt(ProtocolNode):
            def __init__(self, uid, value):
                super().__init__(uid)
                self.value = value

            def action(self, round_, coins):
                return Send(self.value)

            def on_messages(self, round_, payloads):
                pass

        ids = [0, 1, 2, 3]
        nodes = {0: Collector(0), 1: SendInt(1, 10), 2: SendInt(2, 2), 3: SendInt(3, 9)}
        adv = StaticAdversary(ids, star_edges(0, ids[1:]))
        eng = SynchronousEngine(nodes, adv, CoinSource(1))
        eng.step()
        got = nodes[0].seen[0]
        # repr-sorting would have produced the lexicographic ["10", "2", "9"]
        assert got == [(2), (9), (10)] or got == [2, 9, 10]


class TestCanonicalEncoding:
    def test_structurally_equal_objects_encode_equal(self):
        assert canonical_encoding(OpaquePayload(5)) == canonical_encoding(OpaquePayload(5))
        assert canonical_encoding(OpaquePayload(5)) != canonical_encoding(OpaquePayload(6))

    def test_type_distinctions(self):
        assert canonical_encoding(1) != canonical_encoding(True)
        assert canonical_encoding(0) != canonical_encoding(False)
        assert canonical_encoding(1) != canonical_encoding(1.0)
        assert canonical_encoding("1") != canonical_encoding(1)
        assert canonical_encoding((1,)) == canonical_encoding([1])  # same algebra as bit_size

    def test_unencodable_object_rejected(self):
        class NoHook:
            pass

        with pytest.raises(ConfigurationError):
            canonical_encoding(NoHook())

    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-(2**70), 2**70),
                st.floats(allow_nan=False),
                st.text(max_size=8),
                st.binary(max_size=8),
            ),
            lambda c: st.one_of(st.tuples(c, c), st.lists(c, max_size=3)),
            max_leaves=6,
        )
    )
    def test_total_deterministic_over_payload_algebra(self, payload):
        enc = canonical_encoding(payload)
        assert isinstance(enc, bytes)
        assert enc == canonical_encoding(payload)
        bit_size(payload)  # same algebra: whatever bit_size charges, we encode


# -- the engine's identity memo over the interned encodings ---------------


def test_encoding_memo_matches_interned():
    memo = EncodingMemo()
    for payload in (5, (1, 2), ("x", True), None, (3.5, b"ab")):
        assert memo.lookup(0, payload) == interned_encoding(payload)
    # a sender re-sending its last object gets the identical answer
    payload = (9, "token")
    first = memo.lookup(1, payload)
    assert memo.lookup(1, payload) == first
    # an equal-but-distinct object that encodes differently is not served
    # the remembered encoding
    assert memo.lookup(1, (9, "token")) == first
    assert memo.lookup(2, (True,)) == interned_encoding((True,))
    assert memo.lookup(2, (1,)) == interned_encoding((1,))


def test_encoding_memo_admits_only_flat_immutable_payloads():
    memo = EncodingMemo()
    inner = [1, 2]
    nested = (inner, 3)  # valid payload, but its value can change under one id
    assert memo.lookup(0, nested) == interned_encoding(nested)
    inner.append(4)
    assert memo.lookup(0, nested) == interned_encoding(([1, 2, 4], 3))
    mutable = [5]
    assert memo.lookup(1, mutable) == interned_encoding([5])
    mutable.append(6)
    assert memo.lookup(1, mutable) == interned_encoding([5, 6])


def test_encoding_memo_bounded():
    memo = EncodingMemo()
    for round_ in range(6):
        for sender in (0, 1):
            memo.lookup(sender, (round_, sender))
    assert len(memo) == 2  # one entry per sender, however many payloads


# -- equal payloads of one subclass that encode differently ---------------

Pair = namedtuple("Pair", "first second")


class Real(float):
    """A float subclass: ``Real(0.0) == Real(-0.0)``, encodings differ."""


#: (a, b): equal, same class, hashing alike, different encodings; the
#: tags keep the values out of every other test's cache entries
SUBCLASS_COLLISIONS = [
    (Pair(1, "types-match/int-bool"), Pair(True, "types-match/int-bool")),
    (Pair(0.0, "types-match/zeros"), Pair(-0.0, "types-match/zeros")),
    (Real(0.0), Real(-0.0)),
]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize(
    "pair", SUBCLASS_COLLISIONS, ids=["namedtuple-bool", "namedtuple-zero", "float-zero"]
)
def test_interned_encoding_walks_subclasses(pair, reverse):
    """Whichever of two colliding payloads is interned first, the other
    gets its own encoding and bit charge, not the cached ones."""
    a, b = reversed(pair) if reverse else pair
    assert a == b and hash(a) == hash(b) and canonical_encoding(a) != canonical_encoding(b)
    for payload in (a, b, a):
        assert interned_encoding(payload) == (canonical_encoding(payload), bit_size(payload))
