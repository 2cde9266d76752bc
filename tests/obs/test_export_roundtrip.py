"""JSONL export round-trips and ExecutionTrace accounting properties.

The satellite requirements made explicit: ``total_bits()`` equals both
the sum over ``bits_by_node()`` and the sum of per-record
``total_bits``, and ``edge_schedule()`` survives a JSONL round trip
losslessly — property-based over randomized traces and payloads.

The round-line encoder (:func:`round_lines`) is checked against its
definition, ``json.dumps(_round_line(record), sort_keys=True)``, on
traces built to trip each of its caches: ids whose string order is not
their numeric order, reused and equal-but-distinct edge sets, and equal
payloads that encode differently.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import tempfile
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import bit_size
from repro.obs.export import (
    _round_line,
    decode_payload,
    encode_payload,
    read_run_summary,
    read_trace_jsonl,
    round_lines,
    write_trace_jsonl,
)
from repro.obs.manifest import RunManifest
from repro.sim.trace import ExecutionTrace, RoundRecord, trace_fingerprint

# ----------------------------------------------------------------------
# strategies
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3),
        st.frozensets(scalars, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def traces(draw):
    """A structurally valid ExecutionTrace over a small node set."""
    n = draw(st.integers(2, 6))
    ids = list(range(1, n + 1))
    num_rounds = draw(st.integers(0, 6))
    trace = ExecutionTrace(num_nodes=n)
    for r in range(1, num_rounds + 1):
        possible_edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
        edges = frozenset(draw(st.lists(st.sampled_from(possible_edges), max_size=6)))
        senders = draw(st.lists(st.sampled_from(ids), max_size=n, unique=True))
        sends = {}
        for uid in senders:
            payload = draw(st.one_of(st.integers(0, 100), st.tuples(st.integers(0, 9))))
            sends[uid] = payload
        bits = {uid: bit_size(p) for uid, p in sends.items()}
        receivers = frozenset(uid for uid in ids if uid not in sends)
        delivered = {
            uid: sum(1 for (a, b) in edges if uid in (a, b) and (a + b - uid) in sends)
            for uid in receivers
        }
        trace.append(
            RoundRecord(
                round=r,
                edges=edges,
                sends=sends,
                bits=bits,
                receivers=receivers,
                delivered=delivered,
            )
        )
    if num_rounds and draw(st.booleans()):
        trace.termination_round = num_rounds
        trace.outputs = {uid: draw(st.integers(0, 5)) for uid in ids}
    return trace


# ----------------------------------------------------------------------
class TestPayloadCodec:
    @given(payloads)
    @settings(max_examples=120)
    def test_codec_round_trips_payload_algebra(self, payload):
        encoded = encode_payload(payload)
        json.dumps(encoded)  # must be JSON-serializable as-is
        assert decode_payload(encoded) == payload
        assert type(decode_payload(encoded)) is type(payload)

    def test_tuple_list_distinction_preserved(self):
        assert decode_payload(encode_payload((1, 2))) == (1, 2)
        assert decode_payload(encode_payload([1, 2])) == [1, 2]
        assert decode_payload(encode_payload((True, 1))) == (True, 1)
        back = decode_payload(encode_payload((True, 1)))
        assert isinstance(back[0], bool) and not isinstance(back[1], bool)

    def test_unknown_object_degrades_to_repr(self):
        class Weird:
            def __repr__(self):
                return "Weird()"

        assert decode_payload(encode_payload(Weird())) == "Weird()"


class TestTraceAccounting:
    @given(traces())
    @settings(max_examples=60)
    def test_total_bits_identities(self, trace):
        assert trace.total_bits() == sum(trace.bits_by_node().values())
        assert trace.total_bits() == sum(rec.total_bits for rec in trace)

    @given(traces())
    @settings(max_examples=40)
    def test_edge_schedule_round_trips_losslessly(self, trace):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "run.jsonl"
            write_trace_jsonl(trace, path)
            back = read_trace_jsonl(path).trace
        assert back.edge_schedule() == trace.edge_schedule()

    @given(traces())
    @settings(max_examples=40)
    def test_full_trace_round_trip(self, trace):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "run.jsonl"
            manifest = RunManifest(seed=7, num_nodes=trace.num_nodes, adversary="Test")
            write_trace_jsonl(trace, path, manifest=manifest)
            run = read_trace_jsonl(path)
        back = run.trace
        assert back.num_nodes == trace.num_nodes
        assert back.rounds == trace.rounds
        assert back.termination_round == trace.termination_round
        assert back.outputs == trace.outputs
        assert back.total_bits() == trace.total_bits()
        assert back.bits_by_node() == trace.bits_by_node()
        for a, b in zip(back, trace):
            assert a.round == b.round
            assert a.edges == b.edges
            assert a.sends == b.sends
            assert a.bits == b.bits
            assert a.receivers == b.receivers
            assert a.delivered == b.delivered
        assert run.manifest.seed == 7 and run.manifest.adversary == "Test"

    @given(traces())
    @settings(max_examples=30)
    def test_run_summary_matches_the_full_read(self, trace):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "run.jsonl"
            manifest = RunManifest(seed=3, num_nodes=trace.num_nodes, adversary="Test")
            write_trace_jsonl(trace, path, manifest=manifest)
            head, summary = read_run_summary(path)
            # cut before its summary line, the file is read in full
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:-1]) + "\n")
            _, cut = read_run_summary(path)
        columns = ("rounds", "termination_round", "total_bits")
        assert [summary[c] for c in columns] == [
            trace.rounds, trace.termination_round, trace.total_bits()
        ]
        assert [cut[c] for c in columns] == [trace.rounds, None, trace.total_bits()]
        assert head.seed == 3 and head.adversary == "Test"


# ----------------------------------------------------------------------
# the round-line encoder against its definition
def reference_line(record: RoundRecord) -> str:
    return json.dumps(_round_line(record), sort_keys=True)


class Tagged:
    """Equal by key but printed with its label: two equal payloads whose
    repr-fallback texts differ."""

    def __init__(self, key, label):
        self.key, self.label = key, label

    def __eq__(self, other):
        return isinstance(other, Tagged) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Tagged({self.key}, {self.label!r})"


#: equal values with distinct encodings (True == 1 == 1.0, 0.0 == -0.0),
#: bare and nested, so one trace meets both members in either order
twins = st.sampled_from([
    True, 1, 1.0, 0.0, -0.0, (True, 2), (1, 2), (1.0, 2), ("z", 0.0), ("z", -0.0),
    [1, (True,)], frozenset({1}), frozenset({True}), frozenset({1.0}),
])
line_payloads = st.one_of(
    payloads,
    twins,
    st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64)),
    st.sampled_from([math.nan, math.inf, -math.inf, ("n", math.nan)]),
    st.text(alphabet="aé中\n\"\\\x00\u2028😀", max_size=6),
    st.tuples(st.lists(scalars, max_size=2), st.tuples(scalars, twins)),
    st.builds(Tagged, st.integers(0, 1), st.sampled_from(["a", "b"])),
)


@st.composite
def line_traces(draw):
    """Traces over ids in 0..120 and a few negatives, whose rounds reuse
    edge-set objects, bring equal but distinct copies, or draw new ones."""
    ids = draw(st.lists(st.integers(-3, 120), min_size=2, max_size=9, unique=True))
    possible_edges = [(u, v) for u in ids for v in ids if u < v]
    trace = ExecutionTrace(num_nodes=len(ids))
    seen = []
    for r in range(1, draw(st.integers(1, 8)) + 1):
        how = draw(st.sampled_from(["new", "same", "copy"])) if seen else "new"
        if how == "new":
            edges = frozenset(draw(st.lists(st.sampled_from(possible_edges), max_size=8)))
            seen.append(edges)
        else:
            edges = draw(st.sampled_from(seen))
            if how == "copy":
                edges = frozenset(list(edges))
        senders = draw(st.lists(st.sampled_from(ids), max_size=len(ids), unique=True))
        receivers = frozenset(uid for uid in ids if uid not in senders)
        trace.append(RoundRecord(
            round=r,
            edges=edges,
            sends={uid: draw(line_payloads) for uid in senders},
            bits={uid: draw(st.integers(0, 2**40)) for uid in senders},
            receivers=receivers,
            delivered={uid: draw(st.integers(0, len(ids))) for uid in receivers},
        ))
    if draw(st.booleans()):
        trace.termination_round = trace.rounds
        trace.outputs = {uid: draw(line_payloads) for uid in ids}
    return trace


class TestRoundLineEncoder:
    @given(line_traces())
    @settings(max_examples=150)
    def test_lines_and_fingerprint_match_the_definition(self, trace):
        want = [reference_line(record) for record in trace]
        assert list(round_lines(trace)) == want
        h = hashlib.sha256()
        for line in want:
            h.update(line.encode())
        tail = {
            "termination_round": trace.termination_round,
            "outputs": {str(u): encode_payload(o) for u, o in sorted(trace.outputs.items())},
        }
        h.update(json.dumps(tail, sort_keys=True).encode())
        assert trace_fingerprint(trace) == h.hexdigest()

    @pytest.mark.parametrize(
        "record",
        [
            RoundRecord(1, frozenset(), {True: 1}, {True: 3}, frozenset(), {}),
            RoundRecord(1, frozenset(), {1: 1}, {1: 2.5}, frozenset({2}), {2: True}),
            RoundRecord(1, frozenset(), {"a": 1}, {"a": 3}, frozenset({1.0}), {1.0: 0}),
            RoundRecord(True, frozenset({(1, 2)}), {}, {}, frozenset(), {}),
        ],
        ids=["bool-id", "non-int-counts", "non-int-ids", "bool-round"],
    )
    def test_records_outside_the_fast_path_fall_back(self, record):
        # the int record first, so a key cache that confused True with 1
        # or 1.0 with 1 would serve its text to the odd record
        plain = RoundRecord(1, frozenset({(1, 2)}), {1: 1}, {1: 3}, frozenset({2}), {2: 1})
        assert list(round_lines([plain, record, plain])) == [
            reference_line(plain), reference_line(record), reference_line(plain)
        ]

    @pytest.mark.parametrize("reverse", [False, True], ids=["int-first", "bool-first"])
    def test_payload_text_walks_tuple_subclasses(self, reverse):
        """A namedtuple's text is its items': ``P(1, 2) == P(True, 2)``
        collide as cache keys, and neither may be served the other's."""
        pair = namedtuple("P", "a b")
        payloads = [pair(1, 2), pair(True, 2)]
        if reverse:
            payloads.reverse()
        records = [
            RoundRecord(r, frozenset(), {1: p}, {1: bit_size(p)}, frozenset({2}), {2: 1})
            for r, p in enumerate(payloads + payloads[:1], start=1)
        ]
        assert list(round_lines(records)) == [reference_line(r) for r in records]

    def test_edge_text_never_outlives_its_edge_set(self):
        """Each edge set is freed once its record is encoded, so CPython
        hands its id() to a later set; the cached text must not follow."""
        want = []

        def records():
            for r in range(1, 300):
                edges = frozenset({(r % 7, 100 + r)})
                record = RoundRecord(r, edges, {}, {}, frozenset(), {})
                want.append(reference_line(record))
                yield record

        assert list(round_lines(records())) == want
