"""Differential fuzzing across execution backends.

The batch backend's whole value rests on one contract: every variant of
the execution stack — reference engine, batch engine, batch with sparse
adjacency forced at every size (bitset or CSR, chosen by edge
density) — produces **bit-identical** runs.  This tool hammers
that contract with random cells and, on a mismatch, drives the two
engines through the staged round protocol in lockstep to name the exact
round *and stage* where they part ways — turning any future divergence
into a one-command bisect.  A run that raises (a message over the
CONGEST budget, say) is an outcome like any other: its (type, message,
round) is compared across the variants, and the summary line counts the
cells that raised identically on every variant.

Usage::

    python tools/fuzz_backends.py --iterations 50 --seed 7   # PR-sized
    python tools/fuzz_backends.py --deep                     # nightly
    python tools/fuzz_backends.py --write-golden tests/data/golden_fingerprints.json

The same machinery backs ``tests/sim/test_backend_fuzz.py`` (Hypothesis
drives the cells there) and the committed golden-fingerprint corpus
(``tests/data/golden_fingerprints.json``): ~30 canonical cells spanning
every protocol × adversary family whose reference fingerprints are
pinned, so drift in *either* engine fails loudly instead of only
relative equality.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # script mode: `python tools/fuzz_backends.py`
    sys.path.insert(0, str(_SRC))

from repro.network.adaptive import AdaptiveBlockingAdversary
from repro.network.adversaries import (
    OverlappingStarsAdversary,
    RandomConnectedAdversary,
    RotatingStarAdversary,
    ScheduleAdversary,
    ShiftingLineAdversary,
    StaticAdversary,
    TIntervalAdversary,
)
from repro.network.generators import line_edges, star_edges
from repro.obs.export import round_lines
from repro.protocols.cflood import cflood_factory
from repro.protocols.consensus import ConsensusKnownDNode
from repro.protocols.doubling import CFloodDoublingNode
from repro.protocols.flooding import GossipMaxNode, TokenFloodNode
from repro.protocols.hearfrom import CountNodesNode
from repro.protocols.leader_election import LeaderElectNode
from repro.protocols.max_id import MaxIdNode
from repro.sim.batch import build_engine, run_batch_replicas
from repro.sim.coins import CoinSource
from repro.sim.engine import ROUND_STAGES, SynchronousEngine
from repro.sim.trace import first_trace_divergence, trace_fingerprint

__all__ = [
    "PROTOCOLS",
    "OBLIVIOUS_ADVERSARIES",
    "ADAPTIVE_ADVERSARIES",
    "VARIANTS",
    "adversary_pool",
    "Cell",
    "GOLDEN_CELLS",
    "run_cell",
    "compare_cell",
    "diagnose_divergence",
    "fuzz",
    "golden_records",
    "main",
]

PROTOCOLS = (
    "token-flood",
    "gossip",
    "cflood-conservative",
    "cflood-known-d",
    "leader-elect",
    "cflood-doubling",
    "max-id",
    "consensus-known-d",
    "count-n",
)
OBLIVIOUS_ADVERSARIES = (
    "static-line",
    "schedule",
    "random",
    "shifting-line",
    "rotating-star",
    "overlap-stars",
    "t-interval",
)
ADAPTIVE_ADVERSARIES = (
    "blocking-flood",
    "blocking-gossip",
    "blocking-consensus",
    "blocking-count",
)

#: variant name -> extra kwargs for :func:`run_batch_replicas`
#: ("reference" runs each seed on its own SynchronousEngine).  Token-flood,
#: CFLOOD, gossip, max-id, consensus-known-d and count-n cells on
#: oblivious adversaries take the batch engine's array-program path under
#: both batch variants (repro.sim.arrays).
VARIANTS: Dict[str, Dict[str, Any]] = {
    "reference": {},
    "batch": {},
    "batch-sparse": {"dense_node_limit": 0},
}


@dataclass(frozen=True)
class Cell:
    """One fuzzable execution cell: the full recipe for a replica set."""

    name: str
    protocol: str
    adversary: str
    n: int
    adv_seed: int
    seeds: Tuple[int, ...]
    max_rounds: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "protocol": self.protocol,
            "adversary": self.adversary,
            "n": self.n,
            "adv_seed": self.adv_seed,
            "seeds": list(self.seeds),
            "max_rounds": self.max_rounds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Cell":
        return cls(
            name=data["name"],
            protocol=data["protocol"],
            adversary=data["adversary"],
            n=data["n"],
            adv_seed=data["adv_seed"],
            seeds=tuple(data["seeds"]),
            max_rounds=data["max_rounds"],
        )


def make_adversary_factory(kind: str, ids: Sequence[int], adv_seed: int):
    """A zero-arg factory returning a *fresh* adversary per call.

    Oblivious families are stateless, so fresh instances are equivalent
    to shared ones; adaptive families are stateful and the per-call
    freshness is load-bearing (mirrors ``replicate`` semantics).
    """
    ids = list(ids)
    if kind == "static-line":
        return lambda: StaticAdversary(ids, line_edges(ids))
    if kind == "schedule":
        # star centred away from the flood source (see make_node_factory)
        # so the schedule family exercises multi-round spread, not a
        # one-round broadcast
        return lambda: ScheduleAdversary(
            StaticAdversary(ids, star_edges(ids[0], ids)).schedule(4)
        )
    if kind == "random":
        return lambda: RandomConnectedAdversary(
            ids, seed=adv_seed, extra_edge_prob=0.1
        )
    if kind == "shifting-line":
        return lambda: ShiftingLineAdversary(ids, seed=adv_seed, reshuffle_every=2)
    if kind == "rotating-star":
        return lambda: RotatingStarAdversary(ids)
    if kind == "overlap-stars":
        return lambda: OverlappingStarsAdversary(ids)
    if kind == "t-interval":
        return lambda: TIntervalAdversary(
            ids, seed=adv_seed, interval=3, extra_edge_prob=0.1
        )
    if kind == "blocking-flood":
        return lambda: AdaptiveBlockingAdversary(
            ids, probe=lambda node: bool(getattr(node, "informed", False))
        )
    if kind == "blocking-gossip":
        target = max(ids)
        return lambda: AdaptiveBlockingAdversary(
            ids, probe=lambda node: getattr(node, "best", None) == target
        )
    if kind == "blocking-consensus":
        target = max(ids)
        return lambda: AdaptiveBlockingAdversary(
            ids, probe=lambda node: getattr(node, "best_id", None) == target
        )
    if kind == "blocking-count":
        # holders: nodes whose size estimate already reaches half of N
        half = len(ids) / 2
        return lambda: AdaptiveBlockingAdversary(
            ids, probe=lambda node: getattr(node, "estimate", 0.0) >= half
        )
    raise ValueError(f"unknown adversary kind {kind!r}")


def make_node_factory(protocol: str, ids: Sequence[int]):
    """A zero-arg factory building the cell's node set."""
    ids = list(ids)
    n = len(ids)
    # source off both line ends and star centres (rotating stars start at
    # ids[0]) so flood cells take several rounds instead of one broadcast
    src = ids[n // 2]
    if protocol == "token-flood":
        return lambda: {u: TokenFloodNode(u, source=src) for u in ids}
    if protocol == "gossip":
        return lambda: {u: GossipMaxNode(u) for u in ids}
    if protocol == "cflood-conservative":
        factory = cflood_factory(src, num_nodes=n)
        return lambda: {u: factory(u) for u in ids}
    if protocol == "cflood-known-d":
        factory = cflood_factory(src, d_param=max(2, n // 2))
        return lambda: {u: factory(u) for u in ids}
    if protocol == "leader-elect":
        return lambda: {u: LeaderElectNode(u, n_estimate=n) for u in ids}
    if protocol == "cflood-doubling":
        return lambda: {u: CFloodDoublingNode(u, source=src, num_nodes=n) for u in ids}
    if protocol == "max-id":
        return lambda: {u: MaxIdNode(u, total_rounds=n) for u in ids}
    if protocol == "consensus-known-d":
        return lambda: {u: ConsensusKnownDNode(u, value=u % 2, total_rounds=n) for u in ids}
    if protocol == "count-n":
        # few components, so a short cell still cycles through them all
        return lambda: {u: CountNodesNode(u, total_rounds=2 * n, components=4) for u in ids}
    raise ValueError(f"unknown protocol {protocol!r}")


def _summarize(trace: Any) -> Dict[str, Any]:
    terminated = trace.termination_round is not None
    return {
        "fingerprint": trace_fingerprint(trace),
        "bits_sent": trace.total_bits(),
        "rounds": trace.termination_round if terminated else trace.rounds,
        "terminated": terminated,
        "outputs": trace.outputs,
    }


def _run_alone(cell: Cell, seed: int, variant: str) -> Dict[str, Any]:
    """One seed on its own engine; a raise is recorded as the outcome."""
    engine = _variant_engine(cell, seed, variant)
    try:
        trace = engine.run(cell.max_rounds)
    except Exception as exc:  # compared across variants like any field
        return {"raised": (type(exc).__name__, str(exc), engine.round)}
    return _summarize(trace)


def run_cell(cell: Cell, variant: str) -> List[Dict[str, Any]]:
    """Execute one cell under one variant; per-seed result summaries.

    A seed whose run raises summarizes as ``{"raised": (type, message,
    round)}``.  Batch seeds run as lockstep replicas on one tape; when
    one of them raises, each seed is re-run alone for its own outcome.
    A lockstep raise that no seed repeats alone is the replicas' own
    fault: every seed's summary then also carries it as
    ``"replicas_raised"``, which no reference summary has.
    """
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {', '.join(VARIANTS)}"
        )
    if variant == "reference":
        return [_run_alone(cell, seed, variant) for seed in cell.seeds]
    ids = tuple(range(cell.n))
    try:
        runs = run_batch_replicas(
            make_node_factory(cell.protocol, ids),
            make_adversary_factory(cell.adversary, ids, cell.adv_seed),
            cell.seeds,
            max_rounds=cell.max_rounds,
            **VARIANTS[variant],
        )
    except Exception as exc:
        lockstep = (type(exc).__name__, str(exc))
        alone = [_run_alone(cell, seed, variant) for seed in cell.seeds]
        if any(outcome.get("raised", ())[:2] == lockstep for outcome in alone):
            return alone
        return [{**outcome, "replicas_raised": lockstep} for outcome in alone]
    return [_summarize(run.trace) for run in runs]


def _raised_everywhere(results: Dict[str, List[Dict[str, Any]]]) -> bool:
    """True iff some seed raised, identically on every variant."""
    per_variant = list(results.values())
    return any(
        "raised" in outcome and all(other[slot] == outcome for other in per_variant)
        for slot, outcome in enumerate(per_variant[0])
    )


def compare_cell(
    cell: Cell, variants: Sequence[str] = tuple(VARIANTS)
) -> List[str]:
    """Run a cell under every variant; mismatch descriptions (empty = ok).

    The reference variant is the oracle; each mismatching (variant, seed)
    is followed up with :func:`diagnose_divergence`, so the report names
    the first diverging round and stage, not just "fingerprints differ".
    """
    return _compare(cell, {variant: run_cell(cell, variant) for variant in variants})


def _compare(cell: Cell, results: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    """:func:`compare_cell` over already-run ``results`` (variant order)."""
    variants = list(results)
    baseline = results[variants[0]]
    problems: List[str] = []
    for variant in variants[1:]:
        for slot, (want, got) in enumerate(zip(baseline, results[variant])):
            if want == got:
                continue
            fields = sorted(k for k in {**want, **got} if want.get(k) != got.get(k))
            where = diagnose_divergence(cell, cell.seeds[slot], variant)
            problems.append(
                f"{cell.name}: variant {variant!r} seed {cell.seeds[slot]} "
                f"differs from {variants[0]!r} in {', '.join(fields)}"
                + (f" ({where})" if where else "")
            )
    return problems


def _variant_engine(cell: Cell, seed: int, variant: str):
    """One engine for (cell, seed) under a variant's dense-node limit."""
    ids = tuple(range(cell.n))
    nodes = make_node_factory(cell.protocol, ids)()
    adversary = make_adversary_factory(cell.adversary, ids, cell.adv_seed)()
    if variant == "reference":
        return SynchronousEngine(nodes, adversary, CoinSource(seed))
    return build_engine(
        nodes,
        adversary,
        CoinSource(seed),
        backend="batch",
        dense_node_limit=VARIANTS[variant].get("dense_node_limit"),
    )


def diagnose_divergence(cell: Cell, seed: int, variant: str) -> Optional[str]:
    """Find the first (round, stage) where a variant leaves the reference.

    Re-runs the single seed on both engines through ``step_stages()`` in
    lockstep, comparing the observable after every stage: the committed
    edge set after ``adversary``, the round record after ``delivery``,
    the termination verdict after ``termination``.  Errors count too — a
    variant that raises where the reference does not (or a different
    error) is named at its stage.  Returns ``None`` when the re-run is
    identical (e.g. the original mismatch was outside the trace).
    """
    ref = _variant_engine(cell, seed, "reference")
    var = _variant_engine(cell, seed, variant)
    for round_ in range(1, cell.max_rounds + 1):
        ref_stages = ref.step_stages()
        var_stages = var.step_stages()
        for stage in ROUND_STAGES:
            ref_event = ref_error = None
            var_event = var_error = None
            try:
                ref_event = next(ref_stages)
            except StopIteration:
                pass
            except Exception as exc:  # engines must raise identically
                ref_error = exc
            try:
                var_event = next(var_stages)
            except StopIteration:
                pass
            except Exception as exc:
                var_error = exc
            if (ref_error is None) != (var_error is None) or (
                ref_error is not None
                and (
                    type(ref_error) is not type(var_error)
                    or str(ref_error) != str(var_error)
                )
            ):
                return (
                    f"first divergence at round {round_}, stage {stage!r}: "
                    f"reference raised {ref_error!r}, {variant} raised "
                    f"{var_error!r}"
                )
            if ref_error is not None:
                return None  # both raised identically: traces agree
            if stage == "adversary" and ref_event.edges != var_event.edges:
                return (
                    f"first divergence at round {round_}, stage {stage!r}: "
                    f"edge sets differ"
                )
            if stage == "delivery":
                ref_line, var_line = round_lines((ref_event.record, var_event.record))
                if ref_line != var_line:
                    return (
                        f"first divergence at round {round_}, stage {stage!r}: "
                        f"round records differ"
                    )
        if stage == "termination":
            ref_term = ref.trace.termination_round
            var_term = var.trace.termination_round
            if ref_term != var_term:
                return (
                    f"first divergence at round {round_}, stage "
                    f"'termination': termination {ref_term} vs {var_term}"
                )
            if ref_term is not None:
                break
    diverged = first_trace_divergence(ref.trace, var.trace)
    if diverged is not None:
        return f"first divergence at round {diverged} (post-run trace diff)"
    return None


# -- random cells -----------------------------------------------------------


#: the blocking adversary per protocol: its probe reads a field that
#: protocol's nodes hold (``informed`` for every protocol not named)
TRACKED_BY = {
    "gossip": "blocking-gossip",
    "max-id": "blocking-gossip",
    "leader-elect": "blocking-gossip",
    "consensus-known-d": "blocking-consensus",
    "count-n": "blocking-count",
}


def adversary_pool(protocol: str) -> Tuple[str, ...]:
    """The adversaries a cell of ``protocol`` draws from: every oblivious
    family plus the blocking adversary that tracks what the nodes hold."""
    return OBLIVIOUS_ADVERSARIES + (TRACKED_BY.get(protocol, "blocking-flood"),)


def random_cell(rng: random.Random, max_nodes: int = 14) -> Cell:
    """Draw one random cell (protocol-compatible adversary included)."""
    protocol = rng.choice(PROTOCOLS)
    adversary = rng.choice(adversary_pool(protocol))
    n = rng.randint(3, max_nodes)
    adv_seed = rng.randint(0, 2 ** 16)
    k = rng.randint(1, 4)
    start = rng.randint(0, 2 ** 20)
    seeds = tuple(range(start, start + k))
    max_rounds = rng.randint(4, 5 * n)
    return Cell(
        name=f"fuzz/{protocol}/{adversary}/n{n}/a{adv_seed}/s{start}x{k}",
        protocol=protocol,
        adversary=adversary,
        n=n,
        adv_seed=adv_seed,
        seeds=seeds,
        max_rounds=max_rounds,
    )


def fuzz(
    iterations: int,
    rng_seed: int = 0,
    max_nodes: int = 14,
    variants: Sequence[str] = tuple(VARIANTS),
    verbose: bool = False,
) -> Tuple[List[str], int]:
    """Run ``iterations`` random cells.

    Returns the mismatch descriptions and the number of cells where some
    seed raised identically on every variant.
    """
    rng = random.Random(rng_seed)
    problems: List[str] = []
    raised = 0
    for i in range(iterations):
        cell = random_cell(rng, max_nodes=max_nodes)
        results = {variant: run_cell(cell, variant) for variant in variants}
        found = _compare(cell, results)
        problems.extend(found)
        raised += not found and _raised_everywhere(results)
        if verbose:
            status = "FAIL" if found else "ok"
            print(f"[{i + 1}/{iterations}] {status}  {cell.name}")
    return problems, raised


# -- the golden corpus ------------------------------------------------------

#: ~30 canonical cells spanning every protocol × adversary family; their
#: reference fingerprints are committed to
#: ``tests/data/golden_fingerprints.json`` and replayed on every backend
#: by ``tests/sim/test_golden_fingerprints.py``.
GOLDEN_CELLS: Tuple[Cell, ...] = tuple(
    Cell(name=name, protocol=p, adversary=a, n=n, adv_seed=s,
         seeds=tuple(seeds), max_rounds=r)
    for name, p, a, n, s, seeds, r in [
        ("flood/static-line/n8", "token-flood", "static-line", 8, 0, (1, 2), 40),
        ("flood/schedule/n6", "token-flood", "schedule", 6, 0, (3,), 24),
        ("flood/random/n10", "token-flood", "random", 10, 11, (1, 2), 50),
        ("flood/shifting-line/n9", "token-flood", "shifting-line", 9, 5, (4,), 45),
        ("flood/rotating-star/n7", "token-flood", "rotating-star", 7, 0, (1, 9), 35),
        ("flood/overlap-stars/n8", "token-flood", "overlap-stars", 8, 0, (2,), 40),
        ("flood/t-interval/n12", "token-flood", "t-interval", 12, 7, (1, 6), 60),
        ("flood/blocking/n8", "token-flood", "blocking-flood", 8, 0, (1, 2), 40),
        ("gossip/static-line/n7", "gossip", "static-line", 7, 0, (5,), 35),
        ("gossip/random/n9", "gossip", "random", 9, 23, (1, 2), 45),
        ("gossip/shifting-line/n8", "gossip", "shifting-line", 8, 3, (7,), 40),
        ("gossip/rotating-star/n10", "gossip", "rotating-star", 10, 0, (1,), 50),
        ("gossip/overlap-stars/n6", "gossip", "overlap-stars", 6, 0, (8, 9), 30),
        ("gossip/t-interval/n11", "gossip", "t-interval", 11, 13, (2,), 55),
        ("gossip/blocking/n7", "gossip", "blocking-gossip", 7, 0, (1, 3), 35),
        ("cfloodC/static-line/n6", "cflood-conservative", "static-line", 6, 0, (1,), 40),
        ("cfloodC/rotating-star/n8", "cflood-conservative", "rotating-star", 8, 0, (2,), 60),
        ("cfloodC/t-interval/n9", "cflood-conservative", "t-interval", 9, 17, (1, 4), 70),
        ("cfloodC/blocking/n6", "cflood-conservative", "blocking-flood", 6, 0, (5,), 48),
        ("cfloodD/random/n10", "cflood-known-d", "random", 10, 29, (1, 2), 50),
        ("cfloodD/overlap-stars/n7", "cflood-known-d", "overlap-stars", 7, 0, (6,), 35),
        ("cfloodD/schedule/n9", "cflood-known-d", "schedule", 9, 0, (3,), 30),
        # long enough to cross into phase 3: pins both stage schedules
        ("elect/overlap-stars/n6", "leader-elect", "overlap-stars", 6, 0, (1, 2), 2600),
        ("elect/static-line/n5", "leader-elect", "static-line", 5, 0, (1,), 2400),
        ("doubling/rotating-star/n7", "cflood-doubling", "rotating-star", 7, 0, (1,), 1500),
        # above DENSE_NODE_LIMIT: the automatically chosen sparse kinds at
        # scale (a static line is CSR, a T-interval graph with extras is
        # bitset; this one floods in 3 rounds)
        ("flood/static-line/n520", "token-flood", "static-line", 520, 0, (1, 2), 12),
        ("flood/t-interval/n520", "token-flood", "t-interval", 520, 7, (1,), 12),
        ("maxid/rotating-star/n8", "max-id", "rotating-star", 8, 0, (1, 2), 40),
        ("consensus/t-interval/n9", "consensus-known-d", "t-interval", 9, 19, (3,), 45),
        ("countn/random/n10", "count-n", "random", 10, 31, (1, 2), 60),
    ]
)


def golden_records(cells: Sequence[Cell] = GOLDEN_CELLS) -> List[Dict[str, Any]]:
    """Reference-backend fingerprints + bit totals for the golden cells."""
    records = []
    for cell in cells:
        per_seed = run_cell(cell, "reference")
        records.append(
            {
                "cell": cell.as_dict(),
                "results": [
                    {
                        "seed": seed,
                        "fingerprint": res["fingerprint"],
                        "bits_sent": res["bits_sent"],
                        "rounds": res["rounds"],
                        "terminated": res["terminated"],
                    }
                    for seed, res in zip(cell.seeds, per_seed)
                ],
            }
        )
    return records


def write_golden(path: pathlib.Path) -> int:
    """(Re)generate the committed golden-fingerprint corpus."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = golden_records()
    path.write_text(json.dumps({"version": 1, "cells": records}, indent=1) + "\n")
    return len(records)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=25,
                        help="random cells to fuzz (default: 25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fuzzer RNG seed (default: 0)")
    parser.add_argument("--max-nodes", type=int, default=14,
                        help="largest random cell size (default: 14)")
    parser.add_argument("--deep", action="store_true",
                        help="nightly profile: 200 iterations, up to 40 nodes")
    parser.add_argument("--write-golden", metavar="PATH",
                        help="regenerate the golden-fingerprint corpus and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    args = parser.parse_args(argv)
    if args.write_golden:
        count = write_golden(pathlib.Path(args.write_golden))
        print(f"wrote {count} golden cells to {args.write_golden}")
        return 0
    iterations = 200 if args.deep else args.iterations
    max_nodes = 40 if args.deep else args.max_nodes
    problems, raised = fuzz(
        iterations, rng_seed=args.seed, max_nodes=max_nodes,
        verbose=not args.quiet,
    )
    if problems:
        print(f"\n{len(problems)} divergence(s):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(
        f"{iterations} cells x {len(VARIANTS)} variants: all bit-identical "
        f"({raised} raised identically on every variant)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
