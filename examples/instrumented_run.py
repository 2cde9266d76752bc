#!/usr/bin/env python3
"""Scenario: profiling a Theorem-8 leader election, phase by phase.

The Section-7 protocol elects a leader with no diameter knowledge —
but where do its rounds actually *spend wall-clock time*?  Every engine
times each of the five model stages (coins/actions, adversary edge
choice, connectivity validation, delivery, termination poll) into
``engine.stage_seconds``; run it under :func:`repro.obs.observe` and
the session also derives the run counters (rounds, CONGEST bits,
deliveries, topology changes) when the run finishes.

This separation is the debugging tool: a slow run is either *protocol*
cost (actions), *adversary* cost (edges), or *engine* overhead — three
different fixes.

Run:  python examples/instrumented_run.py
Docs: docs/OBSERVABILITY.md
"""

import time

from repro.network import OverlappingStarsAdversary, dynamic_diameter
from repro.obs import observe
from repro.protocols.leader_election import LeaderElectNode
from repro.sim import ROUND_STAGES, CoinSource, SynchronousEngine

N = 12
IDS = list(range(1, N + 1))


def main() -> None:
    # Overlapping stars: a different hub every round, total churn, no
    # stable neighbours.  The diameter stays unknown to the protocol; we
    # measure the realized value afterwards.
    adversary = OverlappingStarsAdversary(IDS)

    # Theorem 8: an N-estimate within 1/3 - c is enough.  Hand the
    # protocol a deliberately sloppy (but admissible) estimate.
    n_estimate = N * 1.25
    nodes = {u: LeaderElectNode(u, n_estimate=n_estimate) for u in IDS}

    with observe() as session:
        engine = SynchronousEngine(nodes, adversary, CoinSource(2016))
        t0 = time.perf_counter()
        trace = engine.run(60_000)
        wall = time.perf_counter() - t0
    counters = session.manifest.metrics

    leaders = {out[1] for out in trace.outputs.values() if out is not None}
    assert len(leaders) == 1, f"split vote: {leaders}"
    d = dynamic_diameter(adversary.schedule(trace.termination_round))
    print(f"{N} nodes, N' = {n_estimate:.1f}, realized dynamic D = {d}")
    print(
        f"leader {leaders.pop()} elected in round {trace.termination_round}"
        f" ({trace.termination_round // max(d, 1)} flooding rounds)"
    )

    print()
    print("run counters")
    print(f"  bits sent          {counters['bits_sent_total']['value']}")
    print(f"  deliveries         {counters['messages_delivered_total']['value']}")
    print(f"  topology changes   {counters['topology_changes_total']['value']}")

    # The stage clock covers the five stages; the rest of the wall time
    # is the driver loop itself and the run-end accounting.
    print()
    print("phase timing")
    print(f"wall time: {wall * 1e3:.2f} ms over {trace.rounds} rounds")
    rows = [(stage, engine.stage_seconds[stage]) for stage in ROUND_STAGES]
    rows.append(("(engine)", wall - sum(engine.stage_seconds.values())))
    for name, sec in rows:
        print(f"  {name:<12} {sec * 1e3:9.3f} ms  {sec / wall * 100.0:5.1f}%")


if __name__ == "__main__":
    main()
