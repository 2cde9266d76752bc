"""EXP-EST: estimating N is itself sensitive to unknown diameter.

Section 1: "obtaining an N' such that |N'-N|/N <= 1/3 - c needs
Omega((N/log N)^(1/4)) flooding rounds, under unknown diameter" — while
with known D it takes O(log N) flooding rounds (EXP-UB's COUNT-N row).

The mechanism is the Λ+Υ composition: when the answer is 0, Υ doubles N,
but the only route from Υ into Λ runs through the cascade-contained
mounting point.  We run the *same* counting protocol (same seed, same
code) at A_Λ on both networks and record its estimate round by round:
within the simulation horizon the estimates are **identical** — the
protocol provably cannot tell N from 2N — and only rounds ~q later does
the answer-0 estimate drift up toward 2N.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ...cc.disjointness import random_instance
from ...core.composition import (
    CompositionNetwork,
    theorem7_network,
    theorem7_sizes,
)
from ...core.lambda_net import LambdaSubnetwork
from ...core.simulation import run_reference_execution
from ...protocols.hearfrom import CountNodesNode
from ...sim.config import RunConfig
from ...sim.factories import BoundNode
from ...obs.spans import span
from .base import ExperimentResult, run_grid

__all__ = ["exp_estimate_insensitivity"]


def _bare_lambda_network(instance) -> CompositionNetwork:
    """The same instance's Λ subnetwork *without* the Υ clone attached —
    the world where N = N1 but every Λ node sees the exact same thing."""
    lam = LambdaSubnetwork(instance.n, instance.q, x=instance.x, y=instance.y, id_base=1)
    return CompositionNetwork(
        instance=instance, subnets=(lam,), bridges=frozenset(), mapping="T7"
    )


def _estimate_series(instance, network, seed: int, rounds: Sequence[int], components: int = 16):
    """A_Λ's count estimate after each round count in ``rounds``."""
    out = []
    for r in rounds:
        factory = BoundNode(CountNodesNode, total_rounds=r, components=components)
        ref = run_reference_execution(
            instance, "T7", factory, seed, rounds=r,
            stop_on_termination=False, network=network,
        )
        a_lambda = ref.composition.special_nodes()["A_lambda"]
        out.append(ref.spies[a_lambda].inner.estimate)
    return out


def _est_cell(
    q: int, n: int, seed: int, horizon: int, late: int
) -> Tuple[float, float, float, float]:
    """One (q, seed) pair of estimate series: bare Λ vs full Λ+Υ."""
    with span("cell", f"q={q}", q=q, n=n, seed=seed,
              protocol="CountNodesNode"):
        inst = random_instance(n, q, seed=seed, value=0, zero_zero_count=1)
        bare = _bare_lambda_network(inst)
        full = theorem7_network(inst)
        b_h, b_l = _estimate_series(inst, bare, seed, (horizon, late))
        f_h, f_l = _estimate_series(inst, full, seed, (horizon, late))
        return b_h, b_l, f_h, f_l


def exp_estimate_insensitivity(
    q_values: Sequence[int] = (9, 13),
    n: int = 2,
    seeds: Sequence[int] = (1, 2),
    late_factor: int = 350,
    config: Optional[RunConfig] = None,
) -> ExperimentResult:
    """Same answer-0 instance, same seed, same Λ — with and without Υ.

    ``config`` supplies ``workers``; the backend choice does not apply —
    the reference-execution harness drives the (adaptive) reference
    adversary, which the batch backend always declines.
    """
    result = ExperimentResult(
        exp_id="EXP-EST",
        title="Estimating N under unknown D: the Λ+Υ indistinguishability window",
        headers=[
            "q", "N1", "N0", "seed", "horizon",
            "est@horizon (Λ)", "est@horizon (Λ+Υ)", "identical",
            "est@late (Λ)", "est@late (Λ+Υ)",
        ],
    )
    cells = [(q, *theorem7_sizes(n, q), (q - 1) // 2) for q in q_values]
    outcomes = run_grid(
        "EXP-EST", _est_cell,
        [[(q, n, seed, horizon, late_factor * q) for seed in seeds]
         for q, _n1, _n0, horizon in cells],
        config, result.timings,
    )
    for (q, n1, n0, horizon), chunk in zip(cells, outcomes):
        for seed, (b_h, b_l, f_h, f_l) in zip(seeds, chunk):
            result.rows.append([
                q, n1, n0, seed, horizon,
                round(b_h, 3), round(f_h, 3), b_h == f_h,
                round(b_l, 1), round(f_l, 1),
            ])
    result.summary["late_rounds_factor(q)"] = late_factor
    result.notes.append(
        "at the horizon the two estimates are bit-identical — Υ's "
        "exponentials are stuck behind the cascade-contained mounting "
        "point, so no protocol can output an N' with error < 1/3 on "
        "both worlds (true N differs 2x).  Omega(q) rounds later the "
        "Λ+Υ estimate pulls strictly ahead as Υ's minima leak through."
    )
    return result
