"""EXP-GAP / EXP-SENS: the headline gap and the 1/3 sensitivity boundary.

EXP-GAP tabulates, across N, the known-D measured complexity against the
unknown-D lower bound and the conservative D = N fallback — "who wins,
by what factor, where the regimes separate".

EXP-SENS sweeps the N'-estimate error through the critical value 1/3:
below it the Section-7 protocol elects a unique leader in polylog
flooding rounds; at/above it the threshold algebra degenerates (tau >= N
stalls the protocol; far negative error risks false majorities).  The
Λ+Υ construction shows why 1/3 exactly: Υ doubles N when the answer
is 0, so the best oblivious estimate has error (2a - a)/(a + 2a) = 1/3.
"""

from __future__ import annotations

from statistics import mean
from typing import Optional, Sequence, Tuple

from ...core.composition import theorem7_sizes
from ...core.reduction import (
    cflood_lower_bound_flooding_rounds,
    known_d_upper_bound_flooding_rounds,
)
from ...network.adversaries import OverlappingStarsAdversary
from ...protocols.consensus import ConsensusKnownDNode
from ...protocols.leader_election import LeaderElectNode
from ...protocols.max_id import max_rounds_budget
from ...sim.batch import build_engine
from ...sim.coins import CoinSource
from ...sim.config import RunConfig
from ...obs.spans import span
from ..fitting import crossover_x, loglog_slope
from .base import ExperimentResult, run_grid

__all__ = ["exp_exponential_gap", "exp_sensitivity"]


def _gap_cell(n: int, seed: int, backend: str = "reference") -> int:
    """One measured-anchor run: known-D consensus on the D=2 stars."""
    with span("cell", f"N={n}", n=n, seed=seed, backend=backend,
              protocol="ConsensusKnownDNode"):
        ids = list(range(1, n + 1))
        adv = OverlappingStarsAdversary(ids)
        budget = max_rounds_budget(2, n)
        nodes = {u: ConsensusKnownDNode(u, value=u % 2, total_rounds=budget) for u in ids}
        eng = build_engine(nodes, adv, CoinSource(seed), backend=backend)
        tr = eng.run(budget + 4)
        return tr.termination_round or budget + 4


def _sens_cell(
    n: int, n_prime: float, seed: int, max_rounds: int, backend: str = "reference"
) -> Tuple[str, int]:
    """One sensitivity run; outcome is 'ok' / 'stalled' / 'split'."""
    with span("cell", f"N'={n_prime:.1f}", n=n, n_prime=n_prime, seed=seed,
              backend=backend, protocol="LeaderElectNode"):
        ids = list(range(1, n + 1))
        adv = OverlappingStarsAdversary(ids)
        nodes = {u: LeaderElectNode(u, n_estimate=n_prime) for u in ids}
        eng = build_engine(nodes, adv, CoinSource(seed), backend=backend)
        tr = eng.run(max_rounds)
    leaders = {o[1] for o in tr.outputs.values() if o is not None}
    if tr.termination_round is None:
        outcome = "stalled"
    elif len(leaders) == 1:
        outcome = "ok"
    else:
        outcome = "split"
    return outcome, tr.termination_round or max_rounds


def exp_exponential_gap(
    measured_sizes: Sequence[int] = (16, 32, 64),
    formula_sizes: Sequence[int] = (10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9),
    seeds: Sequence[int] = (31, 32),
    config: Optional[RunConfig] = None,
) -> ExperimentResult:
    """Known-D measured flooding rounds vs the unknown-D floor vs D=N."""
    result = ExperimentResult(
        exp_id="EXP-GAP",
        title="The exponential gap: known-D vs unknown-D (flooding rounds)",
        headers=[
            "N", "known-D measured", "known-D O(logN)", "unknown-D floor",
            "conservative D=N", "gap floor/known",
        ],
    )
    # measured anchor: known-D consensus on the D=2 stars schedule
    d = 2
    outcomes = run_grid(
        "EXP-GAP", _gap_cell,
        [[(n, seed) for seed in seeds] for n in measured_sizes],
        config, result.timings,
    )
    for n, rounds in zip(measured_sizes, outcomes):
        measured_flood = mean(rounds) / d
        floor = cflood_lower_bound_flooding_rounds(n)
        result.rows.append([
            n, round(measured_flood, 1),
            round(known_d_upper_bound_flooding_rounds(n), 1),
            round(floor, 2), round((n - 1) / d, 1),
            round(floor / measured_flood, 3),
        ])
    for n in formula_sizes:
        floor = cflood_lower_bound_flooding_rounds(n)
        known = known_d_upper_bound_flooding_rounds(n)
        result.rows.append([
            n, None, round(known, 1), round(floor, 1), round((n - 1) / 2, 1),
            round(floor / known, 3),
        ])
    ns = list(formula_sizes)
    floors = [cflood_lower_bound_flooding_rounds(n) for n in ns]
    slope, _ = loglog_slope(ns, floors)
    result.summary["floor_loglog_slope"] = round(slope, 4)
    knowns = [known_d_upper_bound_flooding_rounds(n) for n in ns]
    cx = crossover_x(ns, floors, knowns)
    result.summary["floor_overtakes_known_at_N"] = None if cx is None else round(cx, 1)
    result.notes.append(
        "the unknown-D floor grows with log-log slope ~1/4 (poly(N)); the "
        "known-D cost is polylog — hence the paper's 'exponential gap' "
        "(compare their logarithms)"
    )
    return result


def exp_sensitivity(
    n: int = 24,
    errors: Sequence[float] = (-0.25, -0.15, 0.0, 0.15, 0.25, 1 / 3, 0.45),
    seeds: Sequence[int] = (41, 42, 43),
    max_rounds: int = 25_000,
    config: Optional[RunConfig] = None,
) -> ExperimentResult:
    """Leader election success as the N'-estimate error crosses 1/3."""
    result = ExperimentResult(
        exp_id="EXP-SENS",
        title=f"Sensitivity to the N' estimate (N = {n}, overlapping stars)",
        headers=["N' err", "N'", "runs", "unique leader", "stalled", "mean rounds"],
    )
    n_primes = [max(2.0, (1 + err) * n) for err in errors]
    outcomes = run_grid(
        "EXP-SENS", _sens_cell,
        [[(n, n_prime, seed, max_rounds) for seed in seeds] for n_prime in n_primes],
        config, result.timings,
    )
    for err, n_prime, chunk in zip(errors, n_primes, outcomes):
        ok = sum(o == "ok" for o, _ in chunk)
        stalled = sum(o == "stalled" for o, _ in chunk)
        rounds_list = [r for _, r in chunk]
        result.rows.append([
            round(err, 3), round(n_prime, 1), len(seeds),
            f"{ok}/{len(seeds)}", f"{stalled}/{len(seeds)}",
            round(mean(rounds_list), 1),
        ])
    n1, n0 = theorem7_sizes(2, 17)
    best_err = (n0 - n1) / (n0 + n1)
    result.summary["lambda_upsilon_best_estimate_error"] = round(best_err, 4)
    result.notes.append(
        "err >= +1/3 drives tau = (3/4)N' >= N: the full network can no "
        "longer clear the majority threshold and the protocol stalls — "
        "matching the Λ+Υ construction, whose best possible estimate "
        "error is exactly (2a-a)/(a+2a) = 1/3"
    )
    return result
