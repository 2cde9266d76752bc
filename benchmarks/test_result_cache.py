"""EXP-CACHE: the content-addressed result cache, cold vs warm.

Runs the same engine sweep twice against a fresh cache directory: the
cold pass computes and stores every cell, the warm pass must be served
(almost) entirely from cache, bit-identically.  The acceptance bar —
at least 95% of cells served from cache on an identical resweep — is
*asserted* here; the cold/warm wall seconds and the speedup are
recorded in the volatile timing columns (``bench-diff`` compares only
the stable columns: cell counts, hit/miss/store counts, hit rate, and
the bit-identity flag).
"""

from __future__ import annotations

import tempfile
import time

from repro.analysis.experiments.base import ExperimentResult
from repro.analysis.sweep import cartesian_sweep
from repro.cache.store import cache_counters
from repro.network.adversaries import StaticAdversary
from repro.network.generators import line_edges
from repro.protocols.flooding import TokenFloodNode
from repro.sim.config import RunConfig
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.runner import run_protocol

GRID = {"n": [8, 12, 16, 20], "seed": [1, 2, 3, 4, 5, 6]}  # 24 cells


def _bench_cell(n: int, seed: int) -> dict:
    """One engine run per cell: token flooding on a static line of n."""
    ids = range(n)
    run = run_protocol(
        NodeSet(ids, BoundNode(TokenFloodNode, source=0)),
        Constant(StaticAdversary(ids, line_edges(list(ids)))),
        RunConfig(seed=seed, max_rounds=4 * n),
    )
    return {
        "rounds": run.rounds,
        "total_bits": run.total_bits,
        "terminated": run.terminated,
    }


def _timed_sweep(config: RunConfig):
    before = cache_counters()
    t0 = time.perf_counter()
    rows = cartesian_sweep(GRID, _bench_cell, config=config)
    seconds = time.perf_counter() - t0
    after = cache_counters()
    delta = {k: after[k] - before[k] for k in after}
    return rows, seconds, delta


def _run_experiment() -> ExperimentResult:
    with tempfile.TemporaryDirectory(prefix="repro-exp-cache-") as tmp:
        cfg = RunConfig(cache="rw", cache_dir=tmp)
        cold_rows, cold_s, cold = _timed_sweep(cfg)
        warm_rows, warm_s, warm = _timed_sweep(cfg)
    n_cells = len(cold_rows)
    hit_rate = warm["hit"] / n_cells if n_cells else 0.0
    result = ExperimentResult(
        exp_id="EXP-CACHE",
        title=f"Result cache: identical {n_cells}-cell sweep, cold vs warm",
        headers=["phase", "cells", "hit", "miss", "store", "hit rate", "wall s"],
        rows=[
            ["cold", n_cells, cold["hit"], cold["miss"], cold["store"],
             round(cold["hit"] / n_cells, 3), round(cold_s, 4)],
            ["warm", n_cells, warm["hit"], warm["miss"], warm["store"],
             round(hit_rate, 3), round(warm_s, 4)],
        ],
        summary={
            "warm_hit_rate": round(hit_rate, 3),
            "bit_identical": warm_rows == cold_rows,
            "warm_stores": warm["store"],
        },
        notes=[
            "keys hold only the semantic run identity (seed, max_rounds, "
            "bandwidth_factor, check_connected, cell params) — backend and "
            "workers never enter, so reference and batch runs share entries",
        ],
    )
    result.timings.update(
        cold_seconds=round(cold_s, 4),
        warm_seconds=round(warm_s, 4),
        speedup=round(cold_s / warm_s, 3) if warm_s else None,
        wall_seconds=cold_s + warm_s,
    )
    return result


def test_result_cache(benchmark, exp_output):
    result = benchmark.pedantic(_run_experiment, rounds=1, iterations=1)
    exp_output(result)
    # the acceptance bar (ISSUE PR 10): >= 95% warm cells from cache,
    # bit-identically, with nothing re-stored
    assert result.summary["warm_hit_rate"] >= 0.95
    assert result.summary["bit_identical"] is True
    assert result.summary["warm_stores"] == 0
