"""Summarize persisted runs: the ``repro inspect`` implementation.

Reads one ``run-*.jsonl`` file back into an
:class:`~repro.sim.trace.ExecutionTrace` and reports the quantities the
paper's claims are stated in — rounds, termination, CONGEST bits total
and per node — plus the run's stage timings (the engine's stage clock)
and the *realized dynamic diameter* of the adversary's
recorded schedule, computed with the vectorized causality pass in
:mod:`repro.network.causality`.  Reduction runs (``kind: "reduction"``,
format_version 2) have no engine trace, so their report is drawn from
the run summary and the proof-ledger rollup instead.

A whole session directory is summarized by ``repro report``
(:mod:`repro.obs.report`), whose runs table has one row per run file.
"""

from __future__ import annotations

import pathlib
from typing import List, Optional, Tuple

from ..analysis.tables import render_table
from ..network.causality import dynamic_diameter
from ..network.dynamic import DynamicSchedule
from ..network.topology import RoundTopology
from ..sim.engine import ROUND_STAGES
from .export import PersistedRun, read_trace_jsonl

__all__ = ["RunReport", "inspect_run", "realized_diameter"]

#: Above this many recorded rounds the all-starts diameter pass is
#: quadratic enough to hurt; inspect then probes start round 0 only.
_DIAMETER_FULL_PASS_ROUNDS = 192


def _node_ids(run: PersistedRun) -> Tuple[int, ...]:
    if run.node_ids:
        return tuple(run.node_ids)
    seen = set()
    for rec in run.trace:
        for u, v in rec.edges:
            seen.update((u, v))
        seen.update(rec.sends)
        seen.update(rec.receivers)
    return tuple(sorted(seen))


def realized_diameter(run: PersistedRun) -> Optional[int]:
    """Dynamic diameter the adversary actually realized in this run.

    For short runs every start round is checked (the true dynamic
    diameter of the recorded schedule); for long runs only start 0 (an
    eccentricity lower bound) to keep inspection O(rounds)."""
    ids = _node_ids(run)
    if len(ids) <= 1 or run.trace.rounds == 0:
        return 0 if ids else None
    topologies = [RoundTopology(ids, edges) for edges in run.trace.edge_schedule()]
    schedule = DynamicSchedule(topologies)
    cap = run.trace.rounds + len(ids)
    starts = None
    if run.trace.rounds > _DIAMETER_FULL_PASS_ROUNDS:
        starts = (0,)
    return dynamic_diameter(schedule, max_diameter=cap, start_rounds=starts)


class RunReport:
    """Everything ``repro inspect`` prints, also usable programmatically."""

    def __init__(self, path: pathlib.Path, run: PersistedRun):
        self.path = pathlib.Path(path)
        self.run = run
        self.phase_seconds = run.phase_seconds
        self.wall_seconds = run.wall_seconds
        if run.is_reduction:
            # No engine trace: rounds/bits come from the reduction summary,
            # bits-by-node from the ledger's cut attribution.
            summary = run.summary or {}
            self.rounds = summary.get("rounds") or 0
            self.termination_round = summary.get("termination_round")
            self.total_bits = summary.get("total_bits", 0)
            ledger = summary.get("ledger_summary", {})
            self.bits_by_node = dict(ledger.get("cut_bits_by_node", {}))
            self.diameter = None
        else:
            trace = run.trace
            self.rounds = trace.rounds
            self.termination_round = trace.termination_round
            self.total_bits = trace.total_bits()
            self.bits_by_node = trace.bits_by_node()
            self.diameter = realized_diameter(run)

    def _render_reduction_extras(self) -> List[str]:
        summary = self.run.summary or {}
        ledger = summary.get("ledger_summary", {})
        lines: List[str] = []
        cut = ledger.get("cut_bits", {})
        if cut:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(cut.items()))
            lines.append(f"  cut bits           {parts}")
        for party, sm in sorted(ledger.get("spoiled_max", {}).items()):
            lines.append(
                f"  {f'spoiled[{party}]':<17}  max {sm.get('count')} / budget {sm.get('budget')}"
            )
        for pair, rnd in sorted(ledger.get("divergence_rounds", {}).items()):
            lines.append(f"  divergence         {pair}: "
                         + ("never" if rnd is None else f"round {rnd}"))
        violations = ledger.get("violations", 0)
        lines.append(f"  ledger violations  {violations}")
        red = summary.get("reduction")
        if red:
            lines.append(
                f"  decision           {red.get('decision')} "
                f"(truth {red.get('truth')}, correct={red.get('correct')})"
            )
        if summary.get("diverged"):
            lines.append("  DIVERGED           simulation aborted before completion")
        return lines

    def render(self) -> str:
        run, manifest = self.run, self.run.manifest
        lines = [
            f"run: {self.path}",
            f"  backend            {manifest.backend}",
            f"  adversary          {manifest.adversary}",
            f"  nodes              {manifest.num_nodes}",
            f"  seed               {manifest.seed}",
            f"  bandwidth factor   {manifest.bandwidth_factor}",
            f"  package version    {manifest.package_version}",
            f"  rounds             {self.rounds}",
            f"  terminated         "
            + (f"round {self.termination_round}" if self.termination_round else "no"),
            f"  total bits         {self.total_bits}",
        ]
        if run.is_reduction:
            lines.extend(self._render_reduction_extras())
        else:
            lines.append(
                f"  realized dynamic D "
                f"{self.diameter if self.diameter is not None else '> horizon'}"
            )
        if self.bits_by_node:
            top = sorted(self.bits_by_node.items(), key=lambda kv: (-kv[1], kv[0]))
            rows = [[uid, bits, f"{bits / max(1, self.total_bits):.1%}"] for uid, bits in top[:10]]
            lines.append("")
            lines.append(render_table(["node", "bits", "share"], rows, title="bits by node (top 10)"))
        if self.wall_seconds is not None and self.phase_seconds:
            wall = self.wall_seconds
            rows = []
            for phase in ROUND_STAGES:
                sec = self.phase_seconds.get(phase, 0.0)
                rows.append([phase, f"{sec * 1e3:.3f}", f"{sec / wall:.1%}" if wall else "-"])
            lines.append("")
            lines.append(render_table(
                ["phase", "ms", "of wall"], rows,
                title=f"phase timing (wall {wall * 1e3:.2f} ms)",
            ))
        return "\n".join(lines)


def inspect_run(path: pathlib.Path) -> RunReport:
    """Load and summarize one persisted run JSONL file."""
    path = pathlib.Path(path)
    return RunReport(path, read_trace_jsonl(path))
