"""``repro audit``: replay a persisted proof ledger and check the books.

The ledger (:mod:`repro.obs.ledger`) records what the two-party
simulation *did*; this module re-checks that record against what the
paper's lemmas *allow*:

* every ``spoiled`` record must satisfy ``count <= budget`` (the Lemma
  3/4 closed-form curve recomputed at record time), and any persisted
  ``violation`` record is an automatic failure;
* the cumulative cut-crossing bits — summed across both parties — must
  stay below the O(s log N) envelope
  :func:`repro.core.reduction.cut_budget_bits` at *every* round prefix,
  not just at the end (a reduction that front-loads over-budget traffic
  and then coasts would otherwise pass);
* divergence records are reported (the adversary pairs and the first
  round their edge sets split) — informational, since *when* they
  diverge is construction-dependent; that they diverge only after
  round 1 on Theorem-6 networks is asserted by the test suite instead.

:func:`audit_path` accepts a single ``run-*.jsonl`` file or a session
directory; directories audit every reduction run they contain and note
(but do not fail on) plain engine runs, which carry no ledger.  Exit
status is the contract: 0 means every ledger checked out, 1 means at
least one violated a budget.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.reduction import (
    CUT_BUDGET_C,
    CUT_BUDGET_C0,
    NUM_SPECIAL_NODES,
    cut_budget_bits,
)
from .export import PersistedRun, read_trace_jsonl
from .stream import load_session

__all__ = ["AuditReport", "audit_run", "audit_path", "resolve_run_files"]


def resolve_run_files(path: pathlib.Path) -> List[pathlib.Path]:
    """Run JSONL files named by ``path``: the file itself, or the run
    files of a session directory in log order
    (:meth:`~repro.obs.stream.SessionLog.run_files`)."""
    path = pathlib.Path(path)
    if path.is_file():
        return [path]
    if path.is_dir():
        return load_session(path).run_files()
    raise FileNotFoundError(f"no run file or session directory at {path}")


class AuditReport:
    """The audit of one persisted reduction run."""

    def __init__(self, path: pathlib.Path, run: PersistedRun):
        self.path = pathlib.Path(path)
        self.run = run
        self.failures: List[str] = []
        #: party -> [(round, count, budget)]
        self.spoiled: Dict[str, List[Tuple[int, int, int]]] = {}
        #: round -> cumulative cut bits (both parties summed)
        self.cut_curve: List[Tuple[int, int, float]] = []
        self.divergences: List[dict] = []
        self._check()

    # -- checks --------------------------------------------------------
    def _check(self) -> None:
        per_round_bits: Dict[int, int] = {}
        for rec in self.run.ledger:
            kind = rec.get("kind")
            if kind == "spoiled":
                party = rec["party"]
                self.spoiled.setdefault(party, []).append(
                    (rec["round"], rec["count"], rec["budget"])
                )
                if not rec.get("ok", rec["count"] <= rec["budget"]):
                    self.failures.append(
                        f"round {rec['round']}: {party} spoiled {rec['count']} nodes, "
                        f"Lemma 3/4 budget allows {rec['budget']}"
                    )
            elif kind == "cut":
                r = rec["round"]
                per_round_bits[r] = per_round_bits.get(r, 0) + rec["bits"]
            elif kind == "divergence":
                self.divergences.append(rec)
            elif kind == "violation":
                self.failures.append(
                    f"round {rec['round']}: {rec['party']} Lemma {rec['lemma']} "
                    f"violation recorded by the simulator"
                )

        big_n = self.run.manifest.num_nodes
        cum = 0
        for r in sorted(per_round_bits):
            cum += per_round_bits[r]
            budget = cut_budget_bits(big_n, r) if big_n and big_n > 1 else float("inf")
            self.cut_curve.append((r, cum, budget))
            if cum > budget:
                self.failures.append(
                    f"round {r}: cumulative cut bits {cum} exceed the "
                    f"O(s log N) envelope {budget:.0f} "
                    f"({NUM_SPECIAL_NODES}*r*({CUT_BUDGET_C0:g} + "
                    f"{CUT_BUDGET_C:g}*log2({big_n})))"
                )

        summary_bits = (self.run.summary or {}).get("total_bits")
        if summary_bits is not None and self.cut_curve:
            measured = self.cut_curve[-1][1]
            if measured != summary_bits:
                self.failures.append(
                    f"ledger cut bits {measured} != reduction total_bits "
                    f"{summary_bits} (accounting drift)"
                )

    @property
    def ok(self) -> bool:
        return not self.failures

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        lines = [f"== audit: {self.path.name} =="]
        m = self.run.manifest
        lines.append(
            f"  {m.adversary}  N={m.num_nodes}  seed={m.seed}  "
            f"format_version={self.run.format_version}"
        )
        for party in sorted(self.spoiled):
            traj = self.spoiled[party]
            pts = "  ".join(
                f"r{r}:{c}/{b}" + ("" if c <= b else "!") for r, c, b in traj
            )
            lines.append(f"  spoiled[{party}] (count/budget): {pts}")
        if self.cut_curve:
            pts = "  ".join(
                f"r{r}:{cum}" + ("" if cum <= budget else "!")
                for r, cum, budget in self.cut_curve
            )
            final_r, final_cum, final_budget = self.cut_curve[-1]
            lines.append(f"  cut bits (cumulative): {pts}")
            lines.append(
                f"  cut budget at r{final_r}: {final_cum} <= {final_budget:.0f}"
                if final_cum <= final_budget
                else f"  cut budget at r{final_r}: {final_cum} > {final_budget:.0f}  VIOLATION"
            )
        for rec in self.divergences:
            where = "never" if rec.get("round") is None else f"round {rec['round']}"
            horizon = f" (scanned {rec['horizon']} rounds)" if rec.get("horizon") else ""
            lines.append(f"  divergence[{rec['pair']}]: {where}{horizon}")
        if self.failures:
            lines.append("  FAIL:")
            lines.extend(f"    - {msg}" for msg in self.failures)
        else:
            lines.append("  ok: all ledger checks passed")
        return "\n".join(lines)


def audit_run(path: pathlib.Path) -> AuditReport:
    """Audit one persisted run file (must be a reduction run)."""
    return AuditReport(path, read_trace_jsonl(path))


def audit_path(path: pathlib.Path) -> Tuple[List[AuditReport], List[pathlib.Path], int]:
    """Audit everything under ``path``.

    Returns ``(reports, skipped_engine_runs, exit_code)`` where the exit
    code is 0 iff every audited ledger passed and at least one reduction
    run was found (auditing a session with nothing to audit is an error —
    it almost certainly means the wrong directory was named).
    """
    files = resolve_run_files(pathlib.Path(path))
    reports: List[AuditReport] = []
    skipped: List[pathlib.Path] = []
    for file in files:
        run = read_trace_jsonl(file)
        if run.is_reduction or run.ledger:
            reports.append(AuditReport(file, run))
        else:
            skipped.append(file)
    if not reports:
        return reports, skipped, 2
    code = 0 if all(r.ok for r in reports) else 1
    return reports, skipped, code


def render_audit(
    reports: Sequence[AuditReport],
    skipped: Sequence[pathlib.Path],
    label: Optional[str] = None,
) -> str:
    """The full ``repro audit`` output for a set of reports."""
    lines: List[str] = []
    if label:
        lines.append(f"auditing {label}")
    for report in reports:
        lines.append(report.render())
    if skipped:
        lines.append(
            f"(skipped {len(skipped)} engine run(s) with no ledger: "
            + ", ".join(p.name for p in skipped)
            + ")"
        )
    if reports:
        bad = sum(1 for r in reports if not r.ok)
        lines.append(
            f"audited {len(reports)} reduction run(s): "
            + ("all ok" if bad == 0 else f"{bad} FAILED")
        )
    else:
        lines.append("no reduction runs with ledgers found — nothing to audit")
    return "\n".join(lines)
