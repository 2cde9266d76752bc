"""Benchmark harness support.

Each benchmark regenerates one paper figure/theorem experiment (the
EXP-* index in DESIGN.md), times it with pytest-benchmark, and writes
the rendered table to ``benchmarks/out/<EXP-ID>.txt`` so the rows the
paper's claims describe are inspectable after the run (pytest captures
stdout).  A machine-readable ``benchmarks/out/<EXP-ID>.json`` — headers,
rows, summary, notes, and any observability timings — is written
alongside, for diffing runs and for CI artifact upload.  EXPERIMENTS.md
records paper-claim vs a representative run of these outputs.

Every write also appends one provenance-stamped record (git SHA,
hostname, cpu_count, backend, timestamp, timings, summary scalars) to
the benchmark history store — ``benchmarks/history.jsonl``, or wherever
``REPRO_BENCH_HISTORY`` points — which ``repro bench-diff
benchmarks/history.jsonl`` judges as a windowed trend.  CI does not set
the variable: it restores and saves the store at the default path
through ``actions/cache``.  Set ``REPRO_BENCH_HISTORY=`` (empty) to
disable appending.
"""

from __future__ import annotations

import os
import pathlib

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"
HISTORY_PATH = pathlib.Path(__file__).parent / "history.jsonl"


def _history_path() -> pathlib.Path | None:
    from repro.obs.benchdiff import HISTORY_ENV

    raw = os.environ.get(HISTORY_ENV)
    if raw is None:
        return HISTORY_PATH
    raw = raw.strip()
    return pathlib.Path(raw) if raw else None


@pytest.fixture
def exp_output():
    """Write an ExperimentResult's rendering (.txt) and dump (.json)."""

    def write(result) -> str:
        from repro.obs.benchdiff import append_history, record_from_result

        OUT_DIR.mkdir(exist_ok=True)
        text = result.render()
        (OUT_DIR / f"{result.exp_id}.txt").write_text(text + "\n")
        (OUT_DIR / f"{result.exp_id}.json").write_text(result.to_json() + "\n")
        history = _history_path()
        if history is not None:
            append_history(history, record_from_result(result.to_dict()))
        print("\n" + text)
        return text

    return write
