"""The three benchmark workloads: inputs, timed body, oracle and check.

Every workload has the same four steps:

``oracle(seed)``
    The expected outputs, computed with the reference engine
    (``SynchronousEngine``, via ``backend="reference"``).  Never timed.
    The values for :data:`DEFAULT_SEED` are committed under
    ``perfbench/expected/``.
``prepare(seed, expected)``
    Builds the inputs the program receives (adversaries, edge sets, node
    factories, engine seeds).  Timed as ``setup_s``.
``run(inputs, workdir, span)``
    The workload body: public ``repro`` calls with ``backend="batch"``
    and ``workers=0``.  Timed as ``wall_s``.  ``span(name)`` is a no-op
    context manager except in the traced run.
``check(inputs, outputs, expected)``
    Counts attempted and failed operations.  An operation is one engine
    run, or one cell of the ``ub-rerun`` warm pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_SEED",
    "EXPECTED_DIR",
    "WORKLOADS",
    "Tally",
    "no_span",
    "trace_digest",
    "load_expected",
]

#: the seed whose expected outputs are committed
DEFAULT_SEED = 1

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

Span = Callable[[str], ContextManager[Any]]


def no_span(name: str) -> ContextManager[Any]:
    return contextlib.nullcontext()


def jsonable(value: Any) -> Any:
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


@dataclass
class Tally:
    """Operations attempted and failed, and the node-rounds they cover."""

    attempted: int = 0
    failed: int = 0
    node_rounds: int = 0

    def add(self, ok: bool, node_rounds: int = 0) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.node_rounds += node_rounds


def load_expected(name: str, path: Optional[Path] = None) -> Dict[str, Any]:
    path = EXPECTED_DIR / f"{name}.json" if path is None else path
    return json.loads(Path(path).read_text())


def _run_config(**kwargs: Any):
    from repro.sim.config import RunConfig

    return RunConfig(workers=0, **kwargs)


# ---------------------------------------------------------------------------
# thm8: the Section-7 leader election through its paper driver
class Thm8:
    """``exp_thm8_leader_election`` at N=32 on two adversaries, cache off.

    The driver is called once per (adversary, engine seed), so each
    table row is one engine run and is checked on its own.  An election
    ends after phase 1, 2, 3 or 4 of the protocol, which at N=32 is
    about 1.3k, 4k, 9k or 20k rounds; about a quarter of the seeds go
    past phase 1.  One such seed would change ``wall_s`` by 2-15x, so
    the engine seeds are drawn from the workload seed and kept only when
    the reference election elects one leader within phase 1 (plus a
    quarter for the announcement to spread).  Every run then executes
    the same four protocol stages for about the same number of rounds.
    """

    name = "thm8"
    n = 32
    adversaries = ("overlap-stars", "random-conn")
    seeds_per_adversary = 2
    #: candidate seeds tried per adversary before the oracle gives up
    max_candidates = 40

    @staticmethod
    def node_classes() -> List[type]:
        from repro.protocols.leader_election import LeaderElectNode

        return [LeaderElectNode]

    @staticmethod
    def adversary_classes() -> List[type]:
        from repro.network.adversaries import OverlappingStarsAdversary, RandomConnectedAdversary

        return [OverlappingStarsAdversary, RandomConnectedAdversary]

    def _driver(self, adversary: str, engine_seed: int, backend: str,
                max_rounds: Optional[int] = None):
        from repro.analysis.experiments.protocols import exp_thm8_leader_election

        extra = {} if max_rounds is None else {"max_rounds": max_rounds}
        return exp_thm8_leader_election(
            sizes=(self.n,), adversaries=(adversary,), seeds=(engine_seed,),
            config=_run_config(backend=backend, cache="off"), **extra,
        )

    def oracle(self, seed: int) -> Dict[str, Any]:
        from repro.protocols.leader_election import StageSchedule

        phase1 = StageSchedule(float(self.n)).rounds_through_phase(1)
        cap = phase1 + phase1 // 4
        runs = []
        for adversary in self.adversaries:
            rng = random.Random(f"thm8/{adversary}/{seed}")
            kept = 0
            for _ in range(self.max_candidates):
                engine_seed = rng.randrange(1, 2 ** 31)
                rows = jsonable(self._driver(adversary, engine_seed, "reference", cap).rows)
                if len(rows) == 1 and rows[0][4] == "1/1":
                    runs.append({"adversary": adversary, "seed": engine_seed, "rows": rows})
                    kept += 1
                    if kept == self.seeds_per_adversary:
                        break
            else:
                raise RuntimeError(f"thm8: no {self.seeds_per_adversary} phase-1 seeds "
                                   f"for {adversary} among {self.max_candidates} candidates")
        return {"workload": self.name, "seed": seed, "n": self.n,
                "phase1_cap": cap, "runs": runs}

    def prepare(self, seed: int, expected: Dict[str, Any]) -> List[Tuple[str, int]]:
        from repro.analysis.experiments import protocols  # noqa: F401  (import cost is set-up)

        return [(run["adversary"], run["seed"]) for run in expected["runs"]]

    def run(self, inputs: List[Tuple[str, int]], workdir: Path, span: Span = no_span):
        outputs = []
        for adversary, engine_seed in inputs:
            with span("experiments.exp_thm8_leader_election"):
                result = self._driver(adversary, engine_seed, "batch")
            outputs.append(result.rows)
        return outputs

    def check(self, inputs, outputs, expected) -> Tally:
        """``outputs=None`` (the body raised) fails every run."""
        tally = Tally()
        outputs = outputs or []
        for rows, want in zip(outputs, expected["runs"]):
            got = jsonable(rows)
            ok = got == want["rows"] and got[0][4] == "1/1"
            # row: N, adversary, D, runs, elected ok, mean rounds, ...
            tally.add(ok, self.n * int(want["rows"][0][5]))
        for _missing in range(len(expected["runs"]) - len(outputs)):
            tally.add(False)
        return tally


# ---------------------------------------------------------------------------
# flood-large: TokenFloodNode through replicate at N in the thousands
def trace_digest(trace) -> str:
    """sha256 over per-round sends, bits and deliveries, then termination
    and outputs.  Edge sets are left out: they are the adversary's input,
    and at ~300k edges per round hashing them would dwarf the run."""
    h = hashlib.sha256()
    for rec in trace.records:
        h.update(repr((
            rec.round,
            sorted(rec.sends.items()),
            sorted(rec.bits.items()),
            sorted(rec.delivered.items()),
        )).encode())
    h.update(repr((trace.termination_round, sorted(trace.outputs.items()))).encode())
    return h.hexdigest()


@dataclass
class FloodCell:
    name: str
    n: int
    rounds: int
    make_nodes: Any
    make_adversary: Any
    seeds: Tuple[int, ...]


class FloodLarge:
    """Token flooding through ``replicate`` above ``DENSE_NODE_LIMIT``.

    Two cells, each with several replica seeds in lockstep on one shared
    schedule tape:

    * ``lollipop``: a fixed N=2048 lollipop (768-node clique body,
      1280-node path tail, token at the tail's end), bitset adjacency.
      The token stays in the tail for all 40 rounds.
    * ``t-interval``: a T-interval random connected schedule at N=4096
      (a fresh random tree every 8 rounds), CSR adjacency; the workload
      seed picks the adversary seed.  The flood completes in 14-19
      rounds depending on the trees, so the cell stops at 14 rounds,
      which keeps the work per seed fixed.

    ``TokenFloodNode`` draws no coins, so a cell's reference run uses
    coin seed 0 and every replica, whatever its seed, must match it.
    The lollipop instance does not depend on the workload seed, so its
    committed reference digest holds for every seed.
    """

    name = "flood-large"
    lollipop = {"n": 2048, "clique": 768, "rounds": 40}
    t_interval = {"n": 4096, "interval": 8, "rounds": 14}
    replicas = 3

    @staticmethod
    def node_classes() -> List[type]:
        from repro.protocols.flooding import TokenFloodNode

        return [TokenFloodNode]

    @staticmethod
    def adversary_classes() -> List[type]:
        from repro.network.adversaries import StaticAdversary, TIntervalAdversary

        return [StaticAdversary, TIntervalAdversary]

    def _seeds(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"flood-large/{seed}")
        return {
            "lollipop": tuple(rng.randrange(1, 2 ** 31) for _ in range(self.replicas)),
            "t-interval": tuple(rng.randrange(1, 2 ** 31) for _ in range(self.replicas)),
            "t-interval-adversary": rng.randrange(1, 2 ** 31),
        }

    def _cells(self, seed: int) -> List[FloodCell]:
        from repro.network.adversaries import StaticAdversary, TIntervalAdversary
        from repro.network.generators import lollipop_edges
        from repro.protocols.flooding import TokenFloodNode
        from repro.sim.factories import BoundNode, Constant, NodeSet

        seeds = self._seeds(seed)
        lp = self.lollipop
        ids = tuple(range(lp["n"]))
        edges = lollipop_edges(list(ids[: lp["clique"]]), list(ids[lp["clique"]:]))
        ti = self.t_interval
        tids = tuple(range(ti["n"]))
        return [
            FloodCell(
                "lollipop", lp["n"], lp["rounds"],
                NodeSet(ids, BoundNode(TokenFloodNode, source=ids[-1])),
                Constant(StaticAdversary(ids, edges)),
                seeds["lollipop"],
            ),
            FloodCell(
                "t-interval", ti["n"], ti["rounds"],
                NodeSet(tids, BoundNode(TokenFloodNode, source=tids[0])),
                Constant(TIntervalAdversary(tids, seed=seeds["t-interval-adversary"],
                                            interval=ti["interval"])),
                seeds["t-interval"],
            ),
        ]

    def oracle(self, seed: int) -> Dict[str, Any]:
        """Reference digests.  The lollipop cell does not depend on the
        seed, so a committed digest for it is reused when present."""
        from repro.sim.runner import run_protocol

        committed = EXPECTED_DIR / f"{self.name}.json"
        reuse = load_expected(self.name, committed)["cells"] if committed.is_file() else {}
        cells = {}
        for cell in self._cells(seed):
            if cell.name == "lollipop" and cell.name in reuse:
                cells[cell.name] = reuse[cell.name]
                continue
            run = run_protocol(cell.make_nodes, cell.make_adversary, _run_config(
                seed=0, max_rounds=cell.rounds, backend="reference", cache="off"))
            cells[cell.name] = {"digest": trace_digest(run.trace), "rounds": run.rounds,
                                "terminated": run.terminated}
        return {"workload": self.name, "seed": seed,
                "t_interval_adversary_seed": self._seeds(seed)["t-interval-adversary"],
                "cells": cells}

    def prepare(self, seed: int, expected: Dict[str, Any]) -> List[FloodCell]:
        return self._cells(seed)

    def run(self, inputs: List[FloodCell], workdir: Path, span: Span = no_span):
        from repro.sim.runner import replicate

        outputs = []
        for cell in inputs:
            with span("runner.replicate"):
                summary = replicate(cell.make_nodes, cell.make_adversary, cell.seeds,
                                    _run_config(max_rounds=cell.rounds, backend="batch",
                                                cache="off"))
            outputs.append((cell.name, summary.runs))
        return outputs

    def check(self, inputs, outputs, expected) -> Tally:
        """``outputs=None`` (the body raised) fails every replica."""
        tally = Tally()
        got = dict(outputs or [])
        for cell in inputs:
            want = expected["cells"][cell.name]
            runs = got.get(cell.name, [])
            for run in runs:
                tally.add(trace_digest(run.trace) == want["digest"],
                          cell.n * int(want["rounds"]))
            for _missing in range(len(cell.seeds) - len(runs)):
                tally.add(False)
        return tally


# ---------------------------------------------------------------------------
# ub-rerun: the known-D upper bounds, regenerated twice through the cache
@dataclass
class UbPass:
    rows: List[Any]
    runs: int
    hits: int
    misses: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)


@dataclass
class UbOutput:
    passes: List[UbPass]


class UbRerun:
    """``exp_known_d_upper_bounds`` twice into one fresh cache, ``cache="rw"``.

    Each pass runs inside a persisted, streamed ``observe()`` session,
    as ``repro ub --backend batch --cache rw --trace-out DIR --stream``
    run twice would.  One engine seed per pass, so each table row is one
    engine run.  The cold pass computes and stores all 15 cells; the
    warm pass must serve every cell from the cache.  The engine seed is
    the first candidate from the workload seed whose reference table is
    correct on every row.
    """

    name = "ub-rerun"
    sizes = (16, 32, 64)
    max_candidates = 20

    @staticmethod
    def node_classes() -> List[type]:
        from repro.protocols.cflood import CFloodKnownDNode
        from repro.protocols.consensus import ConsensusKnownDNode
        from repro.protocols.hearfrom import CountNodesNode, HearFromAllNode
        from repro.protocols.max_id import MaxIdNode

        return [CFloodKnownDNode, ConsensusKnownDNode, MaxIdNode, HearFromAllNode, CountNodesNode]

    @staticmethod
    def adversary_classes() -> List[type]:
        from repro.network.adversaries import OverlappingStarsAdversary

        return [OverlappingStarsAdversary]

    def _driver(self, engine_seed: int, config):
        from repro.analysis.experiments.protocols import exp_known_d_upper_bounds

        return exp_known_d_upper_bounds(sizes=self.sizes, seeds=(engine_seed,), config=config)

    def oracle(self, seed: int) -> Dict[str, Any]:
        rng = random.Random(f"ub-rerun/{seed}")
        for _ in range(self.max_candidates):
            engine_seed = rng.randrange(1, 2 ** 31)
            rows = jsonable(self._driver(engine_seed, _run_config(backend="reference",
                                                                   cache="off")).rows)
            # row: problem, N, D, rounds, flood rounds, correct
            if all(row[5] is True for row in rows):
                return {"workload": self.name, "seed": seed, "engine_seed": engine_seed,
                        "rows": rows}
        raise RuntimeError(f"ub-rerun: no all-correct seed among {self.max_candidates}")

    def prepare(self, seed: int, expected: Dict[str, Any]) -> int:
        from repro.analysis.experiments import protocols  # noqa: F401
        from repro.obs import runtime  # noqa: F401

        return int(expected["engine_seed"])

    def run(self, inputs: int, workdir: Path, span: Span = no_span,
            between_passes: Optional[Callable[[Path], None]] = None) -> UbOutput:
        """Cold pass, then warm pass.  ``between_passes(cache_dir)`` is a
        fault hook for the self-check, which wipes the cache there."""
        from repro.cache.store import cache_counters
        from repro.obs.runtime import observe

        cache_dir = workdir / "cache"
        config = _run_config(backend="batch", cache="rw", cache_dir=str(cache_dir))
        passes = []
        for label in ("cold", "warm"):
            if label == "warm" and between_passes is not None:
                between_passes(cache_dir)
            before = cache_counters()
            with span("obs.observe"):
                with observe(trace_dir=workdir / label, label="ub", stream=True) as session:
                    with span("experiments.exp_known_d_upper_bounds"):
                        result = self._driver(inputs, config)
            result.attach_session(session)
            result.render()
            after = cache_counters()
            passes.append(UbPass(
                rows=result.rows,
                runs=session.num_runs,
                hits=after["hit"] - before["hit"],
                misses=after["miss"] - before["miss"],
                phase_seconds=dict(result.timings.get("phase_seconds", {})),
            ))
        return UbOutput(passes)

    def run_without_session(self, inputs: int, workdir: Path, span: Span = no_span):
        """The cold pass alone, without a session (traced run only)."""
        config = _run_config(backend="batch", cache="rw", cache_dir=str(workdir / "cache"))
        with span("experiments.exp_known_d_upper_bounds"):
            return self._driver(inputs, config).rows

    def check(self, inputs, outputs: Optional[UbOutput], expected) -> Tally:
        """``outputs=None`` (the body raised) fails every run and cell."""
        want_rows = expected["rows"]
        cells = len(want_rows)
        if outputs is None:
            return Tally(attempted=2 * cells, failed=2 * cells)
        tally = Tally()
        cold, warm = outputs.passes
        cold_rows = jsonable(cold.rows)
        for i, want in enumerate(want_rows):
            got = cold_rows[i] if i < len(cold_rows) else None
            # row: problem, N, D, rounds, flood rounds, correct
            tally.add(got == want and got[5] is True, int(want[1]) * int(want[3]))
        # a run the session failed to record fails, whatever its row says
        lost = min(cells, abs(cells - cold.runs))
        tally.failed += min(lost, tally.attempted - tally.failed)
        # a warm cell fails when it is not a cache hit or serves another row
        differ = sum(1 for a, b in zip(jsonable(warm.rows), cold_rows) if a != b)
        differ += abs(len(warm.rows) - len(cold_rows))
        not_hit = max(0, cells - warm.hits)
        tally.attempted += cells
        tally.failed += min(cells, not_hit + differ)
        return tally


WORKLOADS: Dict[str, Any] = {w.name: w for w in (Thm8(), FloodLarge(), UbRerun())}
