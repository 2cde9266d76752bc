"""Cached-vs-fresh bit-identity of the result cache's one unit, the task.

A cache hit is indistinguishable from the task it replaced, and a
repeated identical experiment driver or ``cartesian_sweep`` is served
entirely from cache.  Because the key holds only the semantic fields,
reference- and batch-backend runs share entries; the backends were
proven bit-identical by the golden corpus and the differential fuzzer,
so serving one the other's entry is sound.  ``run_protocol`` and
``replicate`` never consult the cache: they always execute.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis.experiments.protocols import _ub_cell, exp_known_d_upper_bounds
from repro.analysis.sweep import cartesian_sweep
from repro.cache.key import cache_key
from repro.cache.runcache import decode_strict, encode_strict, verify_entry
from repro.cache.store import ResultCache, cache_counters
from repro.cli import main
from repro.network.adversaries import StaticAdversary
from repro.network.generators import line_edges
from repro.protocols.flooding import TokenFloodNode
from repro.sim import RunConfig, replicate
from repro.sim.factories import BoundNode, Constant, NodeSet
from repro.sim.trace import trace_fingerprint

#: the file name ``exp_known_d_upper_bounds(sizes=(8,), seeds=(21,))``
#: writes for its CFLOOD task; pinned so that a cache directory written
#: by an earlier build keeps hitting
CFLOOD_8_21_KEY = "a1f26814515ca5249c5668e4bf8abefb3fa3cea67130c59e75ee2bae815c05b7"


def _sweep_cell(a, b):
    """Module-level sweep cell (tokenizable): mixed int/float/str row."""
    return {"total": a * 10 + b, "ratio": a / (b + 1), "tag": f"{a}-{b}"}


def _delta(before, after):
    return {k: after[k] - before[k] for k in after}


def _ub(tmp_path, seed=21, **kw):
    """EXP-UB at N=8: five (problem, seed) tasks, one entry each."""
    kw.setdefault("cache", "rw")
    return exp_known_d_upper_bounds(
        sizes=(8,), seeds=(seed,),
        config=RunConfig(workers=0, cache_dir=str(tmp_path / "cache"), **kw),
    )


class TestDriverCaching:
    def test_reference_entries_serve_a_batch_run(self, tmp_path):
        ref = _ub(tmp_path, backend="reference")
        before = cache_counters()
        bat = _ub(tmp_path, backend="batch")
        delta = _delta(before, cache_counters())
        assert bat.rows == ref.rows
        assert delta["miss"] == 0 and delta["store"] == 0
        assert delta["hit"] == len(ref.rows)
        fresh = exp_known_d_upper_bounds(
            sizes=(8,), seeds=(21,),
            config=RunConfig(workers=0, backend="batch", cache="off"),
        )
        assert fresh.rows == bat.rows

    def test_ro_mode_misses_and_never_stores(self, tmp_path):
        before = cache_counters()
        _ub(tmp_path, cache="ro")
        delta = _delta(before, cache_counters())
        assert delta["miss"] == 5
        assert delta["store"] == 0 and delta["hit"] == 0
        assert ResultCache(tmp_path / "cache").stats()["entries"] == 0

    def test_different_seed_misses(self, tmp_path):
        _ub(tmp_path, seed=21)
        before = cache_counters()
        _ub(tmp_path, seed=22)
        delta = _delta(before, cache_counters())
        assert delta["hit"] == 0
        assert delta["miss"] == 5 and delta["store"] == 5

    def test_task_key_is_pinned(self, tmp_path):
        key = cache_key(
            "map", RunConfig(cache="rw"),
            {"fn": _ub_cell, "key": ("CFLOOD", 8, 21)},
        )
        assert key == CFLOOD_8_21_KEY
        _ub(tmp_path)
        assert ResultCache(tmp_path / "cache").entry_path(key).is_file()

    @pytest.mark.parametrize(
        "damaged", [["i"], ["s"], ["t"], ["S", [["i"]]]], ids=json.dumps
    )
    def test_truncated_value_is_a_corrupt_miss_that_heals(self, tmp_path, damaged):
        cold = _ub(tmp_path)
        path = ResultCache(tmp_path / "cache").entry_path(CFLOOD_8_21_KEY)
        stored = json.loads(path.read_text())
        path.write_text(json.dumps({**stored, "payload": {"result": damaged}}))
        before = cache_counters()
        warm = _ub(tmp_path)  # never raises
        delta = _delta(before, cache_counters())
        assert warm.rows == cold.rows
        # the damaged entry parses but its value does not: one corrupt
        # miss, never also a hit
        assert delta["hit"] == 4 and delta["miss"] == 1
        assert delta["corrupt"] == 1 and delta["store"] == 1
        assert json.loads(path.read_text())["payload"] == stored["payload"]


class TestDecodeStrict:
    def test_round_trip_of_every_tag(self):
        value = {
            "n": None, "b": True, "i": -3, "f": 0.1, "s": "x", "y": b"\x00\xff",
            "t": (1, (2,)), "l": [1.5, []], "S": frozenset({1, "a"}), 7: {},
        }
        assert decode_strict(encode_strict(value)) == value

    @pytest.mark.parametrize(
        "damaged",
        [["i"], ["s"], ["t"], ["S", [["i"]]], ["n", 1], ["i", 1, 2], ["q", 1]],
        ids=json.dumps,
    )
    def test_wrong_field_count_or_tag_raises_value_error(self, damaged):
        with pytest.raises(ValueError):
            decode_strict(damaged)


class TestRunnersAlwaysExecute:
    def test_replicate_ignores_the_environment_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "rw")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        ids = list(range(6))
        fingerprints = {}
        for backend in ("reference", "batch"):
            summary = replicate(
                NodeSet(ids, BoundNode(TokenFloodNode, source=0)),
                Constant(StaticAdversary(ids, line_edges(ids))),
                [1, 2],
                RunConfig(max_rounds=40, workers=0, backend=backend),
            )
            assert all(r.backend == backend for r in summary.runs)
            assert all(r.trace.records for r in summary.runs)
            fingerprints[backend] = [trace_fingerprint(r.trace) for r in summary.runs]
        assert fingerprints["batch"] == fingerprints["reference"]
        assert ResultCache(tmp_path / "cache").stats()["entries"] == 0


class TestSweepCaching:
    GRID = {"a": list(range(6)), "b": list(range(4))}  # 24 cells

    def test_repeated_sweep_served_at_least_95_percent_from_cache(self, tmp_path):
        cfg = RunConfig(cache="rw", cache_dir=str(tmp_path / "c"))
        cold = cartesian_sweep(self.GRID, _sweep_cell, config=cfg)
        before = cache_counters()
        warm = cartesian_sweep(self.GRID, _sweep_cell, config=cfg)
        delta = _delta(before, cache_counters())
        n_cells = len(cold)
        assert n_cells == 24
        # the acceptance bar: >= 95% of cells served from cache,
        # bit-identically (here: all of them)
        assert delta["hit"] >= 0.95 * n_cells
        assert delta["store"] == 0
        assert warm == cold
        assert ResultCache(tmp_path / "c").stats()["by_kind"] == {"map": 24}

    def test_uncacheable_cell_fn_still_sweeps(self, tmp_path):
        cfg = RunConfig(cache="rw", cache_dir=str(tmp_path / "c"))
        before = cache_counters()
        rows = cartesian_sweep({"a": [1, 2]}, lambda a: {"b": a + 1}, config=cfg)
        delta = _delta(before, cache_counters())
        assert rows == [{"a": 1, "b": 2}, {"a": 2, "b": 3}]
        assert delta["uncacheable"] >= 1
        assert delta["store"] == 0


class TestVerify:
    def test_stored_entries_verify_bit_identically(self, tmp_path):
        _ub(tmp_path)
        cartesian_sweep(
            {"a": [1, 2], "b": [0]}, _sweep_cell,
            config=RunConfig(cache="rw", cache_dir=str(tmp_path / "cache")),
        )
        cache = ResultCache(tmp_path / "cache")
        entries = [entry for _path, entry in cache.iter_entries()]
        assert len(entries) == 7  # five driver tasks, two sweep cells
        for entry in entries:
            status, detail = verify_entry(entry)
            assert status == "ok", detail

    def test_tampered_payload_is_a_mismatch(self, tmp_path):
        cfg = RunConfig(cache="rw", cache_dir=str(tmp_path / "cache"))
        cartesian_sweep({"a": [1, 2], "b": [0]}, _sweep_cell, config=cfg)
        cache = ResultCache(tmp_path / "cache")
        (_p1, first), (_p2, second) = sorted(
            cache.iter_entries(), key=lambda pe: pe[1]["key"]
        )
        first["payload"] = second["payload"]  # right recipe, wrong result
        status, _detail = verify_entry(first)
        assert status == "mismatch"

    def test_recipe_free_entry_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("ab" + "0" * 62, {"result": ["n"]}, "map", recipe=None)
        ((_path, entry),) = list(cache.iter_entries())
        status, _detail = verify_entry(entry)
        assert status == "skip"


class TestEntriesOfRemovedKinds:
    """``run``, ``replicate`` and ``cell`` entries that older builds wrote
    are still read, listed and pruned; only their verification is a skip."""

    RECIPES = {
        "run": {"kind": "run", "config": {"seed": 3}, "make_nodes": "",
                "make_adversary": ""},
        "replicate": {"kind": "replicate", "config": {}, "make_nodes": "",
                      "make_adversary": "", "seeds": [1, 2]},
        "cell": {"kind": "cell", "fn": ["m", "f"], "cell": ["m", []],
                 "config": {}},
    }

    def _fabricate(self, root, created_unix):
        for i, (kind, recipe) in enumerate(sorted(self.RECIPES.items())):
            key = f"{i:02d}" + "e" * 62
            path = ResultCache(root).entry_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({
                "format_version": 1, "key": key, "kind": kind,
                "created_unix": created_unix, "recipe": recipe,
                "payload": {"row": ["m", []]},
            }))

    def test_verify_skips_stats_lists_and_gc_prunes_them(self, tmp_path, capsys):
        root = tmp_path / "cache"
        self._fabricate(root, created_unix=time.time() - 40 * 86400)
        _ub(tmp_path)
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(root),
                     "--sample", "5"]) == 0
        out = capsys.readouterr().out
        for kind in self.RECIPES:
            assert f"skip     {kind:<10}" in out
        assert "5 ok, 0 mismatch, 3 skipped" in out
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        for kind, count in (("cell", 1), ("map", 5), ("replicate", 1), ("run", 1)):
            assert f"kind {kind:<10} {count}" in out
        assert main(["cache", "gc", "--cache-dir", str(root),
                     "--max-age-days", "30"]) == 0
        assert "removed 3 entries, kept 5" in capsys.readouterr().out
        assert ResultCache(root).stats()["by_kind"] == {"map": 5}
