"""The cache store's crash-safety contract (PR 10, satellite 3).

A damaged entry — torn JSON, truncation mid-write, a future format
version, a key that does not match its content — is a *miss* that gets
counted as corrupt and transparently rewritten on the next store.  It
is never a traceback: the cache can only ever make a run faster, not
break it.
"""

from __future__ import annotations

import json

import pytest

from repro.cache.store import (
    CACHE_DIR_ENV,
    ENTRY_FORMAT_VERSION,
    ResultCache,
    cache_counters,
    open_cache,
    resolve_cache_dir,
)
from repro.cli import main
from repro.errors import ConfigurationError
from repro.sim.config import CACHE_ENV, RunConfig, resolve_cache

KEY = "ab" + "0" * 62
PAYLOAD = {"rows": [1, 2, 3]}
#: a well-formed-looking entry whose bytes are not UTF-8
NON_UTF8 = b'{"format_version": 1, "key": "\xff\xfe"}'


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _delta(before, after):
    return {k: after[k] - before[k] for k in after}


class TestRoundTrip:
    def test_put_get_round_trip(self, cache):
        cache.put(KEY, PAYLOAD, "cell")
        assert cache.get(KEY) == PAYLOAD

    def test_absent_entry_is_a_plain_miss(self, cache):
        before = cache_counters()
        assert cache.get(KEY) is None
        delta = _delta(before, cache_counters())
        assert delta["miss"] == 1
        assert delta["corrupt"] == 0

    def test_put_is_atomic_no_tmp_residue(self, cache):
        cache.put(KEY, PAYLOAD, "cell")
        leftovers = [p for p in cache.objects_dir.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []


class TestCorruptionIsAMissNeverATraceback:
    """The injected-corruption regression matrix (satellite 3)."""

    def _corrupt(self, cache, damage):
        path = cache.entry_path(KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(damage, bytes):
            path.write_bytes(damage)
        else:
            path.write_text(damage)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param("{\"format_version\": 1, \"key\":", id="torn-json"),
            pytest.param("", id="empty-file"),
            pytest.param("[1, 2, 3]", id="non-dict"),
            pytest.param(
                json.dumps(
                    {"format_version": ENTRY_FORMAT_VERSION + 1, "key": KEY,
                     "kind": "cell", "payload": PAYLOAD}
                ),
                id="future-format-version",
            ),
            pytest.param(
                json.dumps(
                    {"format_version": ENTRY_FORMAT_VERSION,
                     "key": "cc" + "1" * 62, "kind": "cell", "payload": PAYLOAD}
                ),
                id="wrong-key",
            ),
            pytest.param(
                json.dumps(
                    {"format_version": ENTRY_FORMAT_VERSION, "key": KEY,
                     "kind": "cell"}
                ),
                id="missing-payload",
            ),
            pytest.param(NON_UTF8, id="non-utf8"),
        ],
    )
    def test_damaged_entry_is_corrupt_miss_then_rewritable(self, cache, damage):
        self._corrupt(cache, damage)
        before = cache_counters()
        assert cache.get(KEY) is None  # never raises
        delta = _delta(before, cache_counters())
        assert delta["corrupt"] == 1
        assert delta["miss"] == 1
        # the next store heals the slot in place
        cache.put(KEY, PAYLOAD, "cell")
        assert cache.get(KEY) == PAYLOAD

    def test_truncated_mid_write_entry_heals(self, cache):
        cache.put(KEY, PAYLOAD, "cell")
        path = cache.entry_path(KEY)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(KEY) is None
        cache.put(KEY, PAYLOAD, "cell")
        assert cache.get(KEY) == PAYLOAD


class TestStatsAndGc:
    def test_stats_counts_entries_and_corruption(self, cache):
        cache.put(KEY, PAYLOAD, "cell")
        cache.put("cd" + "2" * 62, PAYLOAD, "run")
        bad = cache.entry_path("ef" + "3" * 62)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("not json")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["corrupt"] == 1
        assert stats["by_kind"] == {"cell": 1, "run": 1}
        assert stats["total_bytes"] > 0

    def test_gc_always_prunes_corrupt(self, cache):
        bad = cache.entry_path(KEY)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("not json")
        report = cache.gc()
        assert report["removed"] == 1
        assert cache.stats()["corrupt"] == 0

    def test_cli_gc_prunes_a_non_utf8_entry(self, cache, capsys):
        bad = cache.entry_path(KEY)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(NON_UTF8)
        root = str(cache.root)
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        assert "corrupt     1" in capsys.readouterr().out
        assert main(["cache", "gc", "--cache-dir", root]) == 0
        assert "removed 1 entry" in capsys.readouterr().out
        assert not bad.exists()

    def test_gc_prunes_by_age(self, cache):
        cache.put(KEY, PAYLOAD, "cell")
        entry = json.loads(cache.entry_path(KEY).read_text())
        report = cache.gc(max_age_seconds=60, now=entry["created_unix"] + 120)
        assert report == {
            "removed": 1, "kept": 0, "bytes_freed": report["bytes_freed"]
        }
        assert report["bytes_freed"] > 0

    def test_gc_prunes_oldest_first_to_fit_size(self, cache):
        old_key, new_key = KEY, "cd" + "4" * 62
        cache.put(old_key, PAYLOAD, "cell")
        cache.put(new_key, PAYLOAD, "cell")
        # age the first entry so the size pass evicts it first
        path = cache.entry_path(old_key)
        entry = json.loads(path.read_text())
        entry["created_unix"] -= 1000
        path.write_text(json.dumps(entry))
        one_entry_bytes = cache.entry_path(new_key).stat().st_size
        report = cache.gc(max_bytes=one_entry_bytes)
        assert report["removed"] == 1
        assert cache.get(new_key) == PAYLOAD
        assert cache.get(old_key) is None


class TestResolution:
    def test_resolve_cache_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "rw")
        assert resolve_cache("off") == "off"
        assert resolve_cache(None) == "rw"
        monkeypatch.delenv(CACHE_ENV)
        assert resolve_cache(None) == "off"

    def test_resolve_cache_rejects_unknown_mode(self, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "write-back")
        with pytest.raises(ConfigurationError, match="unknown cache mode"):
            resolve_cache(None)

    def test_resolve_cache_dir_explicit_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "arg")) == tmp_path / "arg"
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_open_cache_off_is_none(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert open_cache(RunConfig()) is None
        assert open_cache(RunConfig(cache="off")) is None

    def test_open_cache_modes(self, tmp_path):
        cache, mode = open_cache(RunConfig(cache="ro", cache_dir=str(tmp_path)))
        assert mode == "ro"
        assert cache.root == tmp_path
        _, mode = open_cache(RunConfig(cache="rw", cache_dir=str(tmp_path)))
        assert mode == "rw"

    def test_config_rejects_unknown_cache_mode(self):
        with pytest.raises(ConfigurationError, match="unknown cache mode"):
            RunConfig(cache="write-back")
