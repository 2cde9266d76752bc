"""Golden-fingerprint corpus: pinned traces replayed on every backend.

``tests/data/golden_fingerprints.json`` commits the reference-backend
trace fingerprint and bit totals of ~25 canonical cells spanning every
protocol × adversary family.  Relative differential tests (reference vs
batch) catch the two engines drifting *apart*; this corpus catches them
drifting *together* — any change to coin folding, encoding, delivery
order, or adversary scheduling that silently alters semantics fails
here, on every backend, against a value reviewed into git.

Regenerate (only after an intentional semantic change)::

    python tools/fuzz_backends.py --write-golden tests/data/golden_fingerprints.json
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[2]
_GOLDEN = _ROOT / "tests" / "data" / "golden_fingerprints.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "fuzz_backends", _ROOT / "tools" / "fuzz_backends.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("fuzz_backends", module)
    spec.loader.exec_module(module)
    return module


fb = _load_tool()

with _GOLDEN.open() as fh:
    _CORPUS = json.load(fh)

_CELLS = [(rec["cell"]["name"], rec) for rec in _CORPUS["cells"]]


def test_corpus_is_current_format():
    assert _CORPUS["version"] == 1
    assert len(_CORPUS["cells"]) >= 20


def test_corpus_matches_curated_cells():
    """The committed corpus covers exactly the curated GOLDEN_CELLS."""
    committed = [rec["cell"]["name"] for rec in _CORPUS["cells"]]
    curated = [cell.name for cell in fb.GOLDEN_CELLS]
    assert committed == curated, (
        "corpus out of date — regenerate with "
        "`python tools/fuzz_backends.py --write-golden "
        "tests/data/golden_fingerprints.json`"
    )


def test_corpus_spans_every_family():
    protocols = {rec["cell"]["protocol"] for rec in _CORPUS["cells"]}
    adversaries = {rec["cell"]["adversary"] for rec in _CORPUS["cells"]}
    assert protocols == set(fb.PROTOCOLS)
    assert set(fb.OBLIVIOUS_ADVERSARIES) <= adversaries
    assert adversaries & set(fb.ADAPTIVE_ADVERSARIES)


@pytest.mark.parametrize("variant", sorted(fb.VARIANTS))
@pytest.mark.parametrize("name,record", _CELLS, ids=[n for n, _ in _CELLS])
def test_golden_replay(name, record, variant):
    cell = fb.Cell.from_dict(record["cell"])
    results = fb.run_cell(cell, variant)
    assert len(results) == len(record["results"])
    for want, got in zip(record["results"], results):
        context = f"{name} [{variant}] seed {want['seed']}"
        assert got["fingerprint"] == want["fingerprint"], context
        assert got["bits_sent"] == want["bits_sent"], context
        assert got["rounds"] == want["rounds"], context
        assert got["terminated"] == want["terminated"], context
