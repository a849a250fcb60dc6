"""The CI smoke's policy-matrix phase can pass and can fail.

``benchmarks/ci_smoke.py`` solves the saturation-policy matrix over the
program store and fails if a store half decodes a method body.  The
planted faults leave an attached program's allocation-site index
uninitialized (the half raises) and send the allocated-type origins back
to the method bodies (the halves decode); the phase must report each.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.kernel import saturation
from repro.engine import ResultCache, run_specs
from repro.ir.arena import ArenaProgram

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "ci_smoke.py"


@pytest.fixture(scope="module")
def ci_smoke():
    spec = importlib.util.spec_from_file_location("ci_smoke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _phase(ci_smoke, cache_dir):
    """The phase over a fresh cache that holds the first run's halves."""
    specs = ci_smoke._smoke_specs()
    run_specs(specs, cache=ResultCache(cache_dir))
    return ci_smoke._policy_matrix_phase(specs, str(cache_dir))


def test_policy_phase_passes(ci_smoke, tmp_path):
    failures, rows = _phase(ci_smoke, tmp_path)
    assert failures == []
    assert [row.names for row in rows] == [("off", "allocated-type")] * 2


def test_policy_phase_fails_on_an_uninitialized_site_index(
        ci_smoke, tmp_path, monkeypatch):
    init = ArenaProgram.__init__

    def init_without_index(self, *args, **kwargs):
        init(self, *args, **kwargs)
        del self._site_index

    monkeypatch.setattr(ArenaProgram, "__init__", init_without_index)
    failures, _ = _phase(ci_smoke, tmp_path)
    assert len(failures) == 1
    assert failures[0].startswith("policy matrix: a half raised AttributeError")


def test_policy_phase_fails_when_origins_decode_the_bodies(
        ci_smoke, tmp_path, monkeypatch):
    class NotAnArena:
        pass

    monkeypatch.setattr(saturation, "ArenaProgram", NotAnArena)
    failures, _ = _phase(ci_smoke, tmp_path)
    assert len(failures) == 1
    assert failures[0].startswith("policy matrix: store halves decoded ")
    assert failures[0].endswith("), not 0")
