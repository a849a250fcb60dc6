"""The CI smoke's image phase can pass and can fail.

``benchmarks/ci_smoke.py`` builds one plain program under PTA and SkipFlow
and fails unless both builds share one lowering and their reports, read
from the arena kernel's tables, match the PVPG walks.  The planted faults
make the per-program memo always miss (two lowerings) and make the table
counters drift from the walks; the phase must report each.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.kernel.arena_kernel import ArenaKernelSolver
from repro.ir.program import Program

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "ci_smoke.py"


@pytest.fixture(scope="module")
def ci_smoke():
    spec = importlib.util.spec_from_file_location("ci_smoke", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_image_phase_passes(ci_smoke):
    assert ci_smoke._image_phase() == []


def test_image_phase_fails_when_the_memo_always_misses(ci_smoke, monkeypatch):
    monkeypatch.setattr(Program, "memoized", lambda self, build: build(self))
    failures = ci_smoke._image_phase()
    assert failures == [
        "smoke-small: two image builds of one program lowered it 2 times, "
        "not once"]


def test_image_phase_fails_when_the_table_counters_drift(ci_smoke,
                                                        monkeypatch):
    counters = ArenaKernelSolver.image_counters

    def drifted(solver):
        return {**counters(solver), "poly_calls": -1}

    monkeypatch.setattr(ArenaKernelSolver, "image_counters", drifted)
    failures = ci_smoke._image_phase()
    assert failures and all("differs from the PVPG walks" in failure
                            for failure in failures)
