"""The CI smoke's image phase can pass and can fail.

``benchmarks/ci_smoke.py`` builds one plain program under PTA and SkipFlow
and fails unless both builds ran on the arena kernel over one lowering.
The planted faults make the per-program memo always miss (two lowerings)
and make the builder skip the lowering (the object kernel runs); the phase
must report each.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.image import builder
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


def test_image_phase_fails_when_builds_skip_the_lowering(ci_smoke, monkeypatch):
    monkeypatch.setattr(builder, "lowered_program", lambda program: program)
    failures = ci_smoke._image_phase()
    assert any("ran on the object kernel" in failure for failure in failures)
    assert failures[-1].endswith("lowered it 0 times, not once")
