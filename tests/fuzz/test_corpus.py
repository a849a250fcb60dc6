"""Replay the fuzz corpus: recorded cases as regression tests.

Every ``corpus/*.json`` file is a repro file (see
:mod:`repro.fuzz.reprofile`): a case that was interesting at some point —
shrunk output of the mutation smoke, or shapes that stressed a specific
subsystem.  Each one replays through the full differential oracle and must
come back clean: a violation here means a previously-understood case
regressed.  Nightly-found failures get fixed, then their shrunk repro file
lands in ``corpus/`` so the bug stays fixed.

Every corpus program is also a freeze golden
(``tests/ir/test_freeze_golden.py``), so filing a case needs one more
step: regenerate the golden digests with
``PYTHONPATH=src python tests/ir/test_freeze_golden.py --update``.
"""

from pathlib import Path

import pytest

from repro.fuzz.oracle import check_case
from repro.fuzz.reprofile import load_repro, violations_from_dict

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_not_empty():
    assert CORPUS_FILES, f"no corpus files under {CORPUS_DIR}"


@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[p.stem for p in CORPUS_FILES])
def test_corpus_case_replays_clean(path):
    script, meta = load_repro(path)
    threshold = meta.get("threshold") or 4
    report = check_case(script, threshold=threshold)
    assert report.ok, (
        f"corpus case {path.name} regressed: {report.violations[0]}")


def test_mutation_smoke_corpus_recorded_the_planted_violations():
    # The mutation-smoke entry keeps the violations the planted bug
    # produced when it was recorded — documentation that the oracle fires.
    path = CORPUS_DIR / "mutation-smoke-shrunk.json"
    _, meta = load_repro(path)
    recorded = violations_from_dict(meta)
    assert recorded
    assert any(v.invariant == "executed-not-reachable" for v in recorded)
