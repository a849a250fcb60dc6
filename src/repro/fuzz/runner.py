"""Fuzz campaigns: generate, check, shrink, and record failing cases.

:func:`run_campaign` is the engine behind both ``repro fuzz`` and
``benchmarks/run_fuzz_study.py``: it drains the deterministic case stream
for a seed — either a fixed number of cases (CI) or a wall-clock budget
(nightly) — runs every case through the differential oracle, shrinks each
failure to a minimal still-failing variant, and writes one replayable
repro file per failure.

:func:`run_mutation_smoke` is the oracle's own test: it deliberately
breaks every analyzer (dropping an always-executed method from the
reachable sets via the oracle's mutator hook), asserts the oracle catches
the planted unsoundness, and asserts the shrinker reduces the failing case
— the end-to-end "would we notice a real soundness bug?" check the CI
quick mode runs on every PR.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.fuzz.generator import get_profile, iter_cases
from repro.fuzz.oracle import (
    DEFAULT_THRESHOLD,
    Mutator,
    OracleReport,
    check_case,
)
from repro.fuzz.reprofile import write_repro
from repro.fuzz.shrink import case_cost, shrink_case
from repro.workloads.edits import EditScriptSpec

#: Optional progress sink (one line per event); ``None`` silences it.
Log = Optional[Callable[[str], None]]


@dataclass
class CampaignFailure:
    """One failing case: as generated, and as shrunk."""

    case_index: int
    original: EditScriptSpec
    shrunk: EditScriptSpec
    report: OracleReport
    repro_path: Optional[Path] = None


@dataclass
class CampaignResult:
    """The outcome of one :func:`run_campaign` invocation."""

    seed: int
    profile: str
    cases_run: int = 0
    prefixes_checked: int = 0
    combos_checked: int = 0
    duration_seconds: float = 0.0
    failures: List[CampaignFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _emit(log: Log, message: str) -> None:
    if log is not None:
        log(message)


def run_campaign(*, seed: int, cases: Optional[int] = None,
                 budget_seconds: Optional[float] = None,
                 profile: str = "quick",
                 schedulings: Optional[Sequence[str]] = None,
                 saturations: Optional[Sequence[str]] = None,
                 threshold: int = DEFAULT_THRESHOLD,
                 out_dir: Optional[Path] = None,
                 shrink: bool = True,
                 mutator: Optional[Mutator] = None,
                 log: Log = None) -> CampaignResult:
    """Run one deterministic fuzz campaign.

    Exactly one of ``cases`` (run that many) or ``budget_seconds`` (run
    until the wall clock says stop, at least one case) must be given.
    Failures are shrunk (unless ``shrink=False``) and written to
    ``out_dir`` as ``repro-<seed>-<case index>.json`` when it is set.
    """
    if (cases is None) == (budget_seconds is None):
        raise ValueError("pass exactly one of cases or budget_seconds")
    resolved_profile = get_profile(profile)
    result = CampaignResult(seed=seed, profile=resolved_profile.name)
    started = time.monotonic()

    stream = iter_cases(seed, resolved_profile)
    case_index = 0
    while True:
        if cases is not None and case_index >= cases:
            break
        if (budget_seconds is not None and case_index > 0
                and time.monotonic() - started >= budget_seconds):
            break
        script = next(stream)
        report = check_case(script, schedulings=schedulings,
                            saturations=saturations, threshold=threshold,
                            mutator=mutator)
        result.cases_run += 1
        result.prefixes_checked += report.prefixes_checked
        result.combos_checked += report.combos_checked
        if not report.ok:
            _emit(log, f"case {case_index} ({script.name}): "
                       f"{len(report.violations)} violation(s); "
                       f"first: {report.violations[0]}")
            shrunk = script
            if shrink:
                def still_fails(candidate: EditScriptSpec) -> bool:
                    return not check_case(
                        candidate, schedulings=schedulings,
                        saturations=saturations, threshold=threshold,
                        mutator=mutator).ok

                shrunk = shrink_case(script, still_fails)
                _emit(log, f"case {case_index}: shrunk "
                           f"{case_cost(script)} -> {case_cost(shrunk)}")
            failure = CampaignFailure(case_index=case_index,
                                      original=script, shrunk=shrunk,
                                      report=report)
            if out_dir is not None:
                failure.repro_path = write_repro(
                    Path(out_dir) / f"repro-{seed}-{case_index}.json",
                    shrunk, seed=seed, case_index=case_index,
                    threshold=threshold,
                    violations=tuple(report.violations))
                _emit(log, f"case {case_index}: wrote {failure.repro_path}")
            result.failures.append(failure)
        elif log is not None and case_index % 10 == 0:
            _emit(log, f"case {case_index} ({script.name}): ok "
                       f"({report.prefixes_checked} prefixes, "
                       f"{report.combos_checked} combos)")
        case_index += 1

    result.duration_seconds = time.monotonic() - started
    return result


# --------------------------------------------------------------------------- #
# Mutation smoke: does the oracle catch a deliberately broken analyzer?
# --------------------------------------------------------------------------- #
def drop_main_mutator(analyzer: str, reachable: Set[str]) -> Set[str]:
    """The planted bug: every analyzer 'forgets' the program's main method.

    ``Main.main`` is executed by every generated program, so a sound
    oracle must flag its absence for every analyzer at every prefix.
    """
    return {method for method in reachable if method != "Main.main"}


def run_mutation_smoke(*, seed: int = 0, profile: str = "quick"
                       ) -> Tuple[OracleReport, EditScriptSpec,
                                  EditScriptSpec]:
    """Verify the oracle catches and shrinks a planted soundness bug.

    Runs one generated case against mutated analyzers (a cheap single-combo
    matrix — the planted bug is policy-independent), asserts violations
    fire, and asserts the shrinker reduces the case.  The mutated solves run
    on both kernels, as every oracle combo does.  Returns the failing
    report plus the (original, shrunk) scripts.

    Raises ``AssertionError`` when the oracle misses the planted bug — the
    condition under which no other fuzz result can be trusted.
    """
    script = next(iter_cases(seed, get_profile(profile)))
    matrix = dict(schedulings=("fifo",), saturations=("off",),
                  mutator=drop_main_mutator)
    report = check_case(script, **matrix)
    assert not report.ok, (
        "mutation smoke FAILED: the oracle did not flag a dropped "
        "executed method — its soundness checks are not wired")
    assert any(v.invariant == "executed-not-reachable"
               for v in report.violations), (
        "mutation smoke FAILED: violations fired but not the "
        "executed-not-reachable invariant")

    def still_fails(candidate: EditScriptSpec) -> bool:
        return not check_case(candidate, **matrix).ok

    shrunk = shrink_case(script, still_fails)
    assert case_cost(shrunk) <= case_cost(script), (
        "mutation smoke FAILED: shrinking increased the case cost")
    assert not check_case(shrunk, **matrix).ok, (
        "mutation smoke FAILED: the shrunk case no longer fails")
    return report, script, shrunk
