"""Differential fuzzing of the analysis stack.

The fuzz subsystem closes the loop between the deterministic workload
generators and the analyzers: seeded random (program, edit script) cases
run under the concrete IR interpreter, and every analyzer's result is
checked against what actually executed — executed methods must be
reachable, observed call edges covered, observed receiver types contained
in SkipFlow value states — across every saturation policy, cold and
warm-resumed.  Failures shrink to minimal
replayable repro files.

Entry points: ``repro fuzz`` (CLI), :func:`run_campaign` /
:func:`run_mutation_smoke` (library), ``benchmarks/run_fuzz_study.py``
(CI driver).  See ``docs/fuzzing.md``.
"""

from repro.fuzz.generator import (
    DEEP_PROFILE,
    FUZZ_GUARD_PATTERNS,
    PROFILES,
    QUICK_PROFILE,
    FuzzProfile,
    generate_cases,
    get_profile,
    iter_cases,
    random_edit_script,
    random_spec,
)
from repro.fuzz.oracle import (
    DEFAULT_MAX_STEPS,
    DEFAULT_THRESHOLD,
    OracleReport,
    OracleViolation,
    check_case,
    execute_all_entry_points,
    synthesize_arguments,
)
from repro.fuzz.reprofile import (
    REPRO_FORMAT_VERSION,
    ReproFileError,
    load_repro,
    script_from_dict,
    script_to_dict,
    spec_from_dict,
    spec_to_dict,
    violations_from_dict,
    write_repro,
)
from repro.fuzz.runner import (
    CampaignFailure,
    CampaignResult,
    drop_main_mutator,
    run_campaign,
    run_mutation_smoke,
)
from repro.fuzz.shrink import case_cost, shrink_case

__all__ = [
    "DEEP_PROFILE",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_THRESHOLD",
    "FUZZ_GUARD_PATTERNS",
    "PROFILES",
    "QUICK_PROFILE",
    "REPRO_FORMAT_VERSION",
    "CampaignFailure",
    "CampaignResult",
    "FuzzProfile",
    "OracleReport",
    "OracleViolation",
    "ReproFileError",
    "case_cost",
    "check_case",
    "drop_main_mutator",
    "execute_all_entry_points",
    "generate_cases",
    "get_profile",
    "iter_cases",
    "load_repro",
    "random_edit_script",
    "random_spec",
    "run_campaign",
    "run_mutation_smoke",
    "script_from_dict",
    "script_to_dict",
    "shrink_case",
    "spec_from_dict",
    "spec_to_dict",
    "synthesize_arguments",
    "violations_from_dict",
    "write_repro",
]
