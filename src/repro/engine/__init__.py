"""The benchmark engine: parallel execution with per-configuration caching.

The engine decouples *what* the evaluation drivers ask for (a list of
:class:`~repro.workloads.generator.BenchmarkSpec`, each analyzed under a
list of named configurations — the classic PTA-vs-SkipFlow pair or an
arbitrary N-way matrix) from *how* the results are produced:

* :mod:`repro.engine.runner` fans *halves* — one (spec, configuration)
  analysis each — out to a ``concurrent.futures.ProcessPoolExecutor``
  (``jobs > 1``) or runs them serially (``jobs == 1``); both paths return
  identical results because benchmark generation and the solver are fully
  deterministic.  :func:`~repro.engine.runner.run_config_matrix` is the
  general N-configuration driver; :func:`~repro.engine.runner.run_specs`
  is its two-column specialization for the Table 1 / Figure 9 reporting.
* :mod:`repro.engine.scheduler` orders the pending specs largest-first
  (longest-processing-time heuristic) so the pool stays balanced.
* :mod:`repro.engine.cache` persists every configuration half as one JSON
  file, so comparisons compose from independently cached halves.
* :mod:`repro.engine.program_store` shares built IR between halves, workers,
  and runs: the first solve of a spec stores the generated program (a
  pickle plus a frozen ``.arena`` blob) in the cache directory, and every
  store-backed half attaches the arena blob and solves it on the arena
  kernel instead of regenerating, re-lowering or unpickling it.
* :mod:`repro.engine.snapshots` persists *solver-state* snapshots — the
  resumable fixpoint of one (spec, configuration) solve — keyed exactly
  like result halves, so warm re-analysis after a monotone program edit
  survives process boundaries (``benchmarks/run_incremental_study.py``).

Invariant: with both configurations at their defaults the engine's numbers
are bit-identical to running :class:`~repro.image.builder.NativeImageBuilder`
directly on a freshly generated program, whether a result was computed
serially, on a pool, loaded from the cache, or solved over a program from
the store (verified down to solver step counts by the engine tests).

Cache key scheme
----------------
A *result* entry holds one configuration half and is keyed by the SHA-256 of
three components::

    key = sha256("result/" + spec_hash / config_hash / code_version)

``spec_hash``
    Canonical JSON of the full ``BenchmarkSpec`` dataclass (name, suite,
    module sizes, guard patterns, wide-hierarchy shapes).  Any change to the
    generated program changes the key.
``config_hash``
    Canonical JSON of *one* ``AnalysisConfig`` dataclass, including
    ``saturation_threshold``.  Flipping any analysis switch invalidates the
    entry — but only for that configuration: an ablation sweep over
    SkipFlow variants keeps hitting the shared baseline half, which is what
    lets a 5-point saturation sweep analyze the unsaturated baseline exactly
    once.
``code_version``
    SHA-256 over every ``*.py`` source file of the ``repro`` package, so any
    code change — a solver fix, a new metric — invalidates *all* entries.
    Results are therefore never stale; at worst the cache is cold.
    Invalidated entries linger on disk (their keys are simply never looked
    up again) until ``repro bench --gc`` — backed by ``ResultCache.gc`` and
    ``ProgramStore.gc`` — deletes every file whose code-version filename
    prefix does not match the running code.

A *program store* entry holds the pickled IR of one spec under
``<cache dir>/programs`` and is keyed by ``(spec_hash, code_version)`` only:
the program depends on the generator but not on any analysis configuration,
which is exactly why both halves of a comparison (and every sweep point) can
share one blob.

Saturation and the paper's monotonicity argument
------------------------------------------------
The solver's termination proof (Appendix C) rests on monotonicity: value
states only grow in the lattice ``L``, flows only switch from disabled to
enabled, and edges are only added.  The saturation cutoff
(``AnalysisConfig.saturation_threshold``) preserves exactly that argument:
saturating a flow *jumps* its state to its policy's sentinel — the top
element of ``L`` restricted to the types that can originate in a value
state (``null`` and primitive ``Any`` included) — joined over its current
state, which is still a move up the lattice, and subsequently skipped joins
into the flow are no-ops by definition of top.  The fixed point is reached sooner
and is a sound over-approximation of the paper's result; with the cutoff
disabled (the default everywhere) results are bit-identical to the exact
semantics.  Because the threshold is part of ``config_hash``, cached exact
and saturated results never mix.  ``docs/architecture.md`` spells the
argument out in full; ``benchmarks/run_policy_study.py`` measures the
precision/cost trade-off per policy and threshold on the wide-hierarchy
workload family.
"""

from repro.engine.cache import ResultCache, compute_code_version
from repro.engine.program_store import ProgramStore
from repro.engine.runner import (
    ComparisonResult,
    ConfigRunView,
    MatrixRow,
    run_config_matrix,
    run_specs,
)
from repro.engine.scheduler import order_by_cost
from repro.engine.snapshots import SnapshotStore

__all__ = [
    "ComparisonResult",
    "ConfigRunView",
    "MatrixRow",
    "ProgramStore",
    "ResultCache",
    "SnapshotStore",
    "compute_code_version",
    "order_by_cost",
    "run_config_matrix",
    "run_specs",
]
