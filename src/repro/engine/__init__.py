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
  N-configuration driver, returning one
  :class:`~repro.engine.runner.MatrixRow` per spec;
  :func:`~repro.engine.runner.run_specs` is its two-column (``PTA``,
  ``SkipFlow``) form, whose rows the Table 1 / Figure 9 reporting reads.
* :mod:`repro.engine.scheduler` orders the pending specs largest-first
  (longest-processing-time heuristic) so the pool stays balanced.
* :mod:`repro.engine.cache` holds the store layout below and persists
  every configuration half as one JSON file, so comparisons compose from
  independently cached halves.
* :mod:`repro.engine.program_store` shares built IR between halves, workers,
  and runs: the first solve of a spec stores the generated program (a
  frozen ``.arena`` blob) in the cache directory, and every store-backed
  half attaches that blob and solves it on the arena kernel instead of
  regenerating or re-lowering it.
* :mod:`repro.engine.snapshots` persists *solver-state* snapshots — the
  arena kernel's tables of one (spec, configuration) solve over an
  attached program — keyed like result halves, so warm re-analysis after
  a monotone program edit survives process boundaries
  (``benchmarks/run_incremental_study.py``).

Invariant: with both configurations at their defaults the engine's numbers
are bit-identical to running :class:`~repro.image.builder.NativeImageBuilder`
directly on a freshly generated program, whether a result was computed
serially, on a pool, loaded from the cache, or solved over a program from
the store (verified down to solver step counts by the engine tests).

Store layout
------------
The result cache, the program store and the snapshot store share one
on-disk layout, :class:`~repro.engine.cache.BlobStore`.  Each store owns a
directory (the cache directory itself, and its ``programs`` and
``snapshots`` subdirectories) and writes one file per entry::

    <code_version>-<key><suffix>
    key = sha256(kind + "/" + part hashes / code_version)[:32]

============== ============ ====================== =====================
store          ``kind``     part hashes            suffixes
============== ============ ====================== =====================
result cache   ``result``   spec_hash, config_hash ``.json``
snapshots      ``state``    spec_hash, config_hash ``.state``
program store  ``program``  spec_hash              ``.arena``
============== ============ ====================== =====================

The program store also owns ``.pickle``, the program encoding of older
code versions, so that ``gc`` and ``clear`` reclaim those files; nothing
writes or reads it any more.

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
    once.  A program does not depend on any configuration, which is why
    both halves of a comparison (and every sweep point) share one program
    blob, and a snapshot is valid exactly when its result half is.
``code_version``
    SHA-256 over every ``*.py`` source file of the ``repro`` package, so any
    code change — a solver fix, a new metric — invalidates *all* entries.
    Results are therefore never stale; at worst the cache is cold.

Every write goes to a temp file named after its target plus
``.tmp<pid>-<thread id>``, unique per writer, and is renamed over the
target, so concurrent runs, concurrent daemon requests and interrupted
writers never leave a torn entry; an unreadable file is a miss.  The key
already embeds the code version, so the filename prefix adds no
correctness: it lets ``gc`` spot stale files by name, since a key is an
opaque hash.  ``gc`` deletes every file with the store's suffixes (and
every temp file of one) whose name does not start with the running code
version, including pre-versioning flat names; files and in-flight temp
files of the current version are kept.  ``repro bench --gc`` runs it on
all three stores.  ``clear`` deletes every entry of a store.  Both record
``last_gc_bytes``; ``hits`` and ``misses`` count each instance's reads.

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
    ConfigRunView,
    MatrixRow,
    run_config_matrix,
    run_specs,
)
from repro.engine.scheduler import order_by_cost
from repro.engine.snapshots import SnapshotStore

__all__ = [
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
