"""Parallel benchmark runner producing per-configuration, cacheable results.

The runner's unit of work is one *half* of a comparison: a single
:class:`~repro.workloads.generator.BenchmarkSpec` analyzed under a single
:class:`~repro.core.analysis.AnalysisConfig`.  A worker (possibly in another
process) solves one half and returns a plain JSON-serializable *payload*; the
parent composes N halves — freshly computed or loaded independently from
the :class:`~repro.engine.cache.ResultCache` — into result rows.

:func:`run_config_matrix` is the driver: it takes a *list of named
configurations* and produces one :class:`MatrixRow` per spec with one
:class:`ConfigRunView` column per configuration, enabling arbitrary N-way
comparisons (e.g. PTA vs SkipFlow vs SkipFlow+saturation).
:func:`run_specs` is its two-column form that the Table 1 / Figure 9
drivers use: columns ``PTA`` and ``SkipFlow``, the first the reference.

Caching halves instead of whole comparisons is what makes ablation sweeps
and N-way matrices cheap: five runs that vary only the SkipFlow
configuration (say, saturation thresholds 2/4/8/16/off) share one cached
baseline half per spec, so the unsaturated baseline is analyzed exactly
once, and an N-way matrix reuses every half any previous run cached.
Halves also multiply the available parallelism — the N configuration solves
of the same spec run on different pool workers.

Workers obtain their program from the shared
:class:`~repro.engine.program_store.ProgramStore` when one is available
(derived automatically from the result cache directory).  The first solve of
a spec generates it and writes the frozen ``.arena`` blob; that solve and
every later one — the other halves of the same row, workers in other
processes, whole later runs — map the blob read-only and attach it as an
:class:`~repro.ir.arena.ArenaProgram` with zero per-worker decode
(:meth:`~repro.engine.program_store.ProgramStore.attach_or_build`).
:class:`~repro.core.analysis.SkipFlowAnalysis` solves such an attached
arena on the **arena kernel**, directly on the mapped buffer, so no object
IR graph is built.  A half that still gets a plain
:class:`~repro.ir.program.Program` — no store, or a store that could not
be written — runs on the arena kernel too: the image builder solves the
program's in-memory lowering (:func:`~repro.ir.arena.lowered_program`),
memoized on the program.  Each payload records which kernel ran
(``kernel_ran``).

On top of the store, each worker *process* memoizes the programs it has
already attached or generated (:func:`_program_for`), so an
N-configuration matrix over one spec maps the blob — or, without a store,
generates and lowers the program — once per process, not once per half.
That is safe because the analysis treats programs as read-only (the solver
builds its state beside the IR, never into it) and the engine never
applies reflection mutations.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import AnalysisConfig
from repro.engine.cache import ResultCache, hash_dataclass
from repro.engine.program_store import ProgramStore
from repro.engine.scheduler import order_by_cost
from repro.image.builder import ImageBuildReport, NativeImageBuilder
from repro.ir.program import Program
from repro.reporting.table import METRIC_NAMES, metric_value
from repro.workloads.generator import BenchmarkSpec, generate_benchmark

#: Payload schema version; bump when the payload layout changes so stale
#: cache entries (same code version would normally prevent this, but cache
#: directories can outlive wheels) are treated as misses.  Version 2 switched
#: from whole-comparison payloads to per-configuration halves; version 3
#: records which kernel ran each half (``kernel_ran``); version 4 dropped
#: version 3's ``fallback`` (the kernel no longer refuses a solve).
PAYLOAD_VERSION = 4



@dataclass(frozen=True)
class MetricsView:
    """The counter metrics of one configuration, detached from the solver."""

    reachable_methods: int
    type_checks: int
    null_checks: int
    primitive_checks: int
    poly_calls: int


@dataclass(frozen=True)
class ReportView:
    """The serializable slice of an ``ImageBuildReport`` the reporting uses."""

    configuration: str
    metrics: MetricsView
    binary_size_bytes: int
    analysis_time_seconds: float
    total_time_seconds: float
    solver_steps: int
    solver_joins: int
    solver_transfers: int
    saturated_flows: int
    #: The propagation kernel that solved this half (``object``/``arena``).
    kernel_ran: str

    @property
    def reachable_methods(self) -> int:
        return self.metrics.reachable_methods

    @property
    def binary_size_megabytes(self) -> float:
        return self.binary_size_bytes / 1_000_000.0


# ---------------------------------------------------------------------- #
# Payloads (what workers return and the cache stores, one per half)
# ---------------------------------------------------------------------- #
def _report_payload(report: ImageBuildReport) -> Dict[str, Any]:
    stats = report.result.stats
    return {
        "configuration": report.configuration,
        "reachable_methods": report.metrics.reachable_methods,
        "type_checks": report.metrics.type_checks,
        "null_checks": report.metrics.null_checks,
        "primitive_checks": report.metrics.primitive_checks,
        "poly_calls": report.metrics.poly_calls,
        "binary_size_bytes": report.binary_size_bytes,
        "analysis_time_seconds": report.analysis_time_seconds,
        "total_time_seconds": report.total_time_seconds,
        "solver_steps": report.result.steps,
        "solver_joins": stats.joins if stats is not None else 0,
        "solver_transfers": stats.transfers if stats is not None else 0,
        "saturated_flows": stats.saturated_flows if stats is not None else 0,
    }


def _view_from_payload(payload: Dict[str, Any], kernel_ran: str) -> ReportView:
    return ReportView(
        configuration=payload["configuration"],
        metrics=MetricsView(
            reachable_methods=payload["reachable_methods"],
            type_checks=payload["type_checks"],
            null_checks=payload["null_checks"],
            primitive_checks=payload["primitive_checks"],
            poly_calls=payload["poly_calls"],
        ),
        binary_size_bytes=payload["binary_size_bytes"],
        analysis_time_seconds=payload["analysis_time_seconds"],
        total_time_seconds=payload["total_time_seconds"],
        solver_steps=payload["solver_steps"],
        solver_joins=payload["solver_joins"],
        solver_transfers=payload["solver_transfers"],
        saturated_flows=payload["saturated_flows"],
        kernel_ran=kernel_ran,
    )


def view_from_half(payload: Dict[str, Any]) -> ReportView:
    """Validate one per-configuration payload and extract its report view."""
    if payload.get("payload_version") != PAYLOAD_VERSION:
        raise ValueError(
            f"unsupported payload version {payload.get('payload_version')!r}")
    return _view_from_payload(payload["report"], payload["kernel_ran"])


#: Per-process memo of programs already obtained for a half: attached from
#: a store, keyed by the store's arena blob path (which embeds the spec hash
#: *and* the code version, so a stale entry is unreachable by
#: construction), or generated without one, keyed by the spec hash.  Worker
#: processes on a pool each hold their own copy; an N-configuration matrix
#: over one spec therefore attaches the blob (or generates and lowers the
#: program) once per process instead of once per half.  Sharing one program
#: object across solves is safe because every registered analyzer treats
#: the program as read-only and the engine never applies reflection
#: mutations (callers that do must bypass the engine).
_WORKER_PROGRAMS: Dict[str, Program] = {}

#: Memo capacity: oldest entries are evicted beyond this, so a long-lived
#: process sweeping many specs holds a handful of programs, not all of them.
#: Serial runs solve a spec's halves adjacently and pool tasks are submitted
#: column-major over at most ``jobs`` in-flight specs per worker, so a small
#: window captures effectively all of the reuse.
_WORKER_PROGRAM_CAPACITY = 8


def _remember(memo_key: str, program: Program) -> None:
    _WORKER_PROGRAMS[memo_key] = program
    while len(_WORKER_PROGRAMS) > _WORKER_PROGRAM_CAPACITY:
        _WORKER_PROGRAMS.pop(next(iter(_WORKER_PROGRAMS)))


def _program_for(spec: BenchmarkSpec,
                 store: Optional[ProgramStore]) -> Tuple[Program, bool]:
    """The program for one half, via the process memo and the store.

    Returns the program plus whether it came from shared storage (the memo
    of store programs or the store's blobs).  Memo hits on store programs
    count as store hits so the store's counters keep meaning "solves that
    skipped program generation".  With a store the program is whatever
    :meth:`ProgramStore.attach_or_build` returns: an attached
    :class:`~repro.ir.arena.ArenaProgram` unless the blob is missing and
    cannot be written.  Without one it is generated on the first
    half of its spec in this process and reused by the others; those reuses
    are not store hits.
    """
    if store is None:
        memo_key = f"generated/{hash_dataclass(spec)}"
        program = _WORKER_PROGRAMS.get(memo_key)
        if program is None:
            program = generate_benchmark(spec)
            _remember(memo_key, program)
        return program, False
    memo_key = str(store.path_for(spec))
    program = _WORKER_PROGRAMS.get(memo_key)
    if program is not None:
        store.hits += 1
        return program, True
    program, from_store = store.attach_or_build(spec)
    _remember(memo_key, program)
    return program, from_store


def solve_config(spec: BenchmarkSpec,
                 config: AnalysisConfig,
                 store: Optional[ProgramStore] = None) -> Dict[str, Any]:
    """Worker entry point: analyze one (spec, configuration) pair.

    Must stay a module-level function so ``ProcessPoolExecutor`` can pickle
    it; specs, configs, and the program store all pickle cleanly.  When a
    store is provided the program comes from the per-process memo, the
    store's blobs, or fresh generation (which fills the store), in that
    order; ``program_from_store`` records whether generation was skipped.
    The image build solves every program on the arena kernel — an attached
    one on its buffer, a plain one on its memoized in-memory lowering — and
    the payload's ``kernel_ran`` says which kernel ran.
    """
    started = time.perf_counter()
    program, from_store = _program_for(spec, store)
    report = NativeImageBuilder(program, config, benchmark_name=spec.name).build()
    return {
        "payload_version": PAYLOAD_VERSION,
        "benchmark": spec.name,
        "suite": spec.suite,
        "config_name": config.name,
        "program_from_store": from_store,
        "kernel_ran": report.result.kernel_ran,
        "report": _report_payload(report),
        "elapsed_seconds": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------- #
# N-way matrix rows
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ConfigRunView:
    """One column of a matrix row: a named configuration's result for a spec."""

    name: str
    report: ReportView
    from_cache: bool
    elapsed_seconds: float


@dataclass(frozen=True)
class MatrixRow:
    """One benchmark's results under N named configurations.

    Columns keep the order of the ``configs`` passed to
    :func:`run_config_matrix`; by convention the first column is the
    reference that :meth:`normalized` / :meth:`reduction_percent` compare
    against (``PTA`` in a :func:`run_specs` row).
    """

    benchmark: str
    suite: str
    runs: Tuple[ConfigRunView, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(run.name for run in self.runs)

    def run(self, name: str) -> ConfigRunView:
        for run in self.runs:
            if run.name == name:
                return run
        raise KeyError(f"no configuration {name!r} in this row; "
                       f"available: {', '.join(self.names)}")

    def report(self, name: str) -> ReportView:
        return self.run(name).report

    def metric(self, metric: str, name: str) -> float:
        return metric_value(self.run(name).report, metric)

    def normalized(self, metric: str, name: str) -> float:
        """A column's metric normalized to the first (reference) column."""
        reference = metric_value(self.runs[0].report, metric)
        if reference == 0:
            return 1.0
        return self.metric(metric, name) / reference

    def reduction_percent(self, metric: str, name: str) -> float:
        return (1.0 - self.normalized(metric, name)) * 100.0

    @property
    def from_cache(self) -> bool:
        """True only when every column was served from the cache."""
        return all(run.from_cache for run in self.runs)

    @property
    def elapsed_seconds(self) -> float:
        return sum(run.elapsed_seconds for run in self.runs)

    def as_dict(self) -> Dict[str, Any]:
        row: Dict[str, Any] = {"benchmark": self.benchmark, "suite": self.suite}
        for run in self.runs:
            for metric in METRIC_NAMES:
                row[f"{run.name}_{metric}"] = metric_value(run.report, metric)
        return row


# ---------------------------------------------------------------------- #
# The drivers
# ---------------------------------------------------------------------- #
MatrixProgressCallback = Callable[[BenchmarkSpec, MatrixRow], None]


def run_config_matrix(
    specs: Sequence[BenchmarkSpec],
    configs: Sequence[AnalysisConfig],
    *,
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[MatrixProgressCallback] = None,
    program_store: Optional[ProgramStore] = None,
) -> List[MatrixRow]:
    """Run every spec under every named configuration; rows follow input order.

    Each (spec, configuration) half is looked up in the cache independently,
    so a matrix whose columns were already computed by earlier runs — in any
    combination — recomputes nothing.  The remaining halves run serially
    (``jobs == 1``, each spec's halves adjacent so rows complete — and report
    progress — incrementally) or on a process pool (column-major, first
    column's halves first with the largest specs leading, so program blobs
    are usually stored before the sibling halves start).  ``progress`` is
    invoked once per *completed row* (all columns available), in completion
    order.

    ``names`` labels the columns (defaults to each config's ``name``) and
    must be unique — a saturation sweep over otherwise same-named SkipFlow
    configs needs explicit labels.

    When ``program_store`` is omitted but a ``cache`` is given, a store is
    derived automatically under ``<cache dir>/programs`` so result entries
    and IR blobs share one directory tree (and one code version).
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_config_matrix needs at least one configuration")
    column_names = list(names) if names is not None else [c.name for c in configs]
    if len(column_names) != len(configs):
        raise ValueError(f"{len(configs)} configs but {len(column_names)} names")
    if len(set(column_names)) != len(column_names):
        raise ValueError(f"column names must be unique, got {column_names}")
    if program_store is None and cache is not None:
        program_store = ProgramStore(cache.directory / "programs",
                                     code_version=cache.code_version)
    sides = range(len(configs))

    # halves[index][side] is the payload once available; cached[index][side]
    # records whether it came from the result cache.
    halves: List[List[Optional[Dict[str, Any]]]] = [
        [None] * len(configs) for _ in specs]
    cached: List[List[bool]] = [[False] * len(configs) for _ in specs]
    results: List[Optional[MatrixRow]] = [None] * len(specs)
    pending: List[Tuple[int, int]] = []

    for index, spec in enumerate(specs):
        for side in sides:
            payload = None
            if cache is not None:
                payload = cache.get(cache.config_key(spec, configs[side]))
                if payload is not None:
                    try:
                        view_from_half(payload)
                        usable = payload["benchmark"] == spec.name
                    except (KeyError, TypeError, ValueError):
                        usable = False
                    if not usable:
                        # Stale layout, or another spec's half: recompute,
                        # and reclassify the lookup as a miss so the
                        # counters match what actually ran.
                        payload = None
                        cache.hits -= 1
                        cache.misses += 1
            if payload is None:
                pending.append((index, side))
            else:
                halves[index][side] = payload
                cached[index][side] = True

    def _maybe_assemble(index: int) -> None:
        if any(half is None for half in halves[index]) or results[index] is not None:
            return
        results[index] = MatrixRow(
            benchmark=specs[index].name,
            suite=specs[index].suite,
            runs=tuple(
                ConfigRunView(
                    name=column_names[side],
                    report=view_from_half(halves[index][side]),
                    from_cache=cached[index][side],
                    elapsed_seconds=halves[index][side]["elapsed_seconds"],
                )
                for side in sides
            ),
        )
        if progress is not None:
            progress(specs[index], results[index])

    def finish(index: int, side: int, payload: Dict[str, Any]) -> None:
        if cache is not None:
            cache.put(cache.config_key(specs[index], configs[side]), payload)
        halves[index][side] = payload
        cached[index][side] = False
        _maybe_assemble(index)

    # Fully cached rows are assembled (and reported) first.
    for index in range(len(specs)):
        _maybe_assemble(index)

    pending_indices = sorted({index for index, _ in pending})
    spec_rank = {index: rank for rank, index in enumerate(
        pending_indices[i] for i in order_by_cost([specs[i] for i in pending_indices]))}
    parallel = jobs > 1 and len(pending) > 1
    if parallel:
        # Column-major: all first-column halves first (expensive specs
        # leading), then the next column, and so on — a spec's program then
        # usually lands in the store before its sibling halves start.  (When
        # workers outnumber the pending first-column halves a sibling can
        # still race on a cold store; results stay correct — generation is
        # deterministic and blob writes atomic — the race only duplicates
        # generation work.)
        submission_order = sorted(
            pending, key=lambda item: (item[1], spec_rank[item[0]]))
    else:
        # Serially there is no race: keep a spec's halves adjacent (first
        # column first) so each row completes — and reports progress —
        # before the next spec starts.
        submission_order = sorted(
            pending, key=lambda item: (spec_rank[item[0]], item[1]))

    if parallel:
        max_workers = min(jobs, len(submission_order))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(solve_config, specs[index], configs[side],
                            program_store): (index, side)
                for index, side in submission_order
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    index, side = futures[future]
                    finish(index, side, future.result())
    else:
        for index, side in submission_order:
            finish(index, side, solve_config(specs[index], configs[side],
                                             program_store))

    return [result for result in results if result is not None]


def run_specs(
    specs: Sequence[BenchmarkSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    baseline_config: Optional[AnalysisConfig] = None,
    skipflow_config: Optional[AnalysisConfig] = None,
    progress: Optional[MatrixProgressCallback] = None,
    program_store: Optional[ProgramStore] = None,
) -> List[MatrixRow]:
    """Run every spec under PTA and SkipFlow; rows follow input order.

    The two-column :func:`run_config_matrix` (see there for the caching,
    ordering, and progress semantics) behind Table 1 and Figure 9: column
    ``PTA`` runs ``baseline_config`` and is the reference, column
    ``SkipFlow`` runs ``skipflow_config``.
    """
    configs = [baseline_config or AnalysisConfig.baseline_pta(),
               skipflow_config or AnalysisConfig.skipflow()]
    return run_config_matrix(
        specs, configs, names=("PTA", "SkipFlow"), jobs=jobs, cache=cache,
        progress=progress, program_store=program_store)
