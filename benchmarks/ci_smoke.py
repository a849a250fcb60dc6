"""CI smoke test for the benchmark engine.

Runs a couple of small specs through :func:`repro.engine.run_specs` on a
process pool, then repeats the run against the same cache directory and
asserts that every result is served from the cache — two hits per spec, one
per configuration half — with identical numbers.  A third run under a
different SkipFlow configuration must reuse the cached baseline halves and
the program-store IR blobs while recomputing only the SkipFlow side.
A 3-way matrix (pta, skipflow, skipflow+saturation) over the same specs
must be assembled *entirely* from the halves those earlier runs cached —
every shared half solved exactly once across the whole session — with
numbers identical to the pairwise runs.  A solver-kernel *policy
matrix* (off/allocated-type saturation) checks the policy-aware cache
keying: every policy half is keyed distinctly, the ``off`` column is served
from the halves the first run cached (it *is* the default SkipFlow config),
a repeat run hits every policy half, all policies agree on the fixed
point, and no half decodes a method body (its halves solve in-process,
under a spy on the arena's body decoder).  Finally the *incremental* phase
covers warm re-analysis on the arena kernel over the spec's attached
program store blob: an additive edit resumed from the base fixpoint must
land on the cold fixpoint for strictly fewer steps, the resumed tables
must round-trip through the snapshot store, and a second pass must serve
the snapshot from the store (a hit) over a fresh attach re-extended by
the edit and resume it to the same fixpoint.
Every half the pairwise and matrix phases solve afresh is store-backed (the
cache derives a program store), so each must report that the arena kernel
ran it on the attached blob (``kernel_ran == "arena"``).  The *image* phase
builds one plain generated program under PTA and SkipFlow, as a fresh
native-image build does: both builds must run on the arena kernel, the
program must be lowered exactly once for the two, and both reports must
match the object kernel's PVPG walks.
Exits non-zero (with a message) on any violation, so it can gate CI::

    python benchmarks/ci_smoke.py --jobs 2 --cache-dir .bench-cache
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import traceback
from pathlib import Path

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.engine import (
    ProgramStore,
    ResultCache,
    SnapshotStore,
    run_config_matrix,
    run_specs,
)
from repro.ir.arena import ArenaProgram, freeze, open_program
from repro.workloads.edits import build_edit_delta, default_edit_script
from repro.workloads.generator import generate_benchmark, spec_from_reduction

#: Configuration halves per comparison (baseline + SkipFlow).
HALVES = 2

#: The solver-kernel policy grid of the policy-matrix phase.  The threshold
#: is far above any type-set width the smoke specs produce, so saturation
#: never fires and every column must land on the identical fixed point.
POLICY_SATURATIONS = (("off", None), ("allocated-type", 64))


def _policy_grid():
    """(label, config) pairs; ``off`` is the default SkipFlow config."""
    grid = []
    for saturation, threshold in POLICY_SATURATIONS:
        config = AnalysisConfig.skipflow()
        if threshold is not None:
            config = config.with_saturation_policy(saturation, threshold)
        grid.append((saturation, config))
    return grid


def _smoke_specs():
    return [
        spec_from_reduction(name="smoke-small", suite="smoke",
                            total_methods=80, reduction_percent=12.0),
        spec_from_reduction(name="smoke-medium", suite="smoke",
                            total_methods=160, reduction_percent=8.0),
    ]


def _fresh_halves(rows):
    """(benchmark, column, report) of every half solved rather than cached."""
    for row in rows:
        for run in row.runs:
            if not run.from_cache:
                yield row.benchmark, run.name, run.report


def _policy_matrix_phase(specs, cache_dir: str):
    """The saturation-policy matrix over the store, then its cached re-run.

    Returns ``(failures, rows)``: failure messages (empty = phase green)
    and the first run's rows.  Expects the default SkipFlow halves of
    ``specs`` in ``cache_dir`` already (the first pairwise run stores
    them), since the ``off`` column *is* that config and must be served
    from the cache.  Every other policy half is keyed distinctly and
    solved afresh, a re-run hits every half, and all policies agree on
    the fixed point.  The halves solve in this process, under a spy on
    :meth:`~repro.ir.arena.program.ProgramArena.method_blocks`: a store
    half solves the attached blob, so no half may decode a method body
    (the allocated-type origins come from the arena's allocation-site
    index, not from the bodies).  A half that raises fails the phase.
    """
    from repro.ir.arena.program import ProgramArena

    failures = []
    policy_grid = _policy_grid()
    configs = [config for _, config in policy_grid]
    names = [label for label, _ in policy_grid]
    policy_cache = ResultCache(cache_dir)
    # Drop any pre-existing non-default policy entries (reused --cache-dir)
    # so the hit/miss assertions below are deterministic; the off column
    # is the default SkipFlow config and *must* stay cached.
    for spec in specs:
        for label, config in policy_grid:
            if label == "off":
                continue
            stale = policy_cache.path_for(policy_cache.config_key(spec, config))
            if stale.exists():
                stale.unlink()

    method_blocks = ProgramArena.method_blocks
    decoded = []

    def counting_method_blocks(arena, mid):
        decoded.append(arena.qualified_name(mid))
        return method_blocks(arena, mid)

    ProgramArena.method_blocks = counting_method_blocks
    try:
        policy_matrix = run_config_matrix(specs, configs, names=names,
                                          cache=policy_cache)
        policy_rerun_cache = ResultCache(cache_dir)
        policy_rerun = run_config_matrix(specs, configs, names=names,
                                         cache=policy_rerun_cache)
    except Exception as error:  # a broken half must fail the gate, not crash it
        traceback.print_exc()
        return [f"policy matrix: a half raised {error!r}"], []
    finally:
        ProgramArena.method_blocks = method_blocks
    if decoded:
        failures.append(
            f"policy matrix: store halves decoded {len(decoded)} method "
            f"bodies (first: {decoded[0]}), not 0")

    grid_size = len(policy_grid)
    for spec in specs:
        keys = {policy_cache.config_key(spec, config) for config in configs}
        if len(keys) != grid_size:
            failures.append(
                f"{spec.name}: expected {grid_size} distinct policy cache "
                f"keys, got {len(keys)}")
    expected_policy_misses = (grid_size - 1) * len(specs)
    if (policy_cache.hits != len(specs)
            or policy_cache.misses != expected_policy_misses):
        failures.append(
            f"expected the policy matrix to hit {len(specs)} off halves "
            f"and miss {expected_policy_misses} policy halves, got "
            f"{policy_cache.hits} hits / {policy_cache.misses} misses")
    expected_policy_hits = grid_size * len(specs)
    if (policy_rerun_cache.hits != expected_policy_hits
            or policy_rerun_cache.misses != 0):
        failures.append(
            f"expected the policy re-run to hit all {expected_policy_hits} "
            f"policy halves, got {policy_rerun_cache.hits} hits / "
            f"{policy_rerun_cache.misses} misses")
    for row, rerun_row in zip(policy_matrix, policy_rerun):
        if not row.run("off").from_cache:
            failures.append(
                f"{row.benchmark}: policy matrix re-solved the default "
                f"off half")
        reachable = {run.report.metrics.reachable_methods for run in row.runs}
        if len(reachable) != 1:
            failures.append(
                f"{row.benchmark}: policies disagree on the fixed point "
                f"(reachable methods {sorted(reachable)})")
        # The threshold never fires on the smoke specs, so the off and
        # allocated-type columns are bit-identical.
        off = row.report("off")
        sat = row.report("allocated-type")
        if off.solver_steps != sat.solver_steps or off.metrics != sat.metrics:
            failures.append(
                f"{row.benchmark}: off vs allocated-type columns differ "
                f"although saturation never fired")
        if row.as_dict() != rerun_row.as_dict():
            failures.append(
                f"{row.benchmark}: cached policy result differs from computed")
    return failures, policy_matrix


def _incremental_phase(cache_dir: str) -> list:
    """Warm re-analysis smoke: edit → resume beats cold, snapshots round-trip.

    Returns a list of failure messages (empty = phase green).  The chain
    is the arena kernel's over the spec's attached program store blob, as
    every persisted state is: the edit extends the attached program and
    the tables resume over it.  Uses the engine's program and snapshot
    stores under the shared cache directory, so the GC smoke downstream
    also exercises snapshot files.
    """
    failures = []
    spec = _smoke_specs()[0]
    config = AnalysisConfig.skipflow()
    script = default_edit_script(spec, steps=1)
    programs = ProgramStore(Path(cache_dir) / "programs")

    def attached_and_edited(edited: bool):
        program, _ = programs.attach_or_build(spec)
        if edited:
            build_edit_delta(spec, script.steps[0]).apply_to(
                program, require_monotone=True)
        return program

    snapshots = SnapshotStore(Path(cache_dir) / "snapshots")
    # Drop any entries a previous run against a reused --cache-dir left, so
    # the hit/miss assertions below stay deterministic.
    for prefix in (script.prefix(0), script.prefix(1)):
        path = snapshots.path_for(prefix, config)
        if path.exists():
            path.unlink()

    program = attached_and_edited(False)
    if not isinstance(program, ArenaProgram):
        return [f"{spec.name}: the program store did not attach its blob"]
    cold_base = SkipFlowAnalysis(program, config).run()
    chain = cold_base.arena_state
    snapshots.store(script.prefix(0), config, chain, program)

    build_edit_delta(spec, script.steps[0]).apply_to(
        program, require_monotone=True)
    before = chain.counters()
    warm = SkipFlowAnalysis(program, config, state=chain).run()
    warm_steps = warm.steps - before["steps"]
    cold = SkipFlowAnalysis(attached_and_edited(True), config).run()
    if warm.kernel_ran != "arena" or cold.kernel_ran != "arena":
        failures.append(
            f"{spec.name}: the chain ran on the {warm.kernel_ran} kernel and "
            f"the cold solve on the {cold.kernel_ran} kernel, not the arena")
    if warm.reachable_methods != cold.reachable_methods or \
            sorted(warm.call_edges()) != sorted(cold.call_edges()):
        failures.append(
            f"{spec.name}: resumed fixpoint differs from the cold fixpoint "
            f"after a monotone edit")
    if warm_steps >= cold.steps:
        failures.append(
            f"{spec.name}: warm resume was not cheaper than the cold solve "
            f"({warm_steps} >= {cold.steps} steps)")
    snapshots.store(script.prefix(1), config, warm.arena_state, program)

    # Second pass: the stored snapshot must be a hit over a fresh attach
    # re-extended by the same edit, and resume to the identical fixpoint
    # without extra solver work.
    reread = SnapshotStore(Path(cache_dir) / "snapshots")
    program = attached_and_edited(True)
    restored = reread.load(script.prefix(1), config, program)
    if restored is None or reread.hits != 1 or reread.misses != 0:
        failures.append(
            f"{spec.name}: snapshot store did not serve the stored state "
            f"({reread.hits} hits / {reread.misses} misses)")
        return failures
    resumed_before = restored.counters()
    resumed = SkipFlowAnalysis(program, config, state=restored).run()
    if resumed.steps - resumed_before["steps"] != 0:
        failures.append(
            f"{spec.name}: resuming the stored fixpoint was not a no-op "
            f"({resumed.steps - resumed_before['steps']} steps)")
    if resumed.reachable_methods != cold.reachable_methods:
        failures.append(
            f"{spec.name}: restored snapshot disagrees with the cold fixpoint")
    return failures


def _audit_phase() -> list:
    """Post-solve audits over the policy grid, plus a planted corruption.

    Returns a list of failure messages (empty = phase green).  Every
    saturation policy on every smoke spec must pass the audits on both
    kernels: the object kernel's state on the plain program, and the full
    audits (the arena tables' snapshot round-trip included) on the
    attached freeze.  A deliberately planted corruption must be detected —
    an auditor is only trustworthy if it can fail.
    """
    from repro.checks import audit_state

    failures = []
    for spec in _smoke_specs():
        program = generate_benchmark(spec)
        attached = open_program(freeze(program))
        for label, config in _policy_grid():
            for state, solved_over, full in (
                    (SkipFlowAnalysis(program, config).run().solver_state,
                     program, False),
                    (SkipFlowAnalysis(attached, config).run().arena_state,
                     attached, True)):
                diagnostics = audit_state(state, solved_over, snapshot=full)
                if diagnostics:
                    failures.append(
                        f"{spec.name} [{label} "
                        f"{'arena' if full else 'object'}]: post-solve audit "
                        f"reported {len(diagnostics)} finding(s), first: "
                        f"{diagnostics[0].render()}")

    # Canary: a worklist bit forced back on must trip the residue audit.
    spec = _smoke_specs()[0]
    program = generate_benchmark(spec)
    result = SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
    state = result.solver_state
    next(iter(state.pvpg.all_flows())).in_worklist = True
    planted = audit_state(state, program, snapshot=False)
    if not any(diag.id == "AUD001" for diag in planted):
        failures.append(
            "planted worklist residue was not detected by audit AUD001")
    return failures


def _image_phase() -> list:
    """Two image builds of one plain program share one arena lowering.

    Returns a list of failure messages (empty = phase green).  Counts the
    calls of :func:`repro.ir.arena.lowering.lower` during a PTA and a
    SkipFlow build of one freshly generated program: anything but one call
    means the per-program memo missed (or the builds bypassed it), and a
    build that did not run on the arena kernel means the image builder
    stopped handing the analysis the lowering.  The reports are checked
    against the object kernel's reports of the same program.
    """
    from repro.image.builder import NativeImageBuilder
    from repro.ir.arena import lowering

    failures = []
    spec = _smoke_specs()[0]
    program = generate_benchmark(spec)
    lower = lowering.lower
    lowerings = []

    def counting_lower(target):
        lowerings.append(target)
        return lower(target)

    lowering.lower = counting_lower
    try:
        for config in (AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow()):
            builder = NativeImageBuilder(program, config,
                                         benchmark_name=spec.name)
            report = builder.build()
            if report.result.kernel_ran != "arena":
                failures.append(
                    f"{spec.name} [{config.name}]: image build of a plain "
                    f"program ran on the {report.result.kernel_ran} kernel")
            reference = builder.report(SkipFlowAnalysis(program, config).run())
            if (report.metrics.reachable_methods,
                    report.metrics.counters, report.binary_size_bytes) != (
                    reference.metrics.reachable_methods,
                    reference.metrics.counters, reference.binary_size_bytes):
                failures.append(
                    f"{spec.name} [{config.name}]: the arena image report "
                    f"differs from the object kernel's")
    finally:
        lowering.lower = lower
    if len(lowerings) != 1:
        failures.append(
            f"{spec.name}: two image builds of one program lowered it "
            f"{len(lowerings)} times, not once")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="cache directory (default: a fresh temp dir)")
    args = parser.parse_args(argv)

    specs = _smoke_specs()
    with tempfile.TemporaryDirectory() as tempdir:
        cache_dir = args.cache_dir or tempdir
        first_cache = ResultCache(cache_dir)
        first = run_specs(specs, jobs=args.jobs, cache=first_cache)

        second_cache = ResultCache(cache_dir)
        second = run_specs(specs, jobs=args.jobs, cache=second_cache)

        # Drop any pre-existing entries for the ablation config (the script
        # may run against a reused --cache-dir) so the recompute assertions
        # below are deterministic.
        ablation_config = AnalysisConfig.skipflow().with_saturation_threshold(64)
        ablation_cache = ResultCache(cache_dir)
        for spec in specs:
            stale = ablation_cache.path_for(
                ablation_cache.config_key(spec, ablation_config))
            if stale.exists():
                stale.unlink()
        ablation = run_specs(specs, jobs=args.jobs, cache=ablation_cache,
                             skipflow_config=ablation_config)

        # 3-way matrix over the same specs: every half (pta, skipflow, and
        # the saturated skipflow) was cached by the runs above, so the
        # matrix must recompute nothing.
        matrix_cache = ResultCache(cache_dir)
        matrix = run_config_matrix(
            specs,
            [AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow(),
             ablation_config],
            names=("pta", "skipflow", "skipflow-sat"),
            jobs=args.jobs, cache=matrix_cache)

        policy_failures, policy_matrix = _policy_matrix_phase(specs, cache_dir)

        incremental_failures = _incremental_phase(cache_dir)
        audit_failures = _audit_phase()

    failures = [*policy_failures, *incremental_failures, *audit_failures,
                *_image_phase()]
    expected_hits = HALVES * len(specs)
    if second_cache.hits != expected_hits or second_cache.misses != 0:
        failures.append(
            f"expected {expected_hits} cache hits on the second run, got "
            f"{second_cache.hits} hits / {second_cache.misses} misses")
    for before, after in zip(first, second):
        if not after.from_cache:
            failures.append(f"{after.benchmark}: second run was not served from cache")
        if before.as_dict() != after.as_dict():
            failures.append(f"{after.benchmark}: cached result differs from computed")
    for row in first:
        pta = row.report("PTA").reachable_methods
        skipflow = row.report("SkipFlow").reachable_methods
        if skipflow >= pta:
            failures.append(
                f"{row.benchmark}: SkipFlow did not reduce reachable methods "
                f"({skipflow} >= {pta})")

    # The ablation run varies only the SkipFlow config: every baseline half
    # must come from the cache, every SkipFlow half must be recomputed.
    if ablation_cache.hits != len(specs) or ablation_cache.misses != len(specs):
        failures.append(
            f"expected the ablation run to hit {len(specs)} baseline halves and "
            f"miss {len(specs)} SkipFlow halves, got {ablation_cache.hits} hits / "
            f"{ablation_cache.misses} misses")
    for row in ablation:
        if not row.run("PTA").from_cache:
            failures.append(
                f"{row.benchmark}: ablation run recomputed the shared baseline")
        if row.run("SkipFlow").from_cache:
            failures.append(
                f"{row.benchmark}: ablation run did not recompute SkipFlow")

    # The 3-way matrix shares every half with the earlier runs: each half
    # must have been solved exactly once in this whole session, so the
    # matrix itself is assembled purely from cache hits.
    expected_matrix_hits = 3 * len(specs)
    if matrix_cache.hits != expected_matrix_hits or matrix_cache.misses != 0:
        failures.append(
            f"expected the 3-way matrix to hit all {expected_matrix_hits} "
            f"shared halves, got {matrix_cache.hits} hits / "
            f"{matrix_cache.misses} misses")
    for pairwise, sat, row in zip(first, ablation, matrix):
        if not row.from_cache:
            failures.append(f"{row.benchmark}: 3-way matrix re-solved a shared half")
        if row.names != ("pta", "skipflow", "skipflow-sat"):
            failures.append(f"{row.benchmark}: unexpected matrix columns {row.names}")
        expectations = (
            ("pta", pairwise.report("PTA")),
            ("skipflow", pairwise.report("SkipFlow")),
            ("skipflow-sat", sat.report("SkipFlow")))
        for column, report in expectations:
            if row.report(column).metrics != report.metrics:
                failures.append(
                    f"{row.benchmark}: matrix column {column!r} differs from "
                    f"the pairwise result")

    # Every freshly solved half had a store behind it, so every one must
    # have run on the arena kernel over the attached blob.
    fresh = list(_fresh_halves([*first, *ablation, *matrix, *policy_matrix]))
    if not fresh:
        failures.append("no freshly solved store-backed half to check")
    for benchmark, column, report in fresh:
        if report.kernel_ran != "arena":
            failures.append(
                f"{benchmark} [{column}]: store-backed half ran on the "
                f"{report.kernel_ran} kernel")

    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"smoke ok: {len(specs)} specs, jobs={args.jobs}, "
          f"second run {second_cache.hits}/{expected_hits} half hits, "
          f"ablation reused {ablation_cache.hits} baseline halves, "
          f"3-way matrix reused {matrix_cache.hits}/{expected_matrix_hits} halves, "
          f"{len(fresh)} fresh halves on the arena kernel, "
          f"two image builds on one lowering, "
          f"policy matrix {len(POLICY_SATURATIONS)}x{len(specs)} keyed "
          f"distinctly, re-run from the cache, no method body decoded, "
          f"incremental edit resumed warm + snapshot round-trip, "
          f"post-solve audits clean + planted residue caught")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
