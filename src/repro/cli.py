"""Command-line interface: analyze surface-language source files.

Usage::

    python -m repro analyze app.java --analysis skipflow --entry Main.main
    python -m repro analyze app.java --compare               # PTA vs SkipFlow
    python -m repro analyze app.java --saturation-policy allocated-type \
                                     --saturation-threshold 16
    python -m repro analyze app.java --save-state app.state  # snapshot the solve
    python -m repro analyze app2.java --resume-from app.state  # warm re-analysis
    python -m repro compare app.java cha rta pta skipflow    # N-way ladder
    python -m repro delta app.java app2.java                 # diff + monotone check
    python -m repro callgraph app.java --output graph.dot
    python -m repro pvpg app.java --method Scene.render
    python -m repro bench --scale 1.0 --cache-dir .bench-cache [--gc]
    python -m repro fuzz --seed 7 --cases 50 --out fuzz-artifacts
    python -m repro fuzz --budget 600 --profile deep   # nightly, time-boxed
    python -m repro fuzz --replay fuzz-artifacts/repro-7-3.json
    python -m repro fuzz --smoke                       # oracle self-check

The input is a file in the Java-like surface language of :mod:`repro.lang`;
``bench`` instead lists the synthetic benchmark specs of the evaluation and
the benchmark engine's cache status for each.  Analyses are resolved by name
through the :mod:`repro.api` registry, so newly registered analyzers appear
in ``--analysis`` and ``compare`` without CLI changes.  ``--save-state`` /
``--resume-from`` persist and warm-start solver-state snapshots — one file
holding the program's arena blob plus the arena kernel's tables: resuming
against a program that is not a monotone extension of the saved one
falls back to a cold solve with a warning on stderr (``repro delta`` shows
the diff and the monotonicity verdict ahead of time; it exits 1 when the
edit is non-monotone).  A reader that closes stdout early (``repro bench |
head``) ends any command quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import warnings
from pathlib import Path
from typing import List, Optional

from repro.api import (
    AnalysisSession,
    NoEntryPointError,
    ResumeFallbackWarning,
    available_analyzers,
    available_saturation_policies,
    config_backed_analyzers,
    get_analyzer,
    has_engine_config,
    require_config_analyzer,
)
from repro.api.errors import EXIT_CHECK, exit_code_for
from repro.core.analysis import AnalysisConfig
from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.core.state import SnapshotMismatchError, SolverStateError
from repro.image.builder import NativeImageBuilder
from repro.image.optimizations import collect_optimizations
from repro.image.reflection import ReflectionConfig
from repro.ir.arena import freeze, open_program
from repro.ir.delta import (
    DeltaError,
    NonMonotoneDeltaError,
    delta_between,
    diff_programs,
)
from repro.ir.program import ProgramError
from repro.ir.validate import ValidationError
from repro.lang.api import compile_source
from repro.lang.errors import LangError
from repro.reporting.graphviz import call_graph_to_dot, pvpg_to_dot


def _load_session(args, attach: bool = False) -> AnalysisSession:
    """The session over the compiled source; ``attach`` freezes it first.

    Commands that save, resume or audit a solver state attach the frozen
    program, so the solve runs on the arena kernel, whose tables are the
    persisted state.  The DOT exports stay plain: their node ids differ on
    a graph inflated from the tables.
    """
    program = compile_source(Path(args.source).read_text())
    if args.reflection_config:
        ReflectionConfig.from_file(Path(args.reflection_config)).apply_to(program)
    if attach:
        program = open_program(freeze(program))
    # --entry names become session default roots (validated by
    # resolve_roots, so a misspelling is a clean NoEntryPointError / exit 3)
    # rather than compiled-in entry points (where it would surface as a
    # ProgramError during compilation).
    return AnalysisSession(program, name=args.source, roots=args.entry or None)


def _save_state_file(path: str, session: AnalysisSession, state) -> None:
    """Write one ``--save-state`` file: the program's arena blob plus the
    arena state's tables, so a resume needs nothing else."""
    program = session.program
    Path(path).write_bytes(pickle.dumps(
        {"program": program.arena.to_bytes(), "state": state.to_bytes(program)},
        protocol=pickle.HIGHEST_PROTOCOL))


def _load_state_file(path: str):
    """The saved program, attached, and its arena state's tables over it.

    An unreadable file raises :class:`SolverStateError` (a usage error);
    tables that do not match their own program raise
    :class:`SnapshotMismatchError` (the caller solves cold).
    """
    blob = Path(path).read_bytes()
    try:
        bundle = pickle.loads(blob)
        saved = open_program(bundle["program"])
        tables = bundle["state"]
    except Exception as error:  # unpickling or attaching: any garbage
        raise SolverStateError(
            f"unreadable solver-state snapshot {path}: {error}") from error
    return saved, ArenaSolverState.from_bytes(tables, saved)


def _selected_analysis(args) -> str:
    """The requested analyzer name (``--analysis``, legacy ``--config``)."""
    if args.analysis and args.config and args.analysis != args.config:
        raise ValueError(
            f"conflicting flags: --analysis {args.analysis} and --config "
            f"{args.config}; --config is a deprecated alias of --analysis, "
            f"pass only one")
    return args.analysis or args.config or "skipflow"


def _policy_options(args) -> dict:
    """The solver-kernel options of the shared CLI flags (set flags only)."""
    options = {}
    if args.saturation_threshold is not None:
        options["saturation_threshold"] = args.saturation_threshold
    if args.saturation_policy is not None:
        options["saturation_policy"] = args.saturation_policy
    return options


def _engine_result(session: AnalysisSession, args, purpose: str):
    """Run the selected config-backed analysis; returns the AnalysisResult."""
    name = _selected_analysis(args)
    require_config_analyzer(name, purpose=purpose)
    report = session.run(name, **_policy_options(args))
    return report.raw


def _write_output(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text)
    else:
        print(text)


def _print_build_report(session: AnalysisSession, config: AnalysisConfig,
                        args) -> None:
    report = NativeImageBuilder(session.program, config,
                                benchmark_name=args.source).build(
                                    session.resolve_roots())
    metrics = report.metrics
    print(f"[{config.name}]")
    print(f"  reachable methods:  {metrics.reachable_methods}")
    print(f"  type checks:        {metrics.type_checks}")
    print(f"  null checks:        {metrics.null_checks}")
    print(f"  primitive checks:   {metrics.primitive_checks}")
    print(f"  poly calls:         {metrics.poly_calls}")
    print(f"  binary size:        {report.binary_size_megabytes:.2f} MB")
    print(f"  analysis time:      {report.analysis_time_seconds * 1000:.1f} ms")
    if args.optimizations:
        summary = collect_optimizations(report.result).summary()
        print(f"  optimization opportunities: {summary}")
    if args.list_unreachable:
        analyzed = set(report.result.reachable_methods)
        dead = sorted(set(session.program.methods) - analyzed)
        print(f"  unreachable methods ({len(dead)}):")
        for name in dead:
            print(f"    {name}")


def _print_audit(result, *, warm_barrier: int = 0) -> int:
    """Audit an analysis result and print the findings; the gate exit code.

    Returns 0 when the audits are clean (or merely advisory) and
    ``EXIT_CHECK`` when any error-severity finding survives — an artifact
    that failed its own audit must not exit 0.
    """
    from repro.checks import audit_result, has_errors, render_text

    diagnostics = audit_result(result, warm_barrier=warm_barrier)
    if not diagnostics:
        print("  audit:              clean (all post-solve audits passed)")
        return 0
    print(render_text(diagnostics, title="  audit findings:"))
    return EXIT_CHECK if has_errors(diagnostics) else 0


def _print_call_graph_report(session: AnalysisSession, name: str,
                             args, report=None) -> None:
    # Passing set kernel flags through (even for CHA/RTA) means an
    # unsupported sweep errors out loudly instead of printing unchanged
    # numbers.
    if report is None:
        report = session.run(name, **_policy_options(args))
    print(f"[{report.analyzer}]")
    print(f"  reachable methods:  {report.reachable_method_count}")
    print(f"  call edges:         {report.call_edge_count}")
    print(f"  stub methods:       {len(report.stub_methods)}")
    print(f"  analysis time:      {report.analysis_time_seconds * 1000:.1f} ms")
    if args.list_unreachable:
        dead = sorted(set(session.program.methods) - set(report.reachable_methods))
        print(f"  unreachable methods ({len(dead)}):")
        for method in dead:
            print(f"    {method}")


def _analyze_with_state(session: AnalysisSession, args) -> int:
    """``analyze --resume-from/--save-state``: warm runs over snapshots.

    Runs through the session (not the image builder): the point of a
    snapshot is the solver state, so the output is the call-graph report
    plus the cumulative solver counters, and the mode line says whether the
    solve actually resumed or fell back cold (the fallback reasons go to
    stderr either way).  A resume attaches the saved program, extends it
    by the structural diff to the current source
    (:func:`~repro.ir.delta.delta_between`) and resumes the saved tables
    over it; a diff that is not monotone, or tables that do not match,
    solve the current source cold.
    """
    name = _selected_analysis(args)
    require_config_analyzer(name, purpose="solver-state snapshots")
    resume_state = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResumeFallbackWarning)
        if args.resume_from:
            # A readable snapshot this program cannot take is as loud and
            # as cold as a resume the session refuses.
            refused = None
            try:
                saved, resume_state = _load_state_file(args.resume_from)
                delta = delta_between(saved, session.program,
                                      name=args.source)
            except SnapshotMismatchError as error:
                refused = str(error)
            except NonMonotoneDeltaError as error:
                refused = ("the program is not a monotone extension of the "
                           "saved one: " + "; ".join(error.reasons))
            if refused is not None:
                resume_state = None
                warnings.warn(f"falling back to a cold solve: {refused}",
                              ResumeFallbackWarning)
            else:
                session = AnalysisSession(saved, name=session.name,
                                          roots=args.entry or None)
                if not delta.is_empty:
                    session.update(delta)
        report = session.run(name, resume=resume_state,
                             **_policy_options(args))
    fallbacks = [str(entry.message) for entry in caught
                 if issubclass(entry.category, ResumeFallbackWarning)]
    for message in fallbacks:
        print(f"repro analyze: {message}", file=sys.stderr)
    if args.resume_from:
        mode = "cold (resume fell back)" if fallbacks else "warm (resumed)"
    else:
        mode = "cold"
    stats = report.solver_stats
    print(f"[{report.analyzer}]")
    print(f"  mode:               {mode}")
    print(f"  reachable methods:  {report.reachable_method_count}")
    print(f"  call edges:         {report.call_edge_count}")
    print(f"  solver steps:       {stats.steps} (cumulative across resumes)")
    print(f"  solver joins:       {stats.joins}")
    print(f"  analysis time:      {report.analysis_time_seconds * 1000:.1f} ms")
    if args.save_state:
        _save_state_file(args.save_state, session, report.raw.arena_state)
        print(f"  saved state:        {args.save_state}")
    if args.audit:
        return _print_audit(report.raw, warm_barrier=session.warm_barrier)
    return 0


def _cmd_analyze(args) -> int:
    session = _load_session(
        args, attach=bool(args.save_state or args.resume_from or args.audit))
    if args.audit and (args.json or args.compare or args.optimizations):
        raise ValueError(
            "--audit cannot be combined with --json/--compare/"
            "--optimizations; use `repro check --audit` for machine-readable "
            "diagnostics")
    if args.json:
        incompatible = next(
            (flag for flag, value in (
                ("--compare", args.compare),
                ("--optimizations", args.optimizations),
                ("--list-unreachable", args.list_unreachable),
                ("--save-state", args.save_state),
                ("--resume-from", args.resume_from))
             if value), None)
        if incompatible:
            raise ValueError(
                f"--json cannot be combined with {incompatible}")
        # The same versioned serializer the analysis daemon answers with:
        # one wire format for the CLI, the engine, and the service.
        report = session.run(_selected_analysis(args), **_policy_options(args))
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    if args.resume_from or args.save_state:
        if args.compare:
            raise ValueError(
                "--compare cannot be combined with --resume-from/--save-state "
                "(one snapshot backs one configuration)")
        return _analyze_with_state(session, args)
    if args.audit:
        # --audit runs through the session: the audits verify the solver
        # state, which the image-builder path does not expose.  The output
        # is the call-graph report plus the audit verdict.
        name = _selected_analysis(args)
        report = session.run(name, **_policy_options(args))
        _print_call_graph_report(session, name, args, report=report)
        return _print_audit(report.raw)
    if args.compare:
        # ConfigAnalyzer.config is the one place that applies kernel knobs
        # to an engine configuration; the CLI only collects the flags.
        for name in ("pta", "skipflow"):
            config = get_analyzer(name).config(**_policy_options(args))
            _print_build_report(session, config, args)
        return 0
    name = _selected_analysis(args)
    analyzer = get_analyzer(name)
    if not has_engine_config(analyzer):
        if args.optimizations:
            raise ValueError(
                f"--optimizations needs a propagation-engine analysis, not "
                f"{analyzer.name!r}; use one of: "
                f"{', '.join(config_backed_analyzers())}")
        _print_call_graph_report(session, name, args)
        return 0
    config = analyzer.config(**_policy_options(args))
    _print_build_report(session, config, args)
    return 0


def _cmd_compare(args) -> int:
    session = _load_session(args)
    # Routed per analyzer by the session: engine-backed columns get the
    # kernel knobs, CHA/RTA columns (which have no engine) are unaffected.
    comparison = session.compare(args.analyses, **_policy_options(args))
    print(comparison.table())
    if not comparison.is_monotone_precision_ladder():
        print("note: reachable methods are not monotone in the given order "
              "(columns are not a precision ladder)", file=sys.stderr)
    return 0


def _cmd_delta(args) -> int:
    """Diff two source files structurally and report monotonicity.

    Exit code 0 means the new program is a monotone extension of the old
    one (a snapshot of the old program can be warm-resumed over the new);
    exit code 1 means it is not, and the violations say why.
    """
    old_program = compile_source(Path(args.old).read_text())
    new_program = compile_source(Path(args.new).read_text())
    delta = diff_programs(old_program, new_program)
    introduced = []
    if args.check:
        # Lint both sides and report only what the edit *introduced*: a
        # finding whose key (id@anchor) already existed in the old program
        # is pre-existing noise, not a regression of this edit.
        from repro.checks import lint_program, sort_diagnostics

        old_keys = {diag.key for diag in lint_program(old_program)}
        introduced = sort_diagnostics(
            diag for diag in lint_program(new_program)
            if diag.key not in old_keys)
    if args.json:
        payload = {
            "monotone": delta.is_monotone,
            "added_classes": list(delta.added_classes),
            "added_methods": list(delta.added_methods),
            "added_fields": list(delta.added_fields),
            "added_entry_points": list(delta.added_entry_points),
            "violations": list(delta.violations),
        }
        if args.check:
            payload["new_diagnostics"] = [diag.to_dict()
                                          for diag in introduced]
        print(json.dumps(payload, indent=2))
        return 0 if delta.is_monotone else 1
    print(f"delta {args.old} -> {args.new}: {delta.summary()}")
    for label, names in (("classes", delta.added_classes),
                         ("methods", delta.added_methods),
                         ("fields", delta.added_fields),
                         ("entry points", delta.added_entry_points)):
        if names:
            print(f"  added {label}:")
            for name in names:
                print(f"    + {name}")
    if delta.violations:
        print("  violations (warm resume would be unsound):")
        for violation in delta.violations:
            print(f"    ! {violation}")
    if args.check:
        if introduced:
            print(f"  new diagnostics introduced by the edit "
                  f"({len(introduced)}):")
            for diag in introduced:
                print(f"    * {diag.render()}")
        else:
            print("  new diagnostics introduced by the edit: none")
    return 0 if delta.is_monotone else 1


def _cmd_check(args) -> int:
    """Static diagnostics (``repro check``): lint passes, optional audit.

    The lint passes run over the compiled program; with ``--audit`` the
    selected analysis also runs and its artifacts go through the post-solve
    audits (including the snapshot round-trip).  Exit code 0 when no
    error-severity finding survives the baseline; with ``--strict``, any
    surviving finding fails the gate (exit ``EXIT_CHECK``).
    """
    from repro.checks import (
        Baseline,
        CheckContext,
        audit_result,
        available_checks,
        diagnostics_to_dict,
        has_errors,
        render_text,
        run_checks,
        sort_diagnostics,
    )

    if args.list:
        for check in available_checks():
            ids = ", ".join(check.ids)
            print(f"{check.kind:<6} {check.name:<22} {ids:<14} "
                  f"{check.description}")
        return 0
    if not args.source:
        raise ValueError("a source file is required unless --list is given")
    session = _load_session(args, attach=args.audit)
    baseline = Baseline.from_file(args.baseline) if args.baseline else None
    try:
        roots = tuple(session.resolve_roots())
    except NoEntryPointError:
        # Unresolvable roots are a finding here, not a crash: hand the raw
        # names to the roots lint so it reports them by id.
        roots = tuple(args.entry or ())
    diagnostics = run_checks(
        CheckContext(program=session.program, roots=roots),
        kind="lint", baseline=baseline)
    if args.audit:
        report = session.run(_selected_analysis(args),
                             **_policy_options(args))
        audits = audit_result(report.raw)
        if baseline is not None:
            audits, _ = baseline.apply(audits)
        diagnostics = sort_diagnostics(list(diagnostics) + list(audits))
    if args.json:
        print(json.dumps(diagnostics_to_dict(diagnostics), indent=2,
                         sort_keys=True))
    else:
        print(render_text(diagnostics, title=f"repro check: {args.source}"))
    if has_errors(diagnostics) or (args.strict and diagnostics):
        return EXIT_CHECK
    return 0


def _cmd_callgraph(args) -> int:
    session = _load_session(args)
    result = _engine_result(session, args, purpose="the call-graph export")
    _write_output(call_graph_to_dot(result), args.output)
    return 0


def _cmd_pvpg(args) -> int:
    session = _load_session(args)
    result = _engine_result(session, args, purpose="the PVPG export")
    _write_output(pvpg_to_dot(result, args.method or None), args.output)
    return 0


def _cmd_serve(args) -> int:
    """Run the analysis daemon in the foreground (``repro serve``).

    Sessions are held by one :class:`~repro.service.manager.SessionManager`
    for the life of the process; clients talk JSON over HTTP (see
    ``docs/service.md`` and :mod:`repro.service.client`).  ``--port 0``
    picks a free port and prints it, which is what the CI smoke uses.
    """
    from repro.service import SessionManager, make_server, run_server

    manager = SessionManager(max_live_sessions=args.max_sessions,
                             spill_dir=args.spill_dir or None)
    server = make_server(manager, host=args.host, port=args.port)
    host, port = server.server_address
    print(f"repro serve: listening on http://{host}:{port} "
          f"(max {args.max_sessions} live sessions, spill dir "
          f"{manager.spill_dir})", flush=True)
    run_server(server)
    return 0


def _cmd_bench(args) -> int:
    """List the benchmark specs of the evaluation with engine cache status.

    The cache column reflects the engine's per-configuration entries: ``hit``
    means both halves of the comparison (baseline and SkipFlow) are cached,
    ``base``/``skip`` that only that half is, ``miss`` that neither is.  The
    ``ir`` column says whether the spec's arena blob is in the shared
    program store under the cache directory (``yes``/``no``).  ``--gc``
    first drops result entries, IR blobs, and solver-state snapshots
    written by other code versions.
    """
    from repro.engine import ProgramStore, ResultCache, SnapshotStore
    from repro.engine.scheduler import estimated_cost
    from repro.workloads.suites import extended_suites, suite_by_name

    if args.suite:
        try:
            suites = {args.suite: suite_by_name(args.suite, scale=args.scale)}
        except KeyError as error:
            print(f"repro bench: {error.args[0]}", file=sys.stderr)
            return 2
    else:
        suites = extended_suites(scale=args.scale)

    baseline = AnalysisConfig.baseline_pta()
    skipflow = AnalysisConfig.skipflow()
    if args.saturation_threshold is not None:
        baseline = baseline.with_saturation_threshold(args.saturation_threshold)
        skipflow = skipflow.with_saturation_threshold(args.saturation_threshold)
    cache = store = snapshots = None
    if args.cache_dir:
        cache = ResultCache(args.cache_dir)
        store = ProgramStore(cache.directory / "programs",
                             code_version=cache.code_version)
        snapshots = SnapshotStore(cache.directory / "snapshots",
                                  code_version=cache.code_version)
    if args.gc:
        if cache is None:
            print("repro bench: --gc needs --cache-dir", file=sys.stderr)
            return 2
        stores = (cache, store, snapshots)
        stale_results, stale_blobs, stale_snapshots = [
            each.gc() for each in stores]
        reclaimed = sum(each.last_gc_bytes for each in stores)
        print(f"gc: removed {stale_results} stale result entries, "
              f"{stale_blobs} stale IR blobs, and {stale_snapshots} "
              f"stale snapshots from {cache.directory} "
              f"(kept code version {cache.code_version}; "
              f"reclaimed {reclaimed} bytes)")

    header = (f"{'suite':<14} {'benchmark':<28} {'methods':>7} {'guarded':>7} "
              f"{'cost':>8}  {'cache':<5} ir")
    print(header)
    print("-" * len(header))
    cached = total = 0
    for suite_name, specs in suites.items():
        for spec in specs:
            total += 1
            if cache is None:
                status, ir_status = "-", "-"
            else:
                base_half = cache.contains(cache.config_key(spec, baseline))
                skip_half = cache.contains(cache.config_key(spec, skipflow))
                if base_half and skip_half:
                    status = "hit"
                    cached += 1
                elif base_half:
                    status = "base"
                elif skip_half:
                    status = "skip"
                else:
                    status = "miss"
                ir_status = "yes" if store.contains(spec) else "no"
            print(f"{suite_name:<14} {spec.name:<28} "
                  f"{spec.expected_total_methods:>7} {spec.guarded_methods:>7} "
                  f"{estimated_cost(spec):>8.0f}  {status:<5} {ir_status}")
    if cache is not None:
        print(f"\n{cached}/{total} specs fully cached in {cache.directory} "
              f"(code version {cache.code_version})")
    else:
        print(f"\n{total} specs; pass --cache-dir to check cache status")
    return 0


def _cmd_fuzz(args) -> int:
    """Differential fuzzing (``repro fuzz``): see ``docs/fuzzing.md``.

    Three modes: a campaign (``--cases`` or ``--budget``) that generates
    seeded random (program, edit script) cases and checks every analyzer
    against the concrete interpreter across the full saturation ×
    warm/cold matrix; ``--replay FILE`` to rerun one recorded
    repro file; ``--smoke`` to verify the oracle catches (and shrinks) a
    deliberately broken analyzer.  Exit code 1 means violations were found
    (or, under ``--smoke``, that the oracle failed its self-check).
    """
    from repro.fuzz import (
        check_case,
        load_repro,
        run_campaign,
        run_mutation_smoke,
        violations_from_dict,
    )

    if args.smoke:
        report, original, shrunk = run_mutation_smoke(seed=args.seed)
        print(f"repro fuzz: mutation smoke caught "
              f"{len(report.violations)} violation(s) from the planted "
              f"analyzer bug and shrank the case from "
              f"{original.base.expected_total_methods} to "
              f"{shrunk.base.expected_total_methods} methods")
        return 0

    if args.replay:
        script, meta = load_repro(Path(args.replay))
        recorded = violations_from_dict(meta)
        threshold = args.threshold
        if threshold is None:
            threshold = meta.get("threshold") or 4
        report = check_case(script, threshold=threshold)
        print(f"repro fuzz: replayed {args.replay} "
              f"({report.prefixes_checked} prefixes, "
              f"{report.combos_checked} combos; "
              f"{len(recorded)} recorded violation(s))")
        for violation in report.violations:
            print(f"  {violation}")
        if report.ok:
            print("  no violations — the recorded failure no longer "
                  "reproduces on this build")
            return 0
        return 1

    if args.cases is not None and args.budget is not None:
        raise ValueError("pass --cases or --budget, not both")
    cases = args.cases if args.budget is None else None
    if cases is None and args.budget is None:
        cases = 25
    result = run_campaign(
        seed=args.seed, cases=cases, budget_seconds=args.budget,
        profile=args.profile, threshold=args.threshold or 4,
        out_dir=Path(args.out) if args.out else None,
        shrink=not args.no_shrink,
        log=lambda message: print(f"repro fuzz: {message}", flush=True))
    print(f"repro fuzz: seed {result.seed}, profile {result.profile}: "
          f"{result.cases_run} cases, {result.prefixes_checked} prefixes, "
          f"{result.combos_checked} analyzer combos in "
          f"{result.duration_seconds:.1f}s — "
          f"{len(result.failures)} failure(s)")
    for failure in result.failures:
        where = f" -> {failure.repro_path}" if failure.repro_path else ""
        print(f"  case {failure.case_index}: "
              f"{len(failure.report.violations)} violation(s){where}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, analysis_flags=True):
        sub.add_argument("source", help="surface-language source file")
        sub.add_argument("--entry", action="append",
                         help="entry point (Class.method); may be repeated")
        if analysis_flags:
            sub.add_argument("--analysis", choices=available_analyzers(),
                             default=None,
                             help="registered analysis to run "
                                  "(default: skipflow)")
            sub.add_argument("--config", choices=sorted(
                                 config_backed_analyzers()),
                             default=None,
                             help="deprecated alias of --analysis (engine "
                                  "configurations only)")
        sub.add_argument("--reflection-config",
                         help="JSON reflection configuration file")
        add_policy_flags(sub)

    def add_policy_flags(sub):
        sub.add_argument("--saturation-threshold", type=int, default=None,
                         help="saturate flows whose type set exceeds this size "
                              "(default: off, exact paper semantics)")
        sub.add_argument("--saturation-policy", default=None,
                         choices=available_saturation_policies(),
                         help="sentinel a saturated flow collapses to "
                              "(needs --saturation-threshold; default: "
                              "allocated-type once a threshold is set)")

    analyze = subparsers.add_parser("analyze", help="run the analysis and print metrics")
    add_common(analyze)
    analyze.add_argument("--json", action="store_true",
                         help="print the full report as versioned JSON (the "
                              "same wire schema the analysis daemon serves)")
    analyze.add_argument("--compare", action="store_true",
                         help="run both the PTA baseline and SkipFlow")
    analyze.add_argument("--optimizations", action="store_true",
                         help="print optimization opportunities")
    analyze.add_argument("--list-unreachable", action="store_true",
                         help="list methods proven unreachable")
    analyze.add_argument("--save-state", metavar="PATH",
                         help="write the program and its solver-state "
                              "snapshot after the solve (for later "
                              "--resume-from)")
    analyze.add_argument("--resume-from", metavar="PATH",
                         help="warm-start from a solver-state snapshot; "
                              "falls back to a cold solve (with a warning) "
                              "when the program is not a monotone extension "
                              "of the snapshotted one")
    analyze.add_argument("--audit", action="store_true",
                         help="run the post-solve audits over the result "
                              "and fail (exit 7) on any error finding")
    analyze.set_defaults(func=_cmd_analyze)

    check = subparsers.add_parser(
        "check", help="static diagnostics: IR lint passes and post-solve "
                      "audits")
    check.add_argument("source", nargs="?", default=None,
                       help="surface-language source file (omit with --list)")
    check.add_argument("--entry", action="append",
                       help="entry point (Class.method); may be repeated")
    check.add_argument("--analysis", choices=available_analyzers(),
                       default=None,
                       help="analysis audited under --audit "
                            "(default: skipflow)")
    check.add_argument("--reflection-config",
                       help="JSON reflection configuration file")
    add_policy_flags(check)
    check.add_argument("--audit", action="store_true",
                       help="also run the selected analysis and audit its "
                            "artifacts (solver state + snapshot round-trip)")
    check.add_argument("--json", action="store_true",
                       help="print diagnostics as JSON (the same shape the "
                            "daemon's /v1/check endpoint serves)")
    check.add_argument("--baseline", metavar="FILE",
                       help="JSON suppression file of expected finding keys")
    check.add_argument("--strict", action="store_true",
                       help="fail on any surviving finding, not just errors")
    check.add_argument("--list", action="store_true",
                       help="list the registered checks and their ids")
    check.set_defaults(func=_cmd_check, config=None)

    compare = subparsers.add_parser(
        "compare", help="compare N named analyses over one program")
    compare.add_argument("source", help="surface-language source file")
    compare.add_argument("analyses", nargs="*",
                         default=["cha", "rta", "pta", "skipflow"],
                         help="analyses to compare, least precise first "
                              "(default: the cha rta pta skipflow ladder)")
    compare.add_argument("--entry", action="append",
                         help="entry point (Class.method); may be repeated")
    compare.add_argument("--reflection-config",
                         help="JSON reflection configuration file")
    add_policy_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    delta = subparsers.add_parser(
        "delta", help="diff two sources and check monotonicity for resume")
    delta.add_argument("old", help="the previously analyzed source file")
    delta.add_argument("new", help="the edited source file")
    delta.add_argument("--json", action="store_true",
                       help="print the delta as JSON")
    delta.add_argument("--check", action="store_true",
                       help="run the lint passes on both sides and report "
                            "diagnostics the edit introduced")
    delta.set_defaults(func=_cmd_delta)

    callgraph = subparsers.add_parser("callgraph", help="export the call graph as DOT")
    add_common(callgraph)
    callgraph.add_argument("--output", help="write DOT to this file")
    callgraph.set_defaults(func=_cmd_callgraph)

    pvpg = subparsers.add_parser("pvpg", help="export predicated value propagation graphs as DOT")
    add_common(pvpg)
    pvpg.add_argument("--method", action="append",
                      help="restrict to this method (may be repeated)")
    pvpg.add_argument("--output", help="write DOT to this file")
    pvpg.set_defaults(func=_cmd_pvpg)

    bench = subparsers.add_parser(
        "bench", help="list benchmark specs and engine cache status")
    bench.add_argument("--scale", type=float, default=2.0,
                       help="synthetic methods per thousand paper-reported methods")
    bench.add_argument("--suite", type=str, default=None,
                       help="restrict to one suite (DaCapo, Microservices, "
                            "Renaissance, WideHierarchy)")
    bench.add_argument("--cache-dir", type=str, default=None,
                       help="benchmark engine cache directory to inspect")
    bench.add_argument("--saturation-threshold", type=int, default=None,
                       help="cache status for configs with this saturation threshold")
    bench.add_argument("--gc", action="store_true",
                       help="drop result entries, IR blobs and solver-state "
                            "snapshots from old code versions (needs "
                            "--cache-dir)")
    bench.set_defaults(func=_cmd_bench)

    serve = subparsers.add_parser(
        "serve", help="run the analysis daemon (analysis-as-a-service)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="bind port; 0 picks a free port and prints it "
                            "(default: 8321)")
    serve.add_argument("--max-sessions", type=int, default=8,
                       help="live sessions kept in memory before LRU "
                            "eviction to the spill directory (default: 8)")
    serve.add_argument("--spill-dir", default=None,
                       help="directory for evicted programs and solver "
                            "states (default: a per-process temp dir)")
    serve.set_defaults(func=_cmd_serve)

    fuzz = subparsers.add_parser(
        "fuzz", help="differential fuzzing: interpreter as soundness oracle")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; the case stream is a pure "
                           "function of it (default: 0)")
    fuzz.add_argument("--cases", type=int, default=None,
                      help="number of cases to run (default: 25 unless "
                           "--budget is given)")
    fuzz.add_argument("--budget", type=float, default=None,
                      help="wall-clock budget in seconds; runs cases until "
                           "it is spent (nightly mode)")
    fuzz.add_argument("--profile", choices=("quick", "deep"),
                      default="quick",
                      help="case size profile (default: quick)")
    fuzz.add_argument("--threshold", type=int, default=None,
                      help="saturation threshold swept by the oracle "
                           "(default: 4, low enough that small cases "
                           "saturate)")
    fuzz.add_argument("--out", default=None,
                      help="directory for shrunk repro files, one JSON per "
                           "failing case")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="record failing cases as generated, without "
                           "minimizing them first")
    fuzz.add_argument("--replay", metavar="FILE", default=None,
                      help="re-run one recorded repro file instead of a "
                           "campaign")
    fuzz.add_argument("--smoke", action="store_true",
                      help="mutation smoke: verify the oracle catches a "
                           "deliberately broken analyzer")
    fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Inside the try: a closed pipe often surfaces only at the flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``repro bench | head``): send what is still
        # buffered to devnull so the exit flush cannot fail again, and exit
        # without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (NoEntryPointError, ProgramError, LangError, DeltaError,
            ValidationError, ValueError) as error:
        # Unknown analysis names arrive as UnknownAnalyzerError, a ValueError
        # subclass — a genuine internal KeyError still produces a traceback.
        # The exit code reflects the failure class (see repro.api.errors):
        # 2 usage, 3 no entry point, 4 compile/validation error, 5 delta,
        # 6 session, 7 failed diagnostics gate.
        print(f"repro: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":
    sys.exit(main())
