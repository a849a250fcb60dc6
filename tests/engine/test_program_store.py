"""The shared program store: round-trip determinism and engine integration."""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.engine import ProgramStore, ResultCache, program_store, run_config_matrix, run_specs
from repro.engine.runner import _WORKER_PROGRAMS, _report_payload, solve_config
from repro.ir.arena import ArenaProgram
from repro.workloads.generator import generate_benchmark, spec_from_reduction
from repro.workloads.suites import dacapo_suite, wide_hierarchy_suite


def _spec(name="store-spec", total=90):
    return spec_from_reduction(name=name, suite="test",
                               total_methods=total, reduction_percent=10.0)


#: Blobs ``attach`` must read as misses.
CORRUPT_ARENAS = [
    pytest.param(b"not an arena", id="garbage"),
    pytest.param(b"RPRA" + b"\x00" * 4, id="truncated-header"),
    pytest.param(b"RPRA\x63\x00\x00\x00" + b"\x00" * 16, id="foreign-version"),
    pytest.param(b"", id="empty"),
]


def _stable(result):
    return {key: value for key, value in result.as_dict().items()
            if "time" not in key}


class TestRoundTrip:
    def test_first_load_builds_and_stores(self, tmp_path):
        store = ProgramStore(tmp_path)
        program, from_store = store.load_or_build(_spec())
        assert not from_store
        assert (store.hits, store.misses) == (0, 1)
        assert store.contains(_spec())
        assert program.has_method("Main.main")

    def test_second_load_comes_from_store(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        _, from_store = store.load_or_build(_spec())
        assert from_store
        assert (store.hits, store.misses) == (1, 1)

    def test_roundtrip_analysis_is_bit_identical(self, tmp_path):
        """Solving a thawed program matches a freshly generated one exactly."""
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        stored = store.load(_spec())
        fresh = generate_benchmark(_spec())
        for config in (AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow()):
            from_store = SkipFlowAnalysis(store.load(_spec()), config).run()
            from_fresh = SkipFlowAnalysis(generate_benchmark(_spec()), config).run()
            assert from_store.reachable_methods == from_fresh.reachable_methods
            assert from_store.steps == from_fresh.steps
            assert from_store.stats.joins == from_fresh.stats.joins
            assert from_store.stats.transfers == from_fresh.stats.transfers
        assert sorted(stored.methods) == sorted(fresh.methods)

    def test_loads_are_isolated_object_graphs(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        first = store.load(_spec())
        second = store.load(_spec())
        assert not isinstance(first, ArenaProgram)
        assert first is not second
        assert first.hierarchy is not second.hierarchy
        assert first.methods["Main.main"] is not second.methods["Main.main"]

    @pytest.mark.parametrize("blob", CORRUPT_ARENAS)
    def test_corrupt_blob_is_rebuilt(self, tmp_path, blob):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        store.path_for(_spec()).write_bytes(blob)
        program, from_store = store.load_or_build(_spec())
        assert not from_store
        assert program.has_method("Main.main")

    def test_code_version_isolates_blobs(self, tmp_path):
        old = ProgramStore(tmp_path, code_version="aaaa")
        new = ProgramStore(tmp_path, code_version="bbbb")
        old.load_or_build(_spec())
        assert old.contains(_spec())
        assert not new.contains(_spec())

    def test_clear_removes_blobs(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        assert store.clear() == 1
        assert store.last_gc_bytes > 0
        assert not store.contains(_spec())
        assert store.attach(_spec()) is None


class TestEngineIntegration:
    def test_cache_run_populates_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_specs([_spec()], cache=cache)
        store = ProgramStore(tmp_path / "programs",
                             code_version=cache.code_version)
        assert store.contains(_spec())

    def test_sibling_half_reuses_stored_program(self, tmp_path):
        """Within one run, the second configuration loads the first's blob."""
        store = ProgramStore(tmp_path)
        first = solve_config(_spec(), AnalysisConfig.baseline_pta(), store)
        second = solve_config(_spec(), AnalysisConfig.skipflow(), store)
        assert not first["program_from_store"]
        assert second["program_from_store"]
        assert (store.hits, store.misses) == (1, 1)

    def test_second_engine_run_loads_ir_from_store(self, tmp_path):
        """A later run of the same spec skips program generation entirely."""
        cache = ResultCache(tmp_path)
        run_specs([_spec()], cache=cache)
        store = ProgramStore(tmp_path / "programs",
                             code_version=cache.code_version)
        # A configuration the result cache has not seen forces a solve, which
        # must take its program from the store.
        payload = solve_config(
            _spec(), AnalysisConfig.skipflow().with_saturation_threshold(64),
            store)
        assert payload["program_from_store"]
        assert store.hits == 1

    def test_store_results_bit_identical_to_cold_run(self, tmp_path):
        """Store-backed engine results match a run without any cache/store."""
        cold = run_specs([_spec()])
        cache = ResultCache(tmp_path)
        run_specs([_spec()], cache=cache)  # populates store + result cache
        warm_cache = ResultCache(tmp_path)
        warm = run_specs([_spec()], cache=warm_cache)
        assert warm[0].from_cache
        assert _stable(cold[0]) == _stable(warm[0])

    def test_explicit_store_without_cache(self, tmp_path):
        store = ProgramStore(tmp_path)
        results = run_specs([_spec()], program_store=store)
        assert store.misses == 1
        assert _stable(results[0]) == _stable(run_specs([_spec()])[0])

    def test_parallel_run_with_store_matches_serial(self, tmp_path):
        specs = [_spec(name=f"store-par-{i}", total=60 + 20 * i) for i in range(3)]
        serial = run_specs(specs, jobs=1)
        cache = ResultCache(tmp_path)
        parallel = run_specs(specs, jobs=4, cache=cache)
        assert [_stable(r) for r in serial] == [_stable(r) for r in parallel]

    def test_roundtrip_preserves_solver_steps(self, tmp_path):
        """Engine payloads solved over stored IR carry identical step counts."""
        store = ProgramStore(tmp_path)
        config = AnalysisConfig.skipflow()
        cold = solve_config(_spec(), config)
        store.load_or_build(_spec())
        warm = solve_config(_spec(), config, store)
        assert warm["program_from_store"]
        assert warm["report"]["solver_steps"] == cold["report"]["solver_steps"]
        assert warm["report"]["solver_joins"] == cold["report"]["solver_joins"]
        assert (warm["report"]["reachable_methods"]
                == cold["report"]["reachable_methods"])


class TestArenaAttach:
    def test_store_writes_the_arena_blob(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        assert store.path_for(_spec()).suffix == ".arena"
        assert [path.name for path in tmp_path.iterdir()] == [
            store.path_for(_spec()).name]

    def test_attach_returns_arena_program(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        attached = store.attach(_spec())
        assert isinstance(attached, ArenaProgram)
        assert attached.has_method("Main.main")

    def test_attach_or_build_prefers_the_arena(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        program, from_store = store.attach_or_build(_spec())
        assert from_store
        assert isinstance(program, ArenaProgram)

    def test_attach_or_build_stores_and_attaches_on_a_miss(self, tmp_path):
        store = ProgramStore(tmp_path)
        program, from_store = store.attach_or_build(_spec())
        assert not from_store
        assert (store.hits, store.misses) == (0, 1)
        assert isinstance(program, ArenaProgram)
        assert store.contains(_spec())

    @pytest.mark.parametrize("blob", CORRUPT_ARENAS)
    def test_corrupt_arena_is_a_miss(self, tmp_path, blob):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        store.path_for(_spec()).write_bytes(blob)
        assert store.attach(_spec()) is None
        assert store.load(_spec()) is None
        # ... and attach_or_build regenerates and rewrites the blob.
        program, from_store = store.attach_or_build(_spec())
        assert not from_store
        assert isinstance(program, ArenaProgram)
        assert program.has_method("Main.main")

    def test_attached_solve_is_bit_identical(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        config = AnalysisConfig.skipflow()
        from_arena = SkipFlowAnalysis(store.attach(_spec()), config).run()
        from_fresh = SkipFlowAnalysis(generate_benchmark(_spec()), config).run()
        assert from_arena.reachable_methods == from_fresh.reachable_methods
        assert from_arena.steps == from_fresh.steps
        assert from_arena.stats.joins == from_fresh.stats.joins

    def test_storing_an_attached_arena_writes_the_buffer_back(self, tmp_path):
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        attached = store.attach(_spec())
        other = ProgramStore(tmp_path / "other",
                             code_version=store.code_version)
        other.store(_spec(), attached)
        assert (other.path_for(_spec()).read_bytes()
                == store.path_for(_spec()).read_bytes())

    def test_arena_kernel_config_routes_through_attach(
            self, tmp_path, monkeypatch, walked_image_report):
        """Every store-backed half maps the blob instead of thawing it,
        and the engine solves the attached program on the arena kernel."""
        store = ProgramStore(tmp_path)
        store.load_or_build(_spec())
        monkeypatch.setattr(ProgramStore, "load", _no_thaw)
        cold = solve_config(_spec(), AnalysisConfig.skipflow())
        _WORKER_PROGRAMS.clear()
        warm = solve_config(_spec(), AnalysisConfig.skipflow(), store)
        assert warm["program_from_store"]
        assert _report(warm) == _report(cold)
        assert _report(warm) == _walked_report(
            walked_image_report, _spec(), AnalysisConfig.skipflow())

    def test_report_view_of_a_stored_half_equals_a_generated_one(
            self, tmp_path):
        """A matrix row's ``ReportView`` reads the same from a store."""
        _WORKER_PROGRAMS.clear()
        configs = [AnalysisConfig.skipflow()]
        stored = run_config_matrix([_spec()], configs, names=["skipflow"],
                                   program_store=ProgramStore(tmp_path))[0]
        generated = run_config_matrix([_spec()], configs,
                                      names=["skipflow"])[0]
        assert (stored.report("skipflow").metrics
                == generated.report("skipflow").metrics)

    def test_read_only_store_lowers_the_plain_program(
            self, tmp_path, monkeypatch, walked_image_report):
        """A blob that cannot be written leaves a plain program, which the
        image build lowers in memory and solves on the arena kernel."""
        _WORKER_PROGRAMS.clear()
        store = ProgramStore(tmp_path)
        tmp_path.chmod(0o555)
        # Permission bits do not stop a privileged user, so the writer is
        # also made to fail the way a read-only directory makes it fail.
        def _read_only(_self, target, _blob):
            raise PermissionError(13, "Permission denied", str(target))
        monkeypatch.setattr(ProgramStore, "_write_atomic", _read_only)
        try:
            program, from_store = store.attach_or_build(_spec())
            assert not from_store
            assert not isinstance(program, ArenaProgram)
            half = solve_config(_spec(), AnalysisConfig.skipflow(), store)
        finally:
            tmp_path.chmod(0o755)
        assert not half["program_from_store"]
        assert not store.contains(_spec())
        assert _report(half) == _report(solve_config(_spec(), AnalysisConfig.skipflow()))
        assert _report(half) == _walked_report(
            walked_image_report, _spec(), AnalysisConfig.skipflow())


def _no_thaw(self, spec):
    raise AssertionError("a store-backed half thawed its program")


def _report(payload):
    """A half's report without the two wall-clock keys."""
    return {key: value for key, value in payload["report"].items()
            if key not in ("analysis_time_seconds", "total_time_seconds")}


def _walked_report(walked_image_report, spec, config):
    """``_report`` of the PVPG-walked image report of a generated spec."""
    report = walked_image_report(generate_benchmark(spec), config, spec.name)
    return _report({"report": _report_payload(report)})


BIT_IDENTITY_CONFIGS = {
    "pta": AnalysisConfig.baseline_pta(),
    "skipflow": AnalysisConfig.skipflow(),
    "skipflow-at16": AnalysisConfig.skipflow().with_saturation_policy(
        "allocated-type", 16),
}

BIT_IDENTITY_SPECS = wide_hierarchy_suite() + [
    spec for spec in dacapo_suite(scale=0.5) if spec.name in ("fop", "luindex")]


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    store = ProgramStore(tmp_path_factory.mktemp("bit-identity"))
    for spec in BIT_IDENTITY_SPECS:
        store.load_or_build(spec)
    return store


@pytest.mark.parametrize("config", sorted(BIT_IDENTITY_CONFIGS))
@pytest.mark.parametrize("spec", BIT_IDENTITY_SPECS, ids=lambda spec: spec.name)
def test_store_backed_half_is_bit_identical_to_a_generated_one(
        filled_store, spec, config, walked_image_report):
    """Halves on attached blobs and on in-memory lowerings of freshly
    generated programs match the PVPG-walked report of the generated
    program, field for field except the wall clocks."""
    _WORKER_PROGRAMS.clear()
    config = BIT_IDENTITY_CONFIGS[config]
    stored = solve_config(spec, config, filled_store)
    generated = solve_config(spec, config)
    assert stored["program_from_store"]
    assert stored["config_name"] == generated["config_name"]
    assert _report(stored) == _report(generated)
    assert _report(stored) == _walked_report(walked_image_report, spec, config)


class TestKeying:
    def test_key_is_filesystem_safe_hex(self, tmp_path):
        key = ProgramStore(tmp_path).key(_spec())
        assert key == key.lower()
        int(key, 16)

    def test_different_specs_different_blobs(self, tmp_path):
        store = ProgramStore(tmp_path)
        assert store.key(_spec(total=90)) != store.key(_spec(total=120))

    def test_missing_blob_loads_none(self, tmp_path):
        assert ProgramStore(tmp_path).load(_spec()) is None


@pytest.mark.parametrize("config_name", ["baseline_pta", "skipflow",
                                         "predicates_only", "primitives_only"])
def test_every_canonical_config_identical_over_stored_ir(tmp_path, config_name):
    store = ProgramStore(tmp_path)
    store.load_or_build(_spec())
    config = getattr(AnalysisConfig, config_name)()
    from_store = SkipFlowAnalysis(store.load(_spec()), config).run()
    from_fresh = SkipFlowAnalysis(generate_benchmark(_spec()), config).run()
    assert from_store.reachable_methods == from_fresh.reachable_methods
    assert from_store.steps == from_fresh.steps


class TestGc:
    def test_gc_drops_other_versions_and_keeps_current(self, tmp_path):
        current = ProgramStore(tmp_path, code_version="aaaa")
        current.load_or_build(_spec())
        stale = ProgramStore(tmp_path, code_version="bbbb")
        stale.load_or_build(_spec())
        # Pre-versioning flat-named blobs are unidentifiable, hence stale.
        (tmp_path / "deadbeef.arena").write_bytes(b"x")

        # The foreign version's blob, plus the flat-named one.
        assert current.gc() == 2
        assert current.last_gc_bytes > 0
        assert current.contains(_spec())
        assert current.attach(_spec()) is not None
        assert not stale.contains(_spec())
        assert stale.attach(_spec()) is None

    def test_gc_reclaims_program_pickles_and_no_path_writes_one(
            self, tmp_path):
        """Older versions stored a pickle next to each blob; none is
        written now, and ``gc`` still counts and removes the old ones."""
        assert "pickle" not in vars(program_store)
        store = ProgramStore(tmp_path)
        planted = tmp_path / f"feedfacedeadbeef-{store.key(_spec())}.pickle"
        planted.write_bytes(b"an old program pickle")
        store.load_or_build(_spec())
        store.attach_or_build(_spec(name="attached"))
        store.store(_spec(name="stored"), generate_benchmark(_spec()))
        store.store(_spec(name="written-back"), store.attach(_spec()))
        assert list(tmp_path.glob("*.pickle")) == [planted]
        assert store.gc() == 1
        assert store.last_gc_bytes == len(b"an old program pickle")
        assert list(tmp_path.glob("*.pickle")) == []
        assert len(list(tmp_path.glob("*.arena"))) == 4

    def test_blob_filenames_carry_the_code_version(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="cafe")
        assert store.path_for(_spec()).name.startswith("cafe-")
