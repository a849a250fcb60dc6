"""The parallel benchmark runner: determinism, ordering, and half composition."""

import importlib

import pytest

from repro.core.analysis import AnalysisConfig
from repro.engine import ProgramStore, ResultCache, run_config_matrix, run_specs
from repro.engine.runner import (
    PAYLOAD_VERSION,
    _WORKER_PROGRAMS,
    result_from_halves,
    solve_config,
    view_from_half,
)
from repro.engine.scheduler import estimated_cost, order_by_cost
from repro.workloads.generator import BenchmarkSpec, HierarchySpec, spec_from_reduction

#: Deliberately out of size order so scheduling and result ordering differ.
SPECS = [
    spec_from_reduction(name="runner-mid", suite="test",
                        total_methods=90, reduction_percent=10.0),
    spec_from_reduction(name="runner-big", suite="test",
                        total_methods=140, reduction_percent=8.0),
    spec_from_reduction(name="runner-small", suite="test",
                        total_methods=60, reduction_percent=15.0),
]

#: Configuration halves per comparison.
HALVES = 2


def _stable_dict(result):
    """Result metrics without the host-dependent wall-clock values."""
    return {key: value for key, value in result.as_dict().items()
            if "time" not in key}


class TestDeterminism:
    def test_parallel_matches_serial(self):
        serial = run_specs(SPECS, jobs=1)
        parallel = run_specs(SPECS, jobs=4)
        assert [_stable_dict(r) for r in serial] == [_stable_dict(r) for r in parallel]

    def test_results_follow_input_order(self):
        results = run_specs(SPECS, jobs=4)
        assert [r.benchmark for r in results] == [s.name for s in SPECS]

    def test_reporting_api_compatibility(self):
        result = run_specs(SPECS[:1])[0]
        assert result.skipflow.reachable_methods < result.baseline.reachable_methods
        assert 0.0 < result.normalized("reachable_methods") < 1.0
        assert result.reachable_method_reduction_percent > 0.0
        assert result.metric("binary_size", "baseline") > 0.0


class TestCacheIntegration:
    def test_second_run_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_specs(SPECS, jobs=1, cache=cache)
        assert cache.misses == HALVES * len(SPECS) and cache.hits == 0
        assert all(not r.from_cache for r in first)

        cache_again = ResultCache(tmp_path)
        second = run_specs(SPECS, jobs=1, cache=cache_again)
        assert cache_again.hits == HALVES * len(SPECS) and cache_again.misses == 0
        assert all(r.from_cache for r in second)
        assert all(r.baseline_from_cache and r.skipflow_from_cache for r in second)
        assert [r.as_dict() for r in first] == [r.as_dict() for r in second]

    def test_ablation_run_reuses_shared_baseline(self, tmp_path):
        """Changing only the SkipFlow config hits every cached baseline half."""
        cache = ResultCache(tmp_path)
        run_specs(SPECS, cache=cache)

        cache_again = ResultCache(tmp_path)
        results = run_specs(
            SPECS, cache=cache_again,
            skipflow_config=AnalysisConfig.skipflow().with_saturation_threshold(64))
        assert cache_again.hits == len(SPECS)        # every baseline half
        assert cache_again.misses == len(SPECS)      # every SkipFlow half
        for result in results:
            assert result.baseline_from_cache
            assert not result.skipflow_from_cache
            assert not result.from_cache  # only half of it came from the cache

    def test_sweep_computes_baseline_exactly_once(self, tmp_path):
        """A 5-point saturation sweep over a wide-hierarchy spec analyzes the
        unsaturated baseline exactly once, and a second engine run of the
        same spec loads IR from the program store instead of rebuilding it,
        bit-identical to a cold run."""
        spec = BenchmarkSpec(
            name="wide-sweep", suite="test", core_methods=20,
            guarded_modules=(),
            hierarchies=(HierarchySpec(depth=1, fanout=12, call_sites=3),))
        cold = run_specs([spec])[0]  # no cache, no store

        cache = ResultCache(tmp_path)
        sweep_results = []
        for threshold in (2, 4, 8, 16, None):
            config = AnalysisConfig.skipflow().with_saturation_threshold(threshold)
            sweep_results.append(run_specs([spec], cache=cache,
                                           skipflow_config=config)[0])
        # 5 SkipFlow halves + 1 baseline half computed; the other 4 sweep
        # points served the shared baseline from the cache.
        assert cache.misses == 5 + 1
        assert cache.hits == 4
        assert sum(1 for r in sweep_results if not r.baseline_from_cache) == 1

        # Second engine run against a fresh result cache but the populated
        # program store: both halves must load IR blobs, and the numbers
        # must match the cold run exactly.
        store = ProgramStore(tmp_path / "programs",
                             code_version=cache.code_version)
        assert store.contains(spec)
        fresh_cache = ResultCache(tmp_path / "fresh")
        warm = run_specs([spec], cache=fresh_cache, program_store=store)[0]
        assert store.hits == 2  # baseline and SkipFlow halves both reused IR
        assert _stable_dict(warm) == _stable_dict(cold)

    def test_stale_payload_recounted_as_miss(self, tmp_path):
        """An unreadable cached half is recomputed and counted as a miss."""
        cache = ResultCache(tmp_path)
        spec = SPECS[2]
        baseline = AnalysisConfig.baseline_pta()
        cache.put(cache.config_key(spec, baseline),
                  {"payload_version": PAYLOAD_VERSION + 1})
        results = run_specs([spec], cache=cache)
        assert (cache.hits, cache.misses) == (0, 2)
        assert not results[0].baseline_from_cache

    def test_saturation_threshold_misses_exact_skipflow_half(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_specs(SPECS[:1], cache=cache)
        cache_again = ResultCache(tmp_path)
        run_specs(SPECS[:1], cache=cache_again,
                  skipflow_config=AnalysisConfig.skipflow().with_saturation_threshold(64))
        assert cache_again.misses == 1 and cache_again.hits == 1


class TestPayloads:
    def test_unknown_payload_version_rejected(self):
        payload = solve_config(SPECS[2], AnalysisConfig.skipflow())
        assert payload["payload_version"] == PAYLOAD_VERSION
        payload["payload_version"] = PAYLOAD_VERSION + 1
        with pytest.raises(ValueError):
            view_from_half(payload)

    def test_halves_compose_into_comparison(self):
        baseline = solve_config(SPECS[2], AnalysisConfig.baseline_pta())
        skipflow = solve_config(SPECS[2], AnalysisConfig.skipflow())
        result = result_from_halves(baseline, skipflow,
                                    baseline_from_cache=True)
        assert result.benchmark == SPECS[2].name
        assert result.baseline.configuration == "PTA"
        assert result.skipflow.configuration == "SkipFlow"
        assert result.baseline_from_cache and not result.skipflow_from_cache
        assert not result.from_cache
        assert result.elapsed_seconds == pytest.approx(
            baseline["elapsed_seconds"] + skipflow["elapsed_seconds"])

    def test_mismatched_halves_rejected(self):
        baseline = solve_config(SPECS[0], AnalysisConfig.baseline_pta())
        skipflow = solve_config(SPECS[2], AnalysisConfig.skipflow())
        with pytest.raises(ValueError):
            result_from_halves(baseline, skipflow)

    def test_engine_matches_direct_comparison(self):
        """Composed halves carry the same numbers as the reporting-layer path."""
        from repro.reporting.records import compare_configurations

        direct = compare_configurations(SPECS[2])
        engine = run_specs(SPECS[2:])[0]
        for metric in ("reachable_methods", "type_checks", "null_checks",
                       "prim_checks", "poly_calls", "binary_size"):
            assert engine.metric(metric, "baseline") == direct.metric(metric, "baseline")
            assert engine.metric(metric, "skipflow") == direct.metric(metric, "skipflow")


class TestScheduler:
    def test_orders_largest_first(self):
        order = order_by_cost(SPECS)
        costs = [estimated_cost(SPECS[i]) for i in order]
        assert costs == sorted(costs, reverse=True)
        assert order[0] == 1  # runner-big

    def test_stable_for_equal_costs(self):
        specs = [SPECS[0], SPECS[0], SPECS[0]]
        assert order_by_cost(specs) == [0, 1, 2]


class TestStorelessProgramMemo:
    """Without a store, a process generates and lowers each spec once."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        _WORKER_PROGRAMS.clear()
        yield
        _WORKER_PROGRAMS.clear()

    @pytest.fixture
    def counted(self, monkeypatch):
        """Calls of ``generate_benchmark`` (by the runner) and ``lower``."""
        from repro.engine import runner

        freeze_module = importlib.import_module("repro.ir.arena.freeze")
        calls = {"generate": [], "lower": []}
        generate, lower = runner.generate_benchmark, freeze_module.lower

        def counting_generate(spec):
            calls["generate"].append(spec.name)
            return generate(spec)

        def counting_lower(program):
            calls["lower"].append(program)
            return lower(program)

        monkeypatch.setattr(runner, "generate_benchmark", counting_generate)
        monkeypatch.setattr(freeze_module, "lower", counting_lower)
        return calls

    def test_matrix_generates_and_lowers_each_spec_once(self, counted):
        configs = [AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow(),
                   AnalysisConfig.skipflow().with_saturation_policy(
                       "allocated-type", 8)]
        rows = run_config_matrix(SPECS[:2], configs,
                                 names=["pta", "skipflow", "skipflow-at8"])
        assert sorted(counted["generate"]) == sorted(
            spec.name for spec in SPECS[:2])
        assert len(counted["lower"]) == 2
        for row in rows:
            for name in row.names:
                assert row.report(name).kernel_ran == "arena"

    def test_memo_hits_are_not_store_hits(self, counted):
        halves = [solve_config(SPECS[2], config) for config in
                  (AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow())]
        assert counted["generate"] == [SPECS[2].name]
        assert [half["program_from_store"] for half in halves] == [False, False]

    def test_generated_programs_share_the_memo_capacity(self, counted, monkeypatch):
        from repro.engine import runner

        monkeypatch.setattr(runner, "_WORKER_PROGRAM_CAPACITY", 1)
        for spec in (SPECS[0], SPECS[2], SPECS[0]):
            solve_config(spec, AnalysisConfig.skipflow())
        assert len(_WORKER_PROGRAMS) == 1
        assert counted["generate"] == [SPECS[0].name, SPECS[2].name,
                                       SPECS[0].name]
