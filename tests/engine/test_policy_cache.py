"""Policy-aware cache keying and the per-process program memo."""

from repro.core.analysis import AnalysisConfig
from repro.engine import ProgramStore, ResultCache, run_config_matrix, run_specs
from repro.engine.runner import _WORKER_PROGRAMS, solve_config
from repro.workloads.generator import spec_from_reduction


def _spec(name="policy-spec", total=80):
    return spec_from_reduction(name=name, suite="test",
                               total_methods=total, reduction_percent=10.0)


def _policy_configs():
    skipflow = AnalysisConfig.skipflow()
    return {
        "off": skipflow,
        "closed-world": skipflow.with_saturation_threshold(64),
        "allocated-type": skipflow.with_saturation_policy(
            "allocated-type", 64),
        "allocated-type-reachable": skipflow.with_saturation_policy(
            "allocated-type-reachable", 64),
    }


class TestPolicyKeying:
    def test_every_policy_half_keyed_distinctly(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = {cache.config_key(_spec(), config)
                for config in _policy_configs().values()}
        assert len(keys) == len(_policy_configs())

    def test_same_policy_same_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        again = (AnalysisConfig.skipflow().with_saturation_threshold(64)
                 .with_saturation_policy("allocated-type"))
        assert (cache.config_key(_spec(), _policy_configs()["allocated-type"])
                == cache.config_key(_spec(), again))

    def test_policy_matrix_reuses_the_default_half(self, tmp_path):
        """A policy matrix shares the off half with a plain run."""
        warm_cache = ResultCache(tmp_path)
        run_specs([_spec()], cache=warm_cache)  # caches pta + skipflow halves

        configs = _policy_configs()
        matrix_cache = ResultCache(tmp_path)
        rows = run_config_matrix([_spec()], list(configs.values()),
                                 names=list(configs), cache=matrix_cache)
        assert matrix_cache.hits == 1          # the off half
        assert matrix_cache.misses == len(configs) - 1
        row = rows[0]
        assert row.run("off").from_cache
        # Saturation at 64 never fires on this small spec: all four columns
        # agree on reachability.
        assert len({run.report.metrics.reachable_methods
                    for run in row.runs}) == 1


class TestProgramMemo:
    def test_policy_matrix_unpickles_the_ir_once(self, tmp_path):
        """N policy halves of one spec share one attached program."""
        _WORKER_PROGRAMS.clear()
        store = ProgramStore(tmp_path)
        configs = list(_policy_configs().values())
        for config in configs:
            payload = solve_config(_spec(), config, store)
            assert payload["program_from_store"] == (config is not configs[0])
        # One generation (the first half), zero further disk loads: the
        # remaining halves hit the process memo, which counts as store hits.
        assert store.misses == 1
        assert store.hits == len(configs) - 1

    def test_memo_results_identical_to_fresh_generation(self, tmp_path):
        _WORKER_PROGRAMS.clear()
        store = ProgramStore(tmp_path)
        config = AnalysisConfig.skipflow()
        cold = solve_config(_spec(), config)           # no store, fresh IR
        solve_config(_spec(), AnalysisConfig.baseline_pta(), store)
        warm = solve_config(_spec(), config, store)    # memo-shared program
        assert warm["program_from_store"]
        assert warm["report"]["solver_steps"] == cold["report"]["solver_steps"]
        assert warm["report"]["solver_joins"] == cold["report"]["solver_joins"]
        assert (warm["report"]["reachable_methods"]
                == cold["report"]["reachable_methods"])

    def test_memo_is_keyed_by_blob_path(self, tmp_path):
        _WORKER_PROGRAMS.clear()
        first = ProgramStore(tmp_path / "a")
        second = ProgramStore(tmp_path / "b")
        solve_config(_spec(), AnalysisConfig.skipflow(), first)
        payload = solve_config(_spec(), AnalysisConfig.skipflow(), second)
        # A different store directory is a different blob path: no memo hit.
        assert not payload["program_from_store"]
        assert second.misses == 1
