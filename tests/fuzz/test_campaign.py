"""Campaigns and the mutation smoke (the oracle's own regression test)."""

import pytest

from repro.fuzz.runner import (
    drop_main_mutator,
    run_campaign,
    run_mutation_smoke,
)

CHEAP_MATRIX = dict(saturations=("off",))


class TestRunCampaign:
    def test_clean_campaign_is_green_and_counted(self):
        result = run_campaign(seed=5, cases=3, **CHEAP_MATRIX)
        assert result.ok
        assert result.cases_run == 3
        assert result.prefixes_checked >= 3
        assert result.combos_checked == 3  # one combo per case here

    def test_needs_exactly_one_budget(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_campaign(seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            run_campaign(seed=0, cases=1, budget_seconds=1.0)

    def test_budget_mode_runs_at_least_one_case(self):
        result = run_campaign(seed=5, budget_seconds=0.0, **CHEAP_MATRIX)
        assert result.cases_run == 1

    def test_broken_analyzer_produces_shrunk_repro_files(self, tmp_path):
        from repro.fuzz.reprofile import load_repro, violations_from_dict

        result = run_campaign(seed=5, cases=1, out_dir=tmp_path,
                              mutator=drop_main_mutator, **CHEAP_MATRIX)
        assert not result.ok
        (failure,) = result.failures
        assert failure.repro_path is not None
        script, meta = load_repro(failure.repro_path)
        assert script == failure.shrunk
        assert violations_from_dict(meta)
        # The shrunk case is minimal: bare core, no steps.
        assert script.steps == ()
        assert script.base.core_methods == 5

    def test_deterministic_across_runs(self):
        first = run_campaign(seed=9, cases=2, **CHEAP_MATRIX)
        second = run_campaign(seed=9, cases=2, **CHEAP_MATRIX)
        assert first.ok == second.ok
        assert first.prefixes_checked == second.prefixes_checked


class TestMutationSmoke:
    def test_planted_bug_is_caught_and_shrunk(self):
        report, original, shrunk = run_mutation_smoke(seed=0)
        assert not report.ok
        assert any(v.invariant == "executed-not-reachable"
                   for v in report.violations)
        assert (shrunk.base.expected_total_methods
                <= original.base.expected_total_methods)
