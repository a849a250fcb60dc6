"""SolverPolicy validation and the AnalysisConfig policy plumbing."""

import pytest

from repro.core.analysis import AnalysisConfig
from repro.core.kernel import (
    DEFAULT_POLICY,
    SolverPolicy,
    available_saturation_policies,
    available_scheduling_policies,
    make_saturation_policy,
    make_scheduling_policy,
)


class TestSolverPolicy:
    def test_default_is_seed_setup(self):
        policy = SolverPolicy()
        assert policy.scheduling == "fifo"
        assert policy.saturation == "off"
        assert policy.saturation_threshold is None
        assert policy.is_default
        assert policy == DEFAULT_POLICY
        assert policy.label == "fifo/off"

    def test_label_shows_threshold(self):
        policy = SolverPolicy(scheduling="degree", saturation="allocated-type",
                              saturation_threshold=16)
        assert policy.label == "degree/allocated-type@16"
        assert not policy.is_default

    def test_unknown_scheduling_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling"):
            SolverPolicy(scheduling="random")

    def test_unknown_saturation_rejected(self):
        with pytest.raises(ValueError, match="unknown saturation"):
            SolverPolicy(saturation="open-world", saturation_threshold=4)

    def test_off_takes_no_threshold(self):
        with pytest.raises(ValueError, match="takes no threshold"):
            SolverPolicy(saturation="off", saturation_threshold=4)

    def test_cutoff_needs_threshold(self):
        with pytest.raises(ValueError, match="needs a saturation_threshold"):
            SolverPolicy(saturation="closed-world")
        with pytest.raises(ValueError, match=">= 1"):
            SolverPolicy(saturation="closed-world", saturation_threshold=0)

    def test_with_saturation_switches_coherently(self):
        policy = SolverPolicy().with_saturation("closed-world", 8)
        assert policy.saturation_threshold == 8
        assert policy.with_saturation("allocated-type").saturation_threshold == 8
        back_off = policy.with_saturation("off")
        assert back_off == DEFAULT_POLICY


class TestRegistries:
    def test_builtin_names(self):
        assert available_scheduling_policies() == ("fifo", "degree")
        assert available_saturation_policies()[0] == "off"
        assert set(available_saturation_policies()) == {
            "off", "closed-world", "allocated-type",
            "allocated-type-reachable"}

    def test_fresh_instance_per_solve(self):
        assert make_scheduling_policy("fifo") is not make_scheduling_policy("fifo")

    def test_unknown_names_listed(self):
        with pytest.raises(ValueError, match="fifo"):
            make_scheduling_policy("nope")

    def test_off_factory_returns_none(self):
        assert make_saturation_policy("off", None, None) is None
        assert make_saturation_policy("closed-world", None, None) is None


class TestConfigPlumbing:
    def test_default_config_has_default_policy(self):
        assert AnalysisConfig.skipflow().solver_policy == DEFAULT_POLICY

    def test_bare_threshold_engages_closed_world(self):
        config = AnalysisConfig.skipflow().with_saturation_threshold(8)
        assert config.saturation_policy == "closed-world"
        assert config.solver_policy.label == "fifo/closed-world@8"

    def test_dropping_threshold_resets_policy_to_off(self):
        config = (AnalysisConfig.skipflow()
                  .with_saturation_policy("allocated-type", 8)
                  .with_saturation_threshold(None))
        assert config.saturation_policy == "off"
        assert config.solver_policy == DEFAULT_POLICY

    def test_saturation_policy_without_threshold_rejected(self):
        with pytest.raises(ValueError, match="needs a threshold"):
            AnalysisConfig.skipflow().with_saturation_policy("allocated-type")

    def test_saturation_policy_keeps_existing_threshold(self):
        config = (AnalysisConfig.skipflow().with_saturation_threshold(8)
                  .with_saturation_policy("allocated-type"))
        assert config.saturation_threshold == 8
        assert config.saturation_policy == "allocated-type"

    def test_with_policy_round_trips(self):
        policy = SolverPolicy(scheduling="degree", saturation="allocated-type",
                              saturation_threshold=4)
        config = AnalysisConfig.skipflow().with_policy(policy)
        assert config.solver_policy == policy
        assert config.scheduling == "degree"

    def test_policy_is_part_of_config_identity(self):
        base = AnalysisConfig.skipflow()
        assert base != base.with_scheduling("degree")
        assert (base.with_saturation_threshold(8)
                != base.with_saturation_policy("allocated-type", 8))

    def test_invalid_names_fail_at_construction(self):
        with pytest.raises(ValueError, match="unknown scheduling"):
            AnalysisConfig(scheduling="zigzag")
        with pytest.raises(ValueError, match="unknown saturation"):
            AnalysisConfig(saturation_policy="open-world",
                           saturation_threshold=4)
