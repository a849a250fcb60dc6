"""Saturation-policy validation and the AnalysisConfig policy plumbing."""

import dataclasses

import pytest

from repro.core.analysis import AnalysisConfig
from repro.core.kernel import (
    available_saturation_policies,
    make_saturation_policy,
)
from repro.lang import compile_source

SOURCE = "class Main { static void main() { } }"


class TestConfigValidation:
    def test_default_is_seed_setup(self):
        config = AnalysisConfig.skipflow()
        assert config.saturation_policy == "off"
        assert config.saturation_threshold is None

    def test_unknown_saturation_rejected(self):
        with pytest.raises(ValueError, match="unknown saturation"):
            AnalysisConfig(saturation_policy="open-world",
                           saturation_threshold=4)

    def test_unknown_saturation_rejected_without_threshold(self):
        # Validation runs before canonicalization, so a typo is not
        # silently reset to ``off``.
        with pytest.raises(ValueError, match="unknown saturation"):
            AnalysisConfig(saturation_policy="open-world")

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            AnalysisConfig(saturation_threshold=0)
        with pytest.raises(ValueError, match=">= 1"):
            AnalysisConfig.skipflow().with_saturation_policy("allocated-type",
                                                             -3)

    @pytest.mark.parametrize("threshold", ["16", True, False, 4.0, [4]],
                             ids=["str", "true", "false", "float", "list"])
    def test_non_int_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="must be an int >= 1"):
            AnalysisConfig(saturation_threshold=threshold)
        with pytest.raises(ValueError, match="must be an int >= 1"):
            AnalysisConfig.skipflow().with_saturation_threshold(threshold)

    def test_smallest_threshold_accepted(self):
        config = AnalysisConfig.skipflow().with_saturation_threshold(1)
        assert config.saturation_threshold == 1
        assert config.saturation_policy == "allocated-type"


class TestRegistries:
    def test_builtin_names(self):
        assert available_saturation_policies()[0] == "off"
        assert available_saturation_policies() == (
            "off", "allocated-type", "allocated-type-reachable")

    def test_unknown_names_listed(self):
        program = compile_source(SOURCE)
        with pytest.raises(ValueError, match="allocated-type-reachable"):
            make_saturation_policy("nope", 4, program)

    def test_off_factory_returns_none(self):
        program = compile_source(SOURCE)
        assert make_saturation_policy("off", None, program) is None
        assert make_saturation_policy("allocated-type", None, program) is None


class TestConfigPlumbing:
    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(AnalysisConfig)] == [
            "name", "use_predicates", "track_primitives",
            "filter_type_checks", "filter_comparisons", "validate",
            "saturation_threshold", "saturation_policy"]

    def test_bare_threshold_engages_allocated_type(self):
        config = AnalysisConfig.skipflow().with_saturation_threshold(8)
        assert config.saturation_policy == "allocated-type"
        assert config.saturation_threshold == 8
        assert config == AnalysisConfig.skipflow().with_saturation_policy(
            "allocated-type", 8)
        assert AnalysisConfig(saturation_threshold=8) == AnalysisConfig(
            saturation_threshold=8, saturation_policy="allocated-type")

    def test_dropping_threshold_resets_policy_to_off(self):
        config = (AnalysisConfig.skipflow()
                  .with_saturation_policy("allocated-type", 8)
                  .with_saturation_threshold(None))
        assert config.saturation_policy == "off"
        assert config == AnalysisConfig.skipflow()

    def test_saturation_policy_without_threshold_rejected(self):
        with pytest.raises(ValueError, match="needs a threshold"):
            AnalysisConfig.skipflow().with_saturation_policy("allocated-type")

    @pytest.mark.parametrize("policy", ["allocated-type",
                                        "allocated-type-reachable"])
    def test_constructor_rejects_policy_without_threshold(self, policy):
        """A named policy is not silently reset to ``off``."""
        with pytest.raises(ValueError, match="needs a threshold"):
            AnalysisConfig(saturation_policy=policy)

    def test_dropping_threshold_of_explicit_policy_resets_to_off(self):
        config = (AnalysisConfig.skipflow()
                  .with_saturation_policy("allocated-type-reachable", 4)
                  .with_saturation_threshold(None))
        assert (config.saturation_policy,
                config.saturation_threshold) == ("off", None)

    def test_saturation_policy_keeps_existing_threshold(self):
        config = (AnalysisConfig.skipflow().with_saturation_threshold(8)
                  .with_saturation_policy("allocated-type"))
        assert config.saturation_threshold == 8
        assert config.saturation_policy == "allocated-type"

    def test_off_drops_the_threshold(self):
        config = (AnalysisConfig.skipflow()
                  .with_saturation_policy("allocated-type", 4)
                  .with_saturation_policy("off"))
        assert config == AnalysisConfig.skipflow()

    def test_policy_is_part_of_config_identity(self):
        base = AnalysisConfig.skipflow()
        assert base != base.with_saturation_threshold(8)
        assert (base.with_saturation_threshold(8)
                != base.with_saturation_policy("allocated-type-reachable", 8))
