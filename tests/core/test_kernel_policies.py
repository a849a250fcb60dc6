"""Saturation-policy validation and the AnalysisConfig policy plumbing."""

import dataclasses

import pytest

from repro.core.analysis import AnalysisConfig
from repro.core.kernel import (
    available_saturation_policies,
    make_saturation_policy,
)


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
            AnalysisConfig.skipflow().with_saturation_policy("closed-world", -3)

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
        assert config.saturation_policy == "closed-world"


class TestRegistries:
    def test_builtin_names(self):
        assert available_saturation_policies()[0] == "off"
        assert set(available_saturation_policies()) == {
            "off", "closed-world", "allocated-type",
            "allocated-type-reachable"}

    def test_unknown_names_listed(self):
        with pytest.raises(ValueError, match="closed-world"):
            make_saturation_policy("nope", None, 4)

    def test_off_factory_returns_none(self):
        assert make_saturation_policy("off", None, None) is None
        assert make_saturation_policy("closed-world", None, None) is None


class TestConfigPlumbing:
    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(AnalysisConfig)] == [
            "name", "use_predicates", "track_primitives",
            "filter_type_checks", "filter_comparisons", "validate",
            "saturation_threshold", "saturation_policy"]

    def test_bare_threshold_engages_closed_world(self):
        config = AnalysisConfig.skipflow().with_saturation_threshold(8)
        assert config.saturation_policy == "closed-world"
        assert config.saturation_threshold == 8

    def test_dropping_threshold_resets_policy_to_off(self):
        config = (AnalysisConfig.skipflow()
                  .with_saturation_policy("allocated-type", 8)
                  .with_saturation_threshold(None))
        assert config.saturation_policy == "off"
        assert config == AnalysisConfig.skipflow()

    def test_saturation_policy_without_threshold_rejected(self):
        with pytest.raises(ValueError, match="needs a threshold"):
            AnalysisConfig.skipflow().with_saturation_policy("allocated-type")

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
                != base.with_saturation_policy("allocated-type", 8))
