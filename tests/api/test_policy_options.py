"""Solver-kernel options through the session/registry API."""

import pytest

from repro.api import AnalysisSession, get_analyzer
from repro.lang import compile_source

SOURCE = """
class Config {
    boolean isFeatureEnabled() { return false; }
}
class Feature {
    void start() { }
}
class Main {
    static void main() {
        Config config = new Config();
        if (config.isFeatureEnabled()) {
            Feature feature = new Feature();
            feature.start();
        }
    }
}
"""


@pytest.fixture
def session():
    return AnalysisSession.from_source(SOURCE)


class TestRunOptions:
    def test_run_with_individual_knobs(self, session):
        report = session.run("skipflow", saturation_policy="allocated-type",
                             saturation_threshold=8)
        config = report.raw.config
        assert config.saturation_policy == "allocated-type"
        assert config.saturation_threshold == 8

    def test_call_graph_analyzers_reject_kernel_options(self, session):
        with pytest.raises(ValueError, match="saturation_threshold"):
            session.run("cha", saturation_threshold=8)
        with pytest.raises(ValueError, match="saturation_policy"):
            session.run("rta", saturation_policy="allocated-type")

    def test_unknown_policy_name_fails_loudly(self, session):
        with pytest.raises(ValueError, match="unknown saturation"):
            session.run("skipflow", saturation_policy="zigzag",
                        saturation_threshold=8)

    def test_malformed_threshold_fails_loudly(self, session):
        with pytest.raises(ValueError, match="must be an int >= 1"):
            session.run("skipflow", saturation_threshold="16")


class TestCompareRouting:
    def test_saturation_reaches_engine_columns_only(self, session):
        comparison = session.compare(["cha", "rta", "pta", "skipflow"],
                                     saturation_threshold=64)
        assert comparison.is_monotone_precision_ladder()
        for name in ("pta", "skipflow"):
            config = comparison.report(name).raw.config
            assert config.saturation_threshold == 64

    def test_kernel_option_without_engine_column_is_an_error(self, session):
        with pytest.raises(ValueError, match="saturation_threshold"):
            session.compare(["cha", "rta"], saturation_threshold=64)

    def test_unfired_threshold_does_not_change_the_ladder(self, session):
        plain = session.compare(["pta", "skipflow"])
        saturated = session.compare(["pta", "skipflow"],
                                    saturation_threshold=64)
        assert plain.reachable_counts() == saturated.reachable_counts()


class TestAnalyzerConfig:
    def test_config_keeps_the_analyzer_name(self):
        config = get_analyzer("pta").config(saturation_threshold=8)
        assert config.saturation_policy == "allocated-type"
        assert config.name == "PTA"

    def test_explicit_off_with_threshold_is_rejected(self, session):
        """``off`` plus a threshold means one thing at every entry point:
        an error, not a silently dropped threshold."""
        with pytest.raises(ValueError, match="contradicts"):
            get_analyzer("skipflow").config(4, "off")
        with pytest.raises(ValueError, match="contradicts"):
            session.run("skipflow", saturation_threshold=4,
                        saturation_policy="off")
        assert get_analyzer("skipflow").config(None, "off").saturation_policy \
            == "off"

    def test_config_knob_composition(self):
        config = get_analyzer("skipflow").config(
            saturation_threshold=8, saturation_policy="allocated-type")
        assert (config.saturation_policy,
                config.saturation_threshold) == ("allocated-type", 8)
