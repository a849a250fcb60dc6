"""Solver-kernel options through the session/registry API."""

import pytest

from repro.api import AnalysisSession, SolverPolicy, get_analyzer
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
    def test_run_with_bundled_policy(self, session):
        policy = SolverPolicy(scheduling="degree", saturation="closed-world",
                              saturation_threshold=8)
        report = session.run("skipflow", policy=policy)
        assert report.raw.config.solver_policy == policy
        assert report.reachable_method_count == session.run(
            "skipflow").reachable_method_count

    def test_run_with_individual_knobs(self, session):
        report = session.run("skipflow", scheduling="degree",
                             saturation_policy="allocated-type",
                             saturation_threshold=8)
        config = report.raw.config
        assert config.scheduling == "degree"
        assert config.saturation_policy == "allocated-type"
        assert config.saturation_threshold == 8

    def test_bundled_policy_conflicts_with_knobs(self, session):
        with pytest.raises(ValueError, match="not both"):
            session.run("skipflow", policy=SolverPolicy(), scheduling="degree")

    def test_call_graph_analyzers_reject_kernel_options(self, session):
        with pytest.raises(ValueError, match="scheduling"):
            session.run("cha", scheduling="degree")
        with pytest.raises(ValueError, match="policy"):
            session.run("rta", policy=SolverPolicy())

    def test_unknown_policy_name_fails_loudly(self, session):
        with pytest.raises(ValueError, match="unknown scheduling"):
            session.run("skipflow", scheduling="zigzag")


class TestCompareRouting:
    def test_scheduling_reaches_engine_columns_only(self, session):
        comparison = session.compare(["cha", "rta", "pta", "skipflow"],
                                     scheduling="degree")
        assert comparison.is_monotone_precision_ladder()
        for name in ("pta", "skipflow"):
            assert comparison.report(name).raw.config.scheduling == "degree"

    def test_kernel_option_without_engine_column_is_an_error(self, session):
        with pytest.raises(ValueError, match="scheduling"):
            session.compare(["cha", "rta"], scheduling="degree")

    def test_scheduling_does_not_change_the_ladder(self, session):
        plain = session.compare(["pta", "skipflow"])
        scheduled = session.compare(["pta", "skipflow"], scheduling="degree")
        assert (plain.reachable_counts() == scheduled.reachable_counts())


class TestAnalyzerConfig:
    def test_config_accepts_policy(self):
        policy = SolverPolicy(scheduling="degree")
        config = get_analyzer("pta").config(policy=policy)
        assert config.scheduling == "degree"
        assert config.name == "PTA"

    def test_config_knob_composition(self):
        config = get_analyzer("skipflow").config(
            saturation_threshold=8, saturation_policy="allocated-type",
            scheduling="degree")
        assert config.solver_policy.label == "degree/allocated-type@8"
