"""The --scheduling / --saturation-policy CLI flags."""

import pytest

from repro.cli import build_parser, main as cli_main

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
def source(tmp_path):
    path = tmp_path / "app.lang"
    path.write_text(SOURCE)
    return str(path)


class TestParser:
    def test_scheduling_offers_registered_policies(self):
        args = build_parser().parse_args(
            ["analyze", "app.lang", "--scheduling", "degree"])
        assert args.scheduling == "degree"

    def test_saturation_policy_choices(self):
        args = build_parser().parse_args(
            ["analyze", "app.lang", "--saturation-policy", "allocated-type",
             "--saturation-threshold", "8"])
        assert args.saturation_policy == "allocated-type"
        assert args.saturation_threshold == 8

    def test_unknown_scheduling_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "app.lang", "--scheduling", "zigzag"])

    def test_compare_carries_the_flags_too(self):
        args = build_parser().parse_args(
            ["compare", "app.lang", "pta", "skipflow",
             "--scheduling", "degree"])
        assert args.scheduling == "degree"


class TestAnalyze:
    def test_scheduling_flag_preserves_results(self, source, capsys):
        assert cli_main(["analyze", source]) == 0
        plain = capsys.readouterr().out
        assert cli_main(["analyze", source, "--scheduling", "degree"]) == 0
        scheduled = capsys.readouterr().out
        # Scheduling changes effort only; the printed metrics are timings
        # aside identical.
        strip = lambda text: [line for line in text.splitlines()  # noqa: E731
                              if "time" not in line]
        assert strip(plain) == strip(scheduled)

    def test_saturation_policy_needs_threshold(self, source, capsys):
        assert cli_main(["analyze", source,
                         "--saturation-policy", "allocated-type"]) == 2
        assert "needs a threshold" in capsys.readouterr().err

    def test_saturation_policy_with_threshold_runs(self, source, capsys):
        assert cli_main(["analyze", source,
                         "--saturation-policy", "allocated-type",
                         "--saturation-threshold", "8"]) == 0
        assert "reachable methods" in capsys.readouterr().out

    def test_compare_mode_applies_flags_to_both_columns(self, source, capsys):
        assert cli_main(["analyze", source, "--compare",
                         "--scheduling", "degree"]) == 0
        output = capsys.readouterr().out
        assert "[PTA]" in output and "[SkipFlow]" in output

    def test_call_graph_analysis_rejects_scheduling(self, source, capsys):
        assert cli_main(["analyze", source, "--analysis", "cha",
                         "--scheduling", "degree"]) == 2
        assert "scheduling" in capsys.readouterr().err


class TestCompare:
    def test_ladder_with_scheduling(self, source, capsys):
        assert cli_main(["compare", source, "--scheduling", "degree"]) == 0
        assert "reachable methods" in capsys.readouterr().out

    def test_call_graph_only_columns_reject_kernel_flags(self, source, capsys):
        assert cli_main(["compare", source, "cha", "rta",
                         "--scheduling", "degree"]) == 2
        assert "scheduling" in capsys.readouterr().err
