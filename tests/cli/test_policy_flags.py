"""The --saturation-policy / --saturation-threshold CLI flags."""

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
    def test_saturation_policy_choices(self):
        args = build_parser().parse_args(
            ["analyze", "app.lang", "--saturation-policy", "allocated-type",
             "--saturation-threshold", "8"])
        assert args.saturation_policy == "allocated-type"
        assert args.saturation_threshold == 8

    def test_unknown_saturation_policy_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "app.lang", "--saturation-policy", "zigzag"])

    def test_compare_carries_the_flags_too(self):
        args = build_parser().parse_args(
            ["compare", "app.lang", "pta", "skipflow",
             "--saturation-threshold", "8"])
        assert args.saturation_threshold == 8


class TestAnalyze:
    def test_unfired_threshold_preserves_results(self, source, capsys):
        assert cli_main(["analyze", source]) == 0
        plain = capsys.readouterr().out
        assert cli_main(["analyze", source,
                         "--saturation-threshold", "64"]) == 0
        saturated = capsys.readouterr().out
        # A cutoff no flow reaches changes nothing; the printed metrics are
        # timings aside identical.
        strip = lambda text: [line for line in text.splitlines()  # noqa: E731
                              if "time" not in line]
        assert strip(plain) == strip(saturated)

    def test_saturation_policy_needs_threshold(self, source, capsys):
        assert cli_main(["analyze", source,
                         "--saturation-policy", "allocated-type"]) == 2
        assert "needs a threshold" in capsys.readouterr().err

    def test_explicit_off_with_threshold_is_a_usage_error(self, source,
                                                          capsys):
        assert cli_main(["analyze", source, "--saturation-threshold", "4",
                         "--saturation-policy", "off"]) == 2
        assert "contradicts" in capsys.readouterr().err

    def test_saturation_policy_with_threshold_runs(self, source, capsys):
        assert cli_main(["analyze", source,
                         "--saturation-policy", "allocated-type",
                         "--saturation-threshold", "8"]) == 0
        assert "reachable methods" in capsys.readouterr().out

    def test_threshold_below_one_is_rejected(self, source, capsys):
        assert cli_main(["analyze", source,
                         "--saturation-threshold", "0"]) == 2
        assert "must be an int >= 1" in capsys.readouterr().err

    def test_compare_mode_applies_flags_to_both_columns(self, source, capsys):
        assert cli_main(["analyze", source, "--compare",
                         "--saturation-threshold", "64"]) == 0
        output = capsys.readouterr().out
        assert "[PTA]" in output and "[SkipFlow]" in output

    def test_call_graph_analysis_rejects_saturation(self, source, capsys):
        assert cli_main(["analyze", source, "--analysis", "cha",
                         "--saturation-threshold", "8"]) == 2
        assert "saturation_threshold" in capsys.readouterr().err


class TestCompare:
    def test_ladder_with_saturation(self, source, capsys):
        assert cli_main(["compare", source,
                         "--saturation-threshold", "64"]) == 0
        assert "reachable methods" in capsys.readouterr().out

    def test_call_graph_only_columns_reject_kernel_flags(self, source, capsys):
        assert cli_main(["compare", source, "cha", "rta",
                         "--saturation-threshold", "64"]) == 2
        assert "saturation_threshold" in capsys.readouterr().err
