"""Subprocess-free CLI coverage: parser wiring and command handlers.

Every test drives :func:`repro.cli.build_parser` / :func:`repro.cli.main`
directly (no subprocess), covering ``analyze --analysis``, the N-way
``compare`` command, ``callgraph``, ``pvpg``, ``bench --gc``, and the
centralized root-resolution errors.
"""

import pytest

from repro.cli import build_parser, main as cli_main
from repro.engine import ProgramStore, ResultCache
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import suite_by_name

SOURCE = """
class Config {
    boolean isFeatureEnabled() { return false; }
}
class Feature {
    void start() { }
}
class Unused {
    void never() { }
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

NO_ENTRY_SOURCE = """
class Lonely {
    void orphan() { }
}
"""


@pytest.fixture
def source(tmp_path):
    path = tmp_path / "app.lang"
    path.write_text(SOURCE)
    return str(path)


@pytest.fixture
def orphan_source(tmp_path):
    path = tmp_path / "orphan.lang"
    path.write_text(NO_ENTRY_SOURCE)
    return str(path)


class TestParser:
    def test_analysis_flag_offers_every_registered_analyzer(self):
        args = build_parser().parse_args(
            ["analyze", "app.lang", "--analysis", "rta"])
        assert args.analysis == "rta"
        assert args.func.__name__ == "_cmd_analyze"

    def test_compare_defaults_to_the_precision_ladder(self):
        args = build_parser().parse_args(["compare", "app.lang"])
        assert args.analyses == ["cha", "rta", "pta", "skipflow"]

    def test_legacy_config_flag_still_parses(self):
        args = build_parser().parse_args(
            ["analyze", "app.lang", "--config", "pta"])
        assert args.config == "pta"

    def test_bench_gc_flag(self):
        args = build_parser().parse_args(["bench", "--gc", "--cache-dir", "x"])
        assert args.gc and args.cache_dir == "x"


class TestAnalyze:
    def test_analysis_engine_config(self, source, capsys):
        assert cli_main(["analyze", source, "--analysis", "pta"]) == 0
        output = capsys.readouterr().out
        assert "[PTA]" in output and "reachable methods" in output

    def test_analysis_call_graph_baseline(self, source, capsys):
        assert cli_main(["analyze", source, "--analysis", "cha"]) == 0
        output = capsys.readouterr().out
        assert "[cha]" in output and "call edges" in output

    def test_call_graph_baseline_lists_unreachable(self, source, capsys):
        assert cli_main(["analyze", source, "--analysis", "rta",
                         "--list-unreachable"]) == 0
        # RTA cannot prune the predicate-guarded feature, but the entirely
        # uncalled class is dead even for it.
        output = capsys.readouterr().out
        assert "Unused.never" in output
        assert "Feature.start" not in output

    def test_skipflow_prunes_the_guarded_feature(self, source, capsys):
        assert cli_main(["analyze", source, "--analysis", "skipflow",
                         "--list-unreachable"]) == 0
        output = capsys.readouterr().out
        assert "[SkipFlow]" in output and "Feature.start" in output

    def test_optimizations_rejected_for_call_graph_baselines(
            self, source, capsys):
        assert cli_main(["analyze", source, "--analysis", "cha",
                         "--optimizations"]) == 2
        assert "--optimizations" in capsys.readouterr().err

    def test_saturation_threshold_rejected_for_call_graph_baselines(
            self, source, capsys):
        """Consistent with callgraph/pvpg/compare: loud error, not a silent
        no-op sweep."""
        assert cli_main(["analyze", source, "--analysis", "cha",
                         "--saturation-threshold", "4"]) == 2
        assert "saturation_threshold" in capsys.readouterr().err

    def test_no_entry_point_is_a_clean_error(self, orphan_source, capsys):
        # Root-resolution failures exit 3 (EXIT_NO_ENTRY), distinct from
        # usage errors, per the repro.api.errors taxonomy.
        assert cli_main(["analyze", orphan_source]) == 3
        error = capsys.readouterr().err
        assert "no entry point" in error and "Main.main" in error

    def test_unknown_entry_is_a_clean_error(self, source, capsys):
        assert cli_main(["analyze", source, "--entry", "Ghost.main"]) == 3
        assert "Ghost.main" in capsys.readouterr().err

    def test_conflicting_analysis_and_config_flags_rejected(
            self, source, capsys):
        assert cli_main(["analyze", source, "--analysis", "cha",
                         "--config", "pta"]) == 2
        assert "conflicting flags" in capsys.readouterr().err

    def test_matching_analysis_and_config_flags_accepted(self, source, capsys):
        assert cli_main(["analyze", source, "--analysis", "pta",
                         "--config", "pta"]) == 0
        assert "[PTA]" in capsys.readouterr().out


class TestCompare:
    def test_default_ladder(self, source, capsys):
        assert cli_main(["compare", source]) == 0
        output = capsys.readouterr().out
        for column in ("cha", "rta", "pta", "skipflow"):
            assert column in output
        assert "reachable methods" in output

    def test_explicit_analyses(self, source, capsys):
        assert cli_main(["compare", source, "pta", "skipflow"]) == 0
        output = capsys.readouterr().out
        header = output.splitlines()[2]
        assert "pta" in header and "skipflow" in header
        assert "cha" not in header and "rta" not in header

    def test_unknown_analysis_is_a_clean_error(self, source, capsys):
        assert cli_main(["compare", source, "pta", "bogus"]) == 2
        assert "unknown analysis" in capsys.readouterr().err

    def test_non_ladder_order_warns_on_stderr(self, source, capsys):
        assert cli_main(["compare", source, "skipflow", "pta"]) == 0
        assert "not monotone" in capsys.readouterr().err

    def test_saturation_threshold_works_with_the_default_ladder(
            self, source, capsys):
        """The cutoff routes to the engine columns; cha/rta are unaffected."""
        assert cli_main(["compare", source, "--saturation-threshold", "4"]) == 0
        assert "skipflow" in capsys.readouterr().out

    def test_saturation_threshold_with_only_call_graph_columns_errors(
            self, source, capsys):
        assert cli_main(["compare", source, "cha", "rta",
                         "--saturation-threshold", "4"]) == 2
        assert "not supported" in capsys.readouterr().err


class TestCallGraphAndPvpg:
    def test_callgraph_to_file(self, source, tmp_path):
        output = tmp_path / "graph.dot"
        assert cli_main(["callgraph", source, "--output", str(output)]) == 0
        assert output.read_text().startswith("digraph callgraph")

    def test_callgraph_with_named_analysis(self, source, capsys):
        assert cli_main(["callgraph", source, "--analysis", "pta"]) == 0
        assert "digraph callgraph" in capsys.readouterr().out

    def test_callgraph_rejects_call_graph_only_analyzers(self, source, capsys):
        assert cli_main(["callgraph", source, "--analysis", "cha"]) == 2
        assert "call graph only" in capsys.readouterr().err

    def test_pvpg_for_method(self, source, capsys):
        assert cli_main(["pvpg", source, "--method", "Main.main"]) == 0
        assert "cluster_Main.main" in capsys.readouterr().out

    def test_pvpg_rejects_call_graph_only_analyzers(self, source, capsys):
        assert cli_main(["pvpg", source, "--analysis", "rta"]) == 2
        assert "call graph only" in capsys.readouterr().err


class TestBenchGc:
    def test_gc_requires_cache_dir(self, capsys):
        assert cli_main(["bench", "--gc"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_gc_drops_only_stale_versions(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        current = ResultCache(cache_dir)
        current.put("aa" * 16, {"payload_version": 2})
        stale = ResultCache(cache_dir, code_version="feedfacedeadbeef")
        stale.put("bb" * 16, {"payload_version": 1})
        store = ProgramStore(cache_dir / "programs",
                             code_version=current.code_version)
        (store.directory / "feedfacedeadbeef-blob.pickle").write_bytes(b"x")
        (store.directory / "preversioning.pickle").write_bytes(b"x")
        snapshots = cache_dir / "snapshots"
        snapshots.mkdir()
        (snapshots / "feedfacedeadbeef-old.state").write_bytes(b"x")

        assert cli_main(["bench", "--gc", "--cache-dir", str(cache_dir),
                         "--suite", "DaCapo"]) == 0
        output = capsys.readouterr().out
        assert ("removed 1 stale result entries, 2 stale IR blobs, "
                "and 1 stale snapshots") in output
        assert "reclaimed" in output and "bytes" in output
        assert list(snapshots.glob("*.state")) == []
        assert current.contains("aa" * 16)
        assert not stale.contains("bb" * 16)
        assert list(store.directory.glob("*.pickle")) == []

    def test_ir_column_says_whether_the_arena_blob_is_stored(
            self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        store = ProgramStore(cache_dir / "programs",
                             code_version=cache.code_version)
        specs = suite_by_name("Microservices", scale=0.25)
        store.store(specs[0], generate_benchmark(specs[0]))

        assert cli_main(["bench", "--cache-dir", str(cache_dir),
                         "--suite", "Microservices", "--scale", "0.25"]) == 0
        output = capsys.readouterr().out
        status = {line.split()[1]: line.split()[-1]
                  for line in output.splitlines()
                  if line.startswith("Microservices")}
        assert status == {spec.name: "yes" if spec is specs[0] else "no"
                          for spec in specs}
        assert "pickle" not in output
