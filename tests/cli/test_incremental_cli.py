"""CLI coverage for the incremental workflow: delta, --save-state, --resume-from."""

import pytest

from repro.cli import main as cli_main

BASE_SOURCE = """
class Base { int run() { return 1; } }
class Impl extends Base { int run() { return 2; } }
class Main {
    static void main() {
        Base b = new Impl();
        b.run();
    }
}
"""

# A monotone extension: Main.main untouched, new class + method only.
GROWN_SOURCE = BASE_SOURCE.replace(
    "class Main {",
    "class Impl2 extends Base { int run() { return 3; } }\n"
    "class Probe { static void go() { Base b = new Impl2(); b.run(); } }\n"
    "class Main {")

# A non-monotone edit: Impl.run's body changes.
CHANGED_SOURCE = BASE_SOURCE.replace("return 2", "return 7")


@pytest.fixture
def base(tmp_path):
    path = tmp_path / "base.lang"
    path.write_text(BASE_SOURCE)
    return str(path)


@pytest.fixture
def grown(tmp_path):
    path = tmp_path / "grown.lang"
    path.write_text(GROWN_SOURCE)
    return str(path)


@pytest.fixture
def changed(tmp_path):
    path = tmp_path / "changed.lang"
    path.write_text(CHANGED_SOURCE)
    return str(path)


class TestDeltaCommand:
    def test_monotone_diff_exits_zero(self, base, grown, capsys):
        assert cli_main(["delta", base, grown]) == 0
        out = capsys.readouterr().out
        assert "monotone" in out
        assert "+ Impl2" in out
        assert "+ Probe.go" in out

    def test_non_monotone_diff_exits_one_with_violations(self, base, changed,
                                                         capsys):
        assert cli_main(["delta", base, changed]) == 1
        out = capsys.readouterr().out
        assert "NON-MONOTONE" in out
        assert "Impl.run" in out and "body" in out

    def test_json_output(self, base, grown, capsys):
        import json

        assert cli_main(["delta", base, grown, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["monotone"] is True
        assert "Impl2" in payload["added_classes"]
        assert payload["violations"] == []


class TestStateFlags:
    def test_save_then_noop_resume(self, base, tmp_path, capsys):
        state_path = str(tmp_path / "solve.state")
        assert cli_main(["analyze", base, "--save-state", state_path]) == 0
        out = capsys.readouterr().out
        assert "mode:               cold" in out
        assert state_path in out

        assert cli_main(["analyze", base, "--resume-from", state_path]) == 0
        out = capsys.readouterr().out
        assert "warm (resumed)" in out

    def test_resume_over_monotone_edit_is_warm(self, base, grown, tmp_path,
                                               capsys):
        state_path = str(tmp_path / "solve.state")
        cli_main(["analyze", base, "--save-state", state_path])
        capsys.readouterr()
        assert cli_main(["analyze", grown, "--entry", "Main.main",
                         "--entry", "Probe.go",
                         "--resume-from", state_path]) == 0
        out = capsys.readouterr().out
        assert "warm (resumed)" in out
        assert "reachable methods:  4" in out

    def test_resume_over_non_monotone_edit_falls_back(self, base, changed,
                                                      tmp_path, capsys):
        state_path = str(tmp_path / "solve.state")
        cli_main(["analyze", base, "--save-state", state_path])
        capsys.readouterr()
        assert cli_main(["analyze", changed,
                         "--resume-from", state_path]) == 0
        captured = capsys.readouterr()
        assert "cold (resume fell back)" in captured.out
        assert "monotone" in captured.err

    @pytest.mark.parametrize("source,offender", [
        # Impl.run is in the snapshot: it no longer resolves on load.
        (CHANGED_SOURCE, "Impl.run"),
        # Every referenced body is intact, but a new method on an existing
        # class can change resolution: the resume itself refuses.
        (BASE_SOURCE.replace("class Base {",
                             "class Base { int other() { return 5; }"),
         "Base"),
    ])
    def test_non_monotone_resume_warns_and_solves_cold(self, base, tmp_path,
                                                       capsys, source,
                                                       offender):
        state_path = str(tmp_path / "solve.state")
        cli_main(["analyze", base, "--save-state", state_path])
        capsys.readouterr()
        edited = tmp_path / "edited.lang"
        edited.write_text(source)
        cold_code = cli_main(["analyze", str(edited), "--save-state",
                              str(tmp_path / "cold.state")])
        cold_out = capsys.readouterr().out
        assert cli_main(["analyze", str(edited),
                         "--resume-from", state_path]) == cold_code == 0
        captured = capsys.readouterr()
        assert "cold (resume fell back)" in captured.out
        assert "falling back to a cold solve" in captured.err
        assert offender in captured.err
        cold_counts = [line for line in cold_out.splitlines()
                       if "reachable methods" in line or "call edges" in line]
        assert cold_counts and all(line in captured.out for line in cold_counts)

    def test_compare_is_rejected_with_state_flags(self, base, tmp_path,
                                                  capsys):
        state_path = str(tmp_path / "solve.state")
        assert cli_main(["analyze", base, "--compare",
                         "--save-state", state_path]) == 2
        assert "--compare" in capsys.readouterr().err

    def test_state_flags_need_an_engine_analysis(self, base, tmp_path,
                                                 capsys):
        state_path = str(tmp_path / "solve.state")
        assert cli_main(["analyze", base, "--analysis", "cha",
                         "--save-state", state_path]) == 2
        assert "call graph only" in capsys.readouterr().err

    def test_corrupt_snapshot_is_a_clean_error(self, base, tmp_path, capsys):
        state_path = tmp_path / "corrupt.state"
        state_path.write_bytes(b"garbage")
        assert cli_main(["analyze", base,
                         "--resume-from", str(state_path)]) == 2
        assert "snapshot" in capsys.readouterr().err
