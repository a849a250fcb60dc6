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


class TestStateChains:
    """A ``--save-state`` file holds the program's arena blob and the
    tables: a resume attaches the blob, extends it by the diff to the
    current source and can save again, so resumes chain across edits."""

    @staticmethod
    def _counts(out):
        return [line for line in out.splitlines()
                if "reachable methods" in line or "call edges" in line]

    @staticmethod
    def _steps(out):
        line = next(line for line in out.splitlines() if "solver steps" in line)
        return int(line.split(":")[1].split()[0])

    def test_save_resume_save_resume_over_two_edits(self, tmp_path, capsys):
        edit_a = GROWN_SOURCE
        edit_b = GROWN_SOURCE.replace(
            "class Main {",
            "class Impl3 extends Base { int run() { return 4; } }\n"
            "class Probe3 { static void go() { Base b = new Impl3(); "
            "b.run(); } }\n"
            "class Main {")
        paths = {}
        for name, text in (("base", BASE_SOURCE), ("a", edit_a),
                           ("b", edit_b)):
            paths[name] = tmp_path / f"{name}.lang"
            paths[name].write_text(text)
        roots_a = ["--entry", "Main.main", "--entry", "Probe.go"]
        roots_b = roots_a + ["--entry", "Probe3.go"]
        first, second = tmp_path / "first.state", tmp_path / "second.state"

        assert cli_main(["analyze", str(paths["base"]),
                         "--save-state", str(first)]) == 0
        base_steps = self._steps(capsys.readouterr().out)
        assert cli_main(["analyze", str(paths["a"]), *roots_a,
                         "--resume-from", str(first),
                         "--save-state", str(second)]) == 0
        warm_a = capsys.readouterr()
        assert "warm (resumed)" in warm_a.out and warm_a.err == ""
        assert cli_main(["analyze", str(paths["b"]), *roots_b,
                         "--resume-from", str(second)]) == 0
        warm_b = capsys.readouterr()
        assert "warm (resumed)" in warm_b.out and warm_b.err == ""

        for path, roots, warm in ((paths["a"], roots_a, warm_a.out),
                                  (paths["b"], roots_b, warm_b.out)):
            assert cli_main(["analyze", str(path), *roots,
                             "--save-state", str(tmp_path / "cold.state")]) == 0
            cold = capsys.readouterr().out
            assert self._counts(cold) == self._counts(warm)
            # Cumulative warm steps minus the previous save's are what the
            # resume paid: less than the cold solve.
            assert self._steps(warm) - base_steps < self._steps(cold)
            base_steps = self._steps(warm)
        assert "reachable methods:  6" in warm_b.out


class TestStateFile:
    """The ``--save-state`` file: the program's arena blob plus the arena
    kernel's tables over it, nothing else."""

    def test_file_holds_the_blob_and_the_tables(self, base, tmp_path,
                                                capsys):
        import pickle

        from repro.core.kernel.arena_kernel import ArenaSolverState
        from repro.ir.arena import open_program

        state_path = tmp_path / "solve.state"
        assert cli_main(["analyze", base, "--save-state",
                         str(state_path)]) == 0
        bundle = pickle.loads(state_path.read_bytes())
        assert sorted(bundle) == ["program", "state"]
        program = open_program(bundle["program"])
        state = ArenaSolverState.from_bytes(bundle["state"], program)
        assert state.reachable == {"Main.main", "Impl.run"}
        assert "reachable methods:  2" in capsys.readouterr().out

    def test_tables_that_do_not_match_their_program_solve_cold(
            self, base, changed, tmp_path, capsys):
        """A file whose tables were written over another program (here,
        one whose ``Impl.run`` body differs) names the offender and falls
        back cold instead of reading the wrong flows."""
        import pickle

        saved, other = tmp_path / "base.state", tmp_path / "changed.state"
        cli_main(["analyze", base, "--save-state", str(saved)])
        cli_main(["analyze", changed, "--save-state", str(other)])
        capsys.readouterr()
        forged = pickle.loads(saved.read_bytes())
        forged["program"] = pickle.loads(other.read_bytes())["program"]
        saved.write_bytes(pickle.dumps(forged))
        assert cli_main(["analyze", changed, "--resume-from",
                         str(saved)]) == 0
        captured = capsys.readouterr()
        assert "cold (resume fell back)" in captured.out
        assert "Impl.run" in captured.err

    def test_a_file_that_is_not_a_state_bundle_is_a_clean_error(
            self, base, tmp_path, capsys):
        import pickle

        state_path = tmp_path / "other.state"
        state_path.write_bytes(pickle.dumps({"program": b"not an arena",
                                             "state": b""}))
        assert cli_main(["analyze", base,
                         "--resume-from", str(state_path)]) == 2
        assert "snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["analyze", "{path}", "--audit"],
                                         ["check", "{path}", "--audit"]])
    def test_audits_round_trip_the_arena_tables(self, base, command, capsys):
        """``--audit`` attaches the frozen program, so the full audit —
        the tables' snapshot round trip included — runs and passes."""
        argv = [part.format(path=base) for part in command]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "AUD" not in out
