"""Answer checks, the interpreter reference and the wrong-answer canary."""

from pathlib import Path

from bench import answers as ans
from bench import pools
from bench.workloads import Context, Op, Outcome, _check


def _context(canary):
    return Context(seed=1, seconds=1.0, root=Path("."), work_dir=Path("."),
                   answers=ans.Answers.load(), canary=canary)


def test_answers_cover_every_pool_spec():
    answers = ans.Answers.load()
    for spec in pools.image_pool():
        assert {"pta", "skipflow"} <= set(answers.entry("image-fresh", spec.name))
    for spec in pools.matrix_pool():
        assert set(pools.matrix_configs()) <= set(answers.entry("matrix-store", spec.name))
    for spec in pools.daemon_pool():
        entry = answers.entry("daemon-edit", spec.name)
        assert len(entry["skipflow"]) == pools.EDIT_ROUNDS + 1
        assert "pta" in entry


def test_digest_is_order_independent():
    assert ans.digest(["b", "a"]) == ans.digest(["a", "b"])
    assert ans.edge_digest([("a", "b"), ("c", "d")]) == ans.edge_digest([["c", "d"], ["a", "b"]])
    assert ans.digest(["a"]) != ans.digest(["a", "b"])


def test_mismatches():
    expected = {"steps": 5, "reachable_digest": "abc", "joins": 1}
    assert ans.mismatches(expected, {"steps": 5, "reachable_digest": "abc"}) == []
    assert ans.mismatches(expected, {"steps": 6}) == ["steps: expected 5, got 6"]
    assert ans.mismatches(None, {"steps": 5}) == ["no expected answer"]


def test_a_fresh_build_matches_its_committed_answer():
    from repro.core.analysis import AnalysisConfig
    from repro.image.builder import NativeImageBuilder
    from repro.workloads.generator import generate_benchmark

    spec = next(spec for spec in pools.image_pool() if spec.name == "mnemonics")
    report = NativeImageBuilder(generate_benchmark(spec), AnalysisConfig.skipflow()).build()
    expected = ans.Answers.load().config("image-fresh", spec.name, "skipflow")
    assert ans.mismatches(expected, ans.image_answer(report)) == []


def test_interpreter_reference_flags_an_executed_method_marked_unreachable():
    from repro.workloads.generator import generate_benchmark

    spec = next(spec for spec in pools.image_pool() if spec.name == "mnemonics")
    program = generate_benchmark(spec)
    unreachable = ans.Answers.load().unreachable("image-fresh", spec.name)
    assert ans.interpreter_violations(program, unreachable) == []
    entry = program.entry_points[0]
    assert ans.interpreter_violations(program, unreachable + [ans.tag(entry)]) == [entry]


def test_canary_plants_a_wrong_answer_the_check_rejects():
    expected = {"steps": 10, "reachable_digest": "f" * 16}
    for canary, failed in ((False, False), (True, True)):
        outcome = Outcome()
        op = Op("image", 1.0)
        outcome.ops.append(op)
        _check(_context(canary), outcome, op, "spec/skipflow", expected, dict(expected))
        assert op.ok is not failed
        assert bool(outcome.failures) is failed
    planted = ans.plant_wrong_answer({"reachable_digest": "f" * 16})
    assert ans.mismatches({"reachable_digest": "f" * 16}, planted)


def test_canary_plants_only_once():
    expected = {"steps": 10}
    outcome = Outcome()
    ctx = _context(True)
    ops = [Op("image", 1.0), Op("image", 1.0)]
    for op in ops:
        outcome.ops.append(op)
        _check(ctx, outcome, op, "spec", expected, dict(expected))
    assert [op.ok for op in ops] == [False, True]
