"""Tests for the CHA / RTA / PTA baselines and their relative precision."""

import pytest

from repro.baselines.cha import ClassHierarchyAnalysis
from repro.baselines.pta import run_pta
from repro.baselines.rta import RapidTypeAnalysis
from repro.core.analysis import run_skipflow
from repro.lang import compile_source

SOURCE = """
class Shape {
    void draw() { }
}
class Circle extends Shape {
    void draw() { CircleRenderer.render(); }
}
class Square extends Shape {
    void draw() { SquareRenderer.render(); }
}
class CircleRenderer { static void render() { } }
class SquareRenderer { static void render() { } }
class Canvas {
    void paint(Shape shape) { shape.draw(); }
}
class Main {
    static void main() {
        Canvas canvas = new Canvas();
        Shape shape = new Circle();
        canvas.paint(shape);
    }
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE, entry_points=["Main.main"])


class TestCHA:
    def test_cha_uses_all_declared_subtypes(self, program):
        result = ClassHierarchyAnalysis(program).run()
        # CHA cannot tell that Square is never instantiated.
        assert result.is_method_reachable("Circle.draw")
        assert result.is_method_reachable("Square.draw")
        assert result.is_method_reachable("SquareRenderer.render")

    def test_cha_call_edges(self, program):
        result = ClassHierarchyAnalysis(program).run()
        assert ("Canvas.paint", "Circle.draw") in result.call_edges
        assert ("Canvas.paint", "Square.draw") in result.call_edges
        assert "Circle.draw" in result.callees_of("Canvas.paint")

    def test_cha_instantiated_types_recorded(self, program):
        result = ClassHierarchyAnalysis(program).run()
        assert "Circle" in result.instantiated_types
        assert "Square" not in result.instantiated_types

    def test_cha_requires_roots(self, program):
        with pytest.raises(ValueError):
            ClassHierarchyAnalysis(program).run(roots=[])

    def test_cha_explicit_roots(self, program):
        result = ClassHierarchyAnalysis(program).run(roots=["Circle.draw"])
        assert result.is_method_reachable("CircleRenderer.render")
        assert not result.is_method_reachable("Main.main")


class TestRTA:
    def test_rta_restricts_to_instantiated_types(self, program):
        result = RapidTypeAnalysis(program).run()
        assert result.is_method_reachable("Circle.draw")
        assert not result.is_method_reachable("Square.draw")
        assert not result.is_method_reachable("SquareRenderer.render")

    def test_rta_more_precise_than_cha(self, program):
        cha = ClassHierarchyAnalysis(program).run()
        rta = RapidTypeAnalysis(program).run()
        assert rta.reachable_methods <= cha.reachable_methods
        assert rta.reachable_method_count < cha.reachable_method_count

    def test_rta_handles_allocation_after_call_site(self):
        # The call site is processed before the second allocation is seen; the
        # fixed point must still add the late target.
        source = """
            class Handler { void on() { } }
            class LateHandler extends Handler { void on() { LateLib.touch(); } }
            class LateLib { static void touch() { } }
            class Main {
                static void dispatch(Handler handler) { handler.on(); }
                static void main() {
                    Main.dispatch(new Handler());
                    Handler late = new LateHandler();
                    Main.dispatch(late);
                }
            }
        """
        program = compile_source(source, entry_points=["Main.main"])
        result = RapidTypeAnalysis(program).run()
        assert result.is_method_reachable("LateHandler.on")
        assert result.is_method_reachable("LateLib.touch")

    def test_rta_instantiates_the_types_a_root_parameter_admits(self):
        # A root's caller is outside the program: any subtype of its
        # declared parameter type may arrive, allocated in the program or not.
        source = """
            class Handler { void on() { } }
            class FastHandler extends Handler { void on() { } }
            class Unrelated { void on() { } }
            class Host {
                static void serve(Handler handler) { handler.on(); }
            }
            class Main { static void main() { } }
        """
        program = compile_source(source,
                                 entry_points=["Main.main", "Host.serve"])
        result = RapidTypeAnalysis(program).run()
        assert {"Handler", "FastHandler"} <= result.instantiated_types
        assert "Unrelated" not in result.instantiated_types
        assert result.is_method_reachable("Handler.on")
        assert result.is_method_reachable("FastHandler.on")
        assert not result.is_method_reachable("Unrelated.on")

    def test_rta_static_call_resolution(self, program):
        result = RapidTypeAnalysis(program).run()
        assert result.is_method_reachable("CircleRenderer.render")


class TestPrecisionOrdering:
    def test_pta_at_least_as_precise_as_rta(self, program):
        rta = RapidTypeAnalysis(program).run()
        pta = run_pta(program)
        assert pta.reachable_method_count <= rta.reachable_method_count

    def test_skipflow_at_least_as_precise_as_pta(self, program):
        pta = run_pta(program)
        skipflow = run_skipflow(program)
        assert skipflow.reachable_method_count <= pta.reachable_method_count

    def test_all_analyses_keep_truly_reachable_code(self, program):
        """Soundness cross-check: code that definitely executes is kept by all."""
        must_be_reachable = ["Main.main", "Canvas.paint", "Circle.draw",
                             "CircleRenderer.render"]
        analyses = [
            ClassHierarchyAnalysis(program).run(),
            RapidTypeAnalysis(program).run(),
            run_pta(program),
            run_skipflow(program),
        ]
        for analysis in analyses:
            for method in must_be_reachable:
                assert analysis.is_method_reachable(method), (
                    f"{method} missing from {analysis}")
