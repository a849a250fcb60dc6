"""The arena kernel's link fast paths: new work only, the reference's answers.

A solve-time use edge is deduplicated by one integer edge key, and an
invoke re-link resolves only the receiver types it has not resolved yet in
this solve.  Each program here drives one of those paths, and the kernel
must still reach the executable specification's fixpoint
(:mod:`repro.checks.reference`: reachable set, linked callees, every
flow's state), with the same counters on attached and lowered columns:

* one argument flow passed to the same callee from two call sites, whose
  second link finds the edge already there;
* a load whose receiver types resolve to one inherited field, so two
  receiver types link the same field edge;
* a receiver state that grows over three re-links;
* a warm resume over an extended arena after a delta adds a subclass of an
  old receiver type, where the re-link memo starts empty again.
"""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.ir.arena import freeze, open_program
from repro.ir.delta import ProgramDelta
from repro.ir.types import TypeHierarchy
from repro.lang import compile_source
from tests.conftest import fixpoint_signature, reference_divergences

TWO_CALL_SITES = """
class Item { }
class Sink {
    static void take(Item item) { }
}
class Main {
    static void main() {
        Item item = new Item();
        Sink.take(item);
        Sink.take(item);
    }
}
"""

INHERITED_FIELD = """
class Payload { }
class Base {
    Payload slot;
}
class Left extends Base { }
class Right extends Base { }
class Main {
    static boolean pick() { return true; }
    static void main() {
        Base holder = new Left();
        if (Main.pick()) {
            holder = new Right();
        }
        holder.slot = new Payload();
        Payload read = holder.slot;
    }
}
"""

GROWING_RECEIVER = """
class Shape {
    void draw() { }
}
class Circle extends Shape {
    void draw() { }
}
class Square extends Shape {
    void draw() { }
}
class Star extends Shape {
    void draw() { }
}
class Canvas {
    static void paint(Shape shape) {
        shape.draw();
    }
    static void second() {
        Canvas.paint(new Square());
        Canvas.third();
    }
    static void third() {
        Canvas.paint(new Star());
    }
}
class Main {
    static void main() {
        Canvas.paint(new Circle());
        Canvas.second();
    }
}
"""

#: ``Host.boot`` is a root whose parameter is seeded with every subtype of
#: ``Shape``; ``Main.main`` hands ``Circle`` to ``Canvas.paint``.
RESUMED_RECEIVER = """
class Shape {
    void draw() { }
}
class Circle extends Shape {
    void draw() { }
}
class Canvas {
    static void paint(Shape shape) {
        shape.draw();
    }
}
class Host {
    static void boot(Shape shape) {
        shape.draw();
    }
}
class Main {
    static void main() {
        Canvas.paint(new Circle());
    }
}
"""

CONFIGS = {
    "skipflow": AnalysisConfig.skipflow(),
    "pta": AnalysisConfig.baseline_pta(),
    "allocated-type@1": AnalysisConfig.skipflow().with_saturation_policy(
        "allocated-type", 1),
}


def _program(source, roots=()):
    program = compile_source(source)
    for root in roots:
        program.add_entry_point(root)
    return program


def _answers(result):
    state = result.solver_state
    return (result.stats, result.stub_methods,
            fixpoint_signature(state.pvpg, state.reachable))


def _assert_matches_reference(program, config):
    """Solve ``program``'s attached freeze; return the result."""
    lowered = SkipFlowAnalysis(program, config).run()
    arena = SkipFlowAnalysis(open_program(freeze(program)), config).run()
    assert not reference_divergences(arena)
    assert _answers(arena) == _answers(lowered)
    return arena


@pytest.fixture
def resolved(monkeypatch):
    """Every ``(receiver type, method)`` pair either kernel resolves."""
    calls = []
    resolve = TypeHierarchy.resolve

    def recording(hierarchy, receiver_type, method_name):
        calls.append((receiver_type, method_name))
        return resolve(hierarchy, receiver_type, method_name)

    monkeypatch.setattr(TypeHierarchy, "resolve", recording)
    return calls


def _solve_time_edges(result):
    tables = result.arena_state
    return [(source, target) for source, targets in tables.extra_uses.items()
            for target in targets]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_duplicate_argument_edge_is_added_once(config):
    arena = _assert_matches_reference(_program(TWO_CALL_SITES), CONFIGS[config])
    tables = arena.arena_state
    program = arena.kernel_backend.arena
    mid = program.mid_of("Sink.take")
    parameter = program.method_param_val[program.method_param_ptr[mid]]
    edges = _solve_time_edges(arena)
    # Both call sites pass the one ``item`` flow to ``take``'s parameter:
    # the second link finds that edge already there.
    assert len(edges) == len(set(edges))
    assert [target for _, target in edges].count(parameter) == 1
    assert tables.edge_keys == {source << 32 | target
                                for source, target in edges}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_a_load_through_an_inherited_field_links_one_edge(config):
    arena = _assert_matches_reference(_program(INHERITED_FIELD), CONFIGS[config])
    assert arena.field_state("Base.slot").types == frozenset({"Payload"})
    tables = arena.arena_state
    field = arena.kernel_backend.arena.field_fid("Base.slot")
    # One store edge into the field and one load edge out of it, although
    # ``Left`` and ``Right`` each resolve the field on both.
    assert len(tables.extra_uses[field]) == 1
    assert sum(targets.count(field)
               for targets in tables.extra_uses.values()) == 1


def test_a_growing_receiver_resolves_each_type_once(resolved):
    config = AnalysisConfig.skipflow()
    program = open_program(freeze(_program(GROWING_RECEIVER)))
    arena = SkipFlowAnalysis(program, config).run()
    arena_draws = [receiver for receiver, method in resolved
                   if method == "draw"]
    assert not reference_divergences(arena)
    # ``shape.draw()`` is linked three times as its receiver set grows; the
    # kernel resolves only the types each link adds.
    assert arena_draws == ["Circle", "Square", "Star"]
    assert {"Circle.draw", "Square.draw", "Star.draw"} <= (
        arena.reachable_methods)


def _star_delta():
    delta = ProgramDelta("star")
    delta.declare_class("Star", superclass="Circle")
    mb = delta.method("Star", "draw")
    mb.return_void()
    delta.finish_method(mb)
    return delta


@pytest.mark.parametrize("config", ["skipflow", "allocated-type@1"])
def test_a_resume_after_a_new_subclass_re_resolves_old_types(config,
                                                              resolved):
    """The re-link memo belongs to one solve: the resume's first re-link of
    ``Host.boot``'s call resolves the old receiver types again, not only
    the ``Star`` the re-played root seed adds."""
    config = CONFIGS[config]
    plain = _program(RESUMED_RECEIVER, roots=("Host.boot",))
    attached = open_program(freeze(plain))
    lowered = SkipFlowAnalysis(plain, config).run()
    arenas = SkipFlowAnalysis(attached, config).run()
    state = arenas.arena_state
    assert _answers(arenas) == _answers(lowered)
    for program in (plain, attached):
        _star_delta().apply_to(program, require_monotone=True)
    lowered = SkipFlowAnalysis(plain, config, state=lowered.arena_state).run()
    del resolved[:]
    arenas = SkipFlowAnalysis(attached, config, state=state).run()
    draws = {receiver for receiver, method in resolved if method == "draw"}
    assert arenas.arena_state is state
    assert not reference_divergences(arenas)
    assert _answers(arenas) == _answers(lowered)
    assert "Star.draw" in arenas.reachable_methods
    assert {"Circle", "Shape", "Star"} <= draws
    cold = SkipFlowAnalysis(plain, config).run()
    assert _answers(arenas)[2] == _answers(cold)[2]


def test_a_restored_state_rebuilds_its_edge_keys():
    program = open_program(freeze(_program(GROWING_RECEIVER)))
    config = AnalysisConfig.skipflow()
    state = SkipFlowAnalysis(program, config).run().arena_state
    restored = ArenaSolverState.from_bytes(state.to_bytes(program), program)
    assert restored.edge_keys
    assert restored.edge_keys == state.edge_keys
