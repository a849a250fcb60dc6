"""ProgramDelta edit scripts, fingerprints, and the monotone-delta guard."""

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.delta import (
    DeltaError,
    NonMonotoneDeltaError,
    ProgramDelta,
    ProgramFingerprint,
    diff_fingerprints,
    diff_programs,
)
from repro.lang import compile_source

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


def base_program():
    return compile_source(BASE_SOURCE)


def variant_delta(name="grow"):
    delta = ProgramDelta(name)
    delta.declare_class("Impl2", superclass="Base")
    mb = delta.method("Impl2", "run", return_type="int")
    value = mb.assign_int(3)
    mb.return_(value)
    delta.finish_method(mb)
    delta.declare_class("Grower")
    mb = delta.method("Grower", "go", is_static=True)
    obj = mb.assign_new("Impl2")
    mb.invoke_virtual(obj, "run", result_type="int")
    mb.return_void()
    delta.finish_method(mb)
    delta.add_entry_point("Grower.go")
    return delta


class TestProgramDelta:
    def test_builder_surface_records_without_applying(self):
        program = base_program()
        delta = variant_delta()
        assert delta.class_names == ("Impl2", "Grower")
        assert delta.method_names == ("Impl2.run", "Grower.go")
        assert delta.entry_points == ("Grower.go",)
        assert not delta.is_empty
        # Nothing landed yet.
        assert "Impl2" not in program.hierarchy
        assert "Grower.go" not in program.methods

    def test_apply_to_lands_everything(self):
        program = base_program()
        applied = variant_delta().apply_to(program)
        assert applied.monotone
        assert "Impl2" in program.hierarchy
        assert program.hierarchy.is_subtype("Impl2", "Base")
        assert "Grower.go" in program.methods
        assert "Grower.go" in program.entry_points
        # The new override resolves for the new receiver type.
        sig = program.hierarchy.resolve("Impl2", "run")
        assert sig is not None and sig.qualified_name == "Impl2.run"

    def test_fields_on_new_classes_are_monotone(self):
        program = base_program()
        delta = ProgramDelta()
        delta.declare_class("Holder")
        delta.declare_field("Holder", "cached", "Base")
        assert delta.is_monotone_for(program)
        applied = delta.apply_to(program, require_monotone=True)
        assert applied.added_fields == ("Holder.cached",)
        assert "cached" in program.hierarchy.get("Holder").fields

    def test_method_on_existing_class_is_non_monotone(self):
        program = base_program()
        delta = ProgramDelta()
        mb = delta.method("Main", "helper", is_static=True)
        mb.return_void()
        delta.finish_method(mb)
        reasons = delta.non_monotone_reasons(program)
        assert reasons and "Main.helper" in reasons[0]
        with pytest.raises(NonMonotoneDeltaError, match="Main.helper"):
            delta.apply_to(program, require_monotone=True)
        # But it is still appliable without the guard.
        applied = delta.apply_to(program)
        assert not applied.monotone
        assert "Main.helper" in program.methods

    def test_field_on_existing_class_is_non_monotone(self):
        program = base_program()
        delta = ProgramDelta()
        delta.declare_field("Impl", "shadow", "Base")
        assert not delta.is_monotone_for(program)
        with pytest.raises(NonMonotoneDeltaError, match="shadow"):
            delta.apply_to(program, require_monotone=True)

    def test_structural_errors_always_raise(self):
        program = base_program()
        redeclare = ProgramDelta()
        redeclare.declare_class("Impl")
        with pytest.raises(DeltaError, match="redeclares"):
            redeclare.apply_to(program)

        unknown_super = ProgramDelta()
        unknown_super.declare_class("Orphan", superclass="Missing")
        with pytest.raises(DeltaError, match="unknown class"):
            unknown_super.apply_to(program)

        bad_entry = ProgramDelta()
        bad_entry.add_entry_point("Nobody.nowhere")
        with pytest.raises(DeltaError, match="entry point"):
            bad_entry.apply_to(program)

        redefine = ProgramDelta()
        mb = redefine.method("Main", "main", is_static=True)
        mb.return_void()
        redefine.finish_method(mb)
        with pytest.raises(DeltaError, match="redefines"):
            redefine.apply_to(program)

    def test_apply_to_costs_the_delta_not_the_program(self, monkeypatch):
        """Checks probe the program by membership and never walk it.

        A rehydrating daemon session replays its whole delta log, so a
        check that copied every class and method name per delta would make
        a replay cost the log length times the program size.
        """
        class NoWalk(dict):
            def __iter__(self):
                raise AssertionError("apply_to walked the program's methods")

        def no_class_names(self):
            raise AssertionError("apply_to listed the program's classes")

        program = base_program()
        program.methods = NoWalk(program.methods)
        monkeypatch.setattr(type(program.hierarchy), "class_names",
                            property(no_class_names))
        variant_delta().apply_to(program)
        assert "Impl2.run" in program.methods
        orphan = ProgramDelta()
        orphan.declare_class("Orphan", superclass="Missing")
        with pytest.raises(DeltaError, match="unknown class"):
            orphan.apply_to(program)
        bad_entry = ProgramDelta()
        bad_entry.add_entry_point("Nobody.nowhere")
        with pytest.raises(DeltaError, match="entry point"):
            bad_entry.apply_to(program)

    def test_duplicates_within_a_delta_rejected(self):
        delta = ProgramDelta()
        delta.declare_class("Once")
        with pytest.raises(DeltaError, match="twice"):
            delta.declare_class("Once")

    def test_add_call_site_builds_a_rooted_bridge(self):
        program = base_program()
        delta = ProgramDelta()
        bridge = delta.add_call_site("Main", "main")
        assert bridge == "MainCall0.invoke"
        assert delta.is_monotone_for(program)
        delta.apply_to(program, require_monotone=True)
        assert bridge in program.methods
        assert bridge in program.entry_points

    def test_entry_point_to_existing_method_is_monotone(self):
        program = base_program()
        delta = ProgramDelta()
        delta.add_entry_point("Impl.run")
        assert delta.is_monotone_for(program)
        delta.apply_to(program, require_monotone=True)
        assert "Impl.run" in program.entry_points


class TestFingerprints:
    def test_identical_programs_diff_empty_and_monotone(self):
        delta = diff_programs(base_program(), base_program())
        assert delta.is_monotone
        assert delta.is_empty

    def test_additive_edit_is_monotone(self):
        old = base_program()
        new = base_program()
        variant_delta().apply_to(new)
        delta = diff_programs(old, new)
        assert delta.is_monotone
        assert delta.added_classes == ("Grower", "Impl2")
        assert delta.added_methods == ("Grower.go", "Impl2.run")
        assert delta.added_entry_points == ("Grower.go",)

    def test_body_change_is_a_violation(self):
        changed = BASE_SOURCE.replace("return 2", "return 7")
        delta = diff_programs(base_program(), compile_source(changed))
        assert not delta.is_monotone
        assert any("Impl.run" in violation and "body" in violation
                   for violation in delta.violations)

    def test_removal_is_a_violation(self):
        shrunk = compile_source("""
class Base { int run() { return 1; } }
class Main { static void main() { Base b = new Base(); b.run(); } }
""")
        delta = diff_programs(base_program(), shrunk)
        assert not delta.is_monotone
        assert any("removed" in violation for violation in delta.violations)

    def test_method_added_to_existing_class_is_a_violation(self):
        new = base_program()
        add = ProgramDelta()
        mb = add.method("Impl", "extra", is_static=True)
        mb.return_void()
        add.finish_method(mb)
        add.apply_to(new)  # appliable, just not monotone
        delta = diff_programs(base_program(), new)
        assert not delta.is_monotone
        assert any("pre-existing class Impl" in violation
                   for violation in delta.violations)

    def test_new_field_on_existing_class_is_a_violation(self):
        new = base_program()
        new.hierarchy.get("Impl").declare_field("shadow", "Base")
        delta = diff_programs(base_program(), new)
        assert not delta.is_monotone
        assert any("fields" in violation for violation in delta.violations)

    def test_fingerprint_is_deterministic_and_picklable(self):
        import pickle

        first = ProgramFingerprint.of(base_program())
        second = ProgramFingerprint.of(base_program())
        assert first == second
        assert pickle.loads(pickle.dumps(first)) == first

    def test_fields_of_new_classes_are_reported(self):
        pb = ProgramBuilder()
        pb.declare_class("Holder")
        pb.declare_field("Holder", "cached", "Object")
        delta = diff_fingerprints(ProgramFingerprint.of(base_program()),
                                  ProgramFingerprint.of(pb.build()))
        # Holder is new, Base/Impl/Main were removed: not monotone, but the
        # added field is still reported.
        assert "Holder.cached" in delta.added_fields
        assert not delta.is_monotone
