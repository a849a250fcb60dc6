"""Tests for the type hierarchy: subtyping, LookUp, and Resolve."""

import pytest

from repro.ir.types import (
    NULL_TYPE_NAME,
    MethodSignature,
    TypeHierarchy,
    TypeSystemError,
)


@pytest.fixture
def hierarchy():
    h = TypeHierarchy()
    h.declare_class("Animal")
    h.declare_class("Dog", superclass="Animal")
    h.declare_class("Puppy", superclass="Dog")
    h.declare_class("Cat", superclass="Animal")
    h.declare_class("Walkable", is_interface=True)
    h.declare_class("Robot", interfaces=("Walkable",))
    h.declare_class("AbstractShape", is_abstract=True)
    h.declare_class("Circle", superclass="AbstractShape")
    return h


class TestDeclarations:
    def test_object_is_predeclared(self, hierarchy):
        assert "Object" in hierarchy

    def test_duplicate_class_rejected(self, hierarchy):
        with pytest.raises(TypeSystemError):
            hierarchy.declare_class("Dog")

    def test_null_cannot_be_declared(self, hierarchy):
        with pytest.raises(TypeSystemError):
            hierarchy.declare_class(NULL_TYPE_NAME)

    def test_unknown_class_lookup_raises(self, hierarchy):
        with pytest.raises(TypeSystemError):
            hierarchy.get("Nonexistent")

    def test_class_names_listed(self, hierarchy):
        assert "Dog" in hierarchy.class_names
        assert "Object" in hierarchy.class_names


class TestSubtyping:
    def test_reflexive(self, hierarchy):
        assert hierarchy.is_subtype("Dog", "Dog")

    def test_direct_superclass(self, hierarchy):
        assert hierarchy.is_subtype("Dog", "Animal")

    def test_transitive(self, hierarchy):
        assert hierarchy.is_subtype("Puppy", "Animal")

    def test_not_symmetric(self, hierarchy):
        assert not hierarchy.is_subtype("Animal", "Dog")

    def test_siblings_unrelated(self, hierarchy):
        assert not hierarchy.is_subtype("Cat", "Dog")

    def test_everything_subtype_of_object(self, hierarchy):
        for name in ("Animal", "Puppy", "Robot", "Walkable"):
            assert hierarchy.is_subtype(name, "Object")

    def test_interface_implementation(self, hierarchy):
        assert hierarchy.is_subtype("Robot", "Walkable")

    def test_null_is_subtype_of_everything(self, hierarchy):
        assert hierarchy.is_subtype(NULL_TYPE_NAME, "Dog")
        assert hierarchy.is_subtype(NULL_TYPE_NAME, "Object")

    def test_nothing_is_subtype_of_null(self, hierarchy):
        assert not hierarchy.is_subtype("Dog", NULL_TYPE_NAME)

    def test_supertypes_include_self_and_object(self, hierarchy):
        supertypes = hierarchy.supertypes("Puppy")
        assert {"Puppy", "Dog", "Animal", "Object"} <= set(supertypes)

    def test_all_subtypes(self, hierarchy):
        assert set(hierarchy.all_subtypes("Animal")) == {"Animal", "Dog", "Puppy", "Cat"}

    def test_direct_subclasses(self, hierarchy):
        assert set(hierarchy.direct_subclasses("Animal")) == {"Dog", "Cat"}

    def test_instantiable_excludes_abstract_and_interfaces(self, hierarchy):
        assert "AbstractShape" not in hierarchy.instantiable_subtypes("AbstractShape")
        assert "Circle" in hierarchy.instantiable_subtypes("AbstractShape")
        assert "Walkable" not in hierarchy.instantiable_subtypes("Walkable")
        assert "Robot" in hierarchy.instantiable_subtypes("Walkable")


class TestFieldLookup:
    def test_field_on_declaring_class(self, hierarchy):
        hierarchy.get("Animal").declare_field("name", "Object")
        decl = hierarchy.lookup_field("Animal", "name")
        assert decl is not None
        assert decl.declaring_class == "Animal"

    def test_field_inherited(self, hierarchy):
        hierarchy.get("Animal").declare_field("name", "Object")
        decl = hierarchy.lookup_field("Puppy", "name")
        assert decl is not None
        assert decl.declaring_class == "Animal"

    def test_field_shadowing_prefers_subclass(self, hierarchy):
        hierarchy.get("Animal").declare_field("tag", "Object")
        hierarchy.get("Dog").declare_field("tag", "Object")
        assert hierarchy.lookup_field("Puppy", "tag").declaring_class == "Dog"

    def test_missing_field_returns_none(self, hierarchy):
        assert hierarchy.lookup_field("Dog", "missing") is None

    def test_null_receiver_returns_none(self, hierarchy):
        assert hierarchy.lookup_field(NULL_TYPE_NAME, "anything") is None

    def test_qualified_name(self, hierarchy):
        decl = hierarchy.get("Dog").declare_field("owner", "Object")
        assert decl.qualified_name == "Dog.owner"

    def test_primitive_field(self, hierarchy):
        decl = hierarchy.get("Dog").declare_field("age", "int")
        assert decl.is_primitive


class TestResolve:
    def _declare(self, hierarchy, class_name, method_name):
        signature = MethodSignature(class_name, method_name)
        hierarchy.get(class_name).declare_method(signature)
        return signature

    def test_resolve_on_declaring_class(self, hierarchy):
        self._declare(hierarchy, "Dog", "bark")
        assert hierarchy.resolve("Dog", "bark").qualified_name == "Dog.bark"

    def test_resolve_walks_superclasses(self, hierarchy):
        self._declare(hierarchy, "Animal", "eat")
        assert hierarchy.resolve("Puppy", "eat").qualified_name == "Animal.eat"

    def test_resolve_prefers_override(self, hierarchy):
        self._declare(hierarchy, "Animal", "speak")
        self._declare(hierarchy, "Dog", "speak")
        assert hierarchy.resolve("Puppy", "speak").qualified_name == "Dog.speak"

    def test_resolve_missing_returns_none(self, hierarchy):
        assert hierarchy.resolve("Dog", "fly") is None

    def test_resolve_on_null_returns_none(self, hierarchy):
        self._declare(hierarchy, "Dog", "bark")
        assert hierarchy.resolve(NULL_TYPE_NAME, "bark") is None

    def test_resolve_interface_default(self, hierarchy):
        self._declare(hierarchy, "Walkable", "walk")
        assert hierarchy.resolve("Robot", "walk").qualified_name == "Walkable.walk"

    def test_resolve_all_deduplicates(self, hierarchy):
        self._declare(hierarchy, "Animal", "eat")
        targets = hierarchy.resolve_all(["Dog", "Cat", "Puppy"], "eat")
        assert [t.qualified_name for t in targets] == ["Animal.eat"]

    def test_resolve_all_multiple_targets(self, hierarchy):
        self._declare(hierarchy, "Dog", "speak")
        self._declare(hierarchy, "Cat", "speak")
        targets = hierarchy.resolve_all(["Dog", "Cat"], "speak")
        assert {t.qualified_name for t in targets} == {"Dog.speak", "Cat.speak"}

    def test_declare_method_on_wrong_class_rejected(self, hierarchy):
        with pytest.raises(TypeSystemError):
            hierarchy.get("Dog").declare_method(MethodSignature("Cat", "meow"))


class TestMethodSignature:
    def test_num_params_includes_receiver(self):
        signature = MethodSignature("Service", "handle", ("Request",))
        assert signature.num_params == 2

    def test_static_has_no_receiver(self):
        signature = MethodSignature("Service", "create", ("Request",), is_static=True)
        assert signature.num_params == 1

    def test_returns_value(self):
        assert MethodSignature("A", "m", return_type="int").returns_value
        assert not MethodSignature("A", "m", return_type="void").returns_value

    def test_returns_reference(self):
        assert MethodSignature("A", "m", return_type="Dog").returns_reference
        assert not MethodSignature("A", "m", return_type="int").returns_reference


class TestPickling:
    def test_query_caches_are_left_out(self, hierarchy):
        import copy
        import pickle

        before = pickle.dumps(hierarchy)
        assert hierarchy.is_subtype("Puppy", "Animal")
        assert hierarchy.instantiable_subtypes("Animal")
        assert pickle.dumps(hierarchy) == before
        for clone in (pickle.loads(before), copy.copy(hierarchy)):
            assert clone._subtype_cache == {}
            assert clone._instantiable_subtypes_cache == {}
            assert not clone._instantiable_cache_complete
            assert clone.is_subtype("Puppy", "Animal")
            assert not clone.is_subtype("Cat", "Dog")

    def test_program_pickle_unchanged_by_analysis(self):
        """An image build and a solve leave a program's pickle byte-equal."""
        import pickle

        from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
        from repro.image.builder import NativeImageBuilder
        from repro.workloads.generator import generate_benchmark, spec_from_reduction

        program = generate_benchmark(spec_from_reduction(
            name="pickle-spec", suite="test", total_methods=70,
            reduction_percent=10.0))
        before = pickle.dumps(program)
        NativeImageBuilder(program, AnalysisConfig.skipflow()).build()
        SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
        assert pickle.dumps(program) == before
