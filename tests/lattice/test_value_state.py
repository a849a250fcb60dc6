"""Tests for value states (lattice L) including hypothesis lattice laws."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.ir.types import NULL_TYPE_NAME, TypeHierarchy
from repro.lattice.primitive import ANY
from repro.lattice.typeset import filter_instanceof, filter_null_comparison
from repro.lattice.value_state import ValueState


class TestConstruction:
    def test_empty(self):
        state = ValueState.empty()
        assert state.is_empty
        assert not state
        assert len(state) == 0

    def test_of_type(self):
        state = ValueState.of_type("A")
        assert state.contains_type("A")
        assert not state.is_empty
        assert state.reference_types == frozenset({"A"})

    def test_null(self):
        state = ValueState.null()
        assert state.contains_null
        assert state.is_null_only
        assert state.reference_types == frozenset()

    def test_of_int(self):
        state = ValueState.of_int(5)
        assert state.is_constant
        assert state.constant_value == 5
        assert not state.has_any

    def test_any_primitive(self):
        state = ValueState.any_primitive()
        assert state.has_any
        assert not state.is_constant
        assert state.constant_value is None

    def test_iteration_and_repr(self):
        state = ValueState.of_types(["B", "A"]).join(ValueState.of_int(2))
        assert list(state) == ["A", "B", 2]
        assert "ValueState" in repr(state)


class TestJoin:
    def test_join_with_empty(self):
        a = ValueState.of_type("A")
        assert a.join(ValueState.empty()) == a
        assert ValueState.empty().join(a) == a

    def test_join_types_is_union(self):
        joined = ValueState.of_type("A").join(ValueState.of_type("B"))
        assert joined.types == frozenset({"A", "B"})

    def test_join_same_constant(self):
        assert ValueState.of_int(1).join(ValueState.of_int(1)).constant_value == 1

    def test_join_different_constants_is_any(self):
        joined = ValueState.of_int(0).join(ValueState.of_int(1))
        assert joined.has_any

    def test_join_mixed_parts(self):
        joined = ValueState.of_type("A").join(ValueState.of_int(3))
        assert joined.contains_type("A")
        assert joined.constant_value is None  # constant plus types is not "a constant"
        assert joined.primitive == 3

    def test_leq(self):
        small = ValueState.of_type("A")
        big = ValueState.of_types(["A", "B"])
        assert small.leq(big)
        assert not big.leq(small)
        assert ValueState.empty().leq(small)
        assert ValueState.of_int(2).leq(ValueState.any_primitive())


class TestModifiers:
    def test_without_null(self):
        state = ValueState.of_types(["A", NULL_TYPE_NAME])
        assert state.without_null().types == frozenset({"A"})
        assert not state.without_null().contains_null

    def test_widen_primitive(self):
        assert ValueState.of_int(7).widen_primitive().has_any
        assert ValueState.of_type("A").widen_primitive() == ValueState.of_type("A")
        assert ValueState.any_primitive().widen_primitive().has_any

    def test_only_types_and_only_primitive(self):
        state = ValueState.of_type("A").join(ValueState.of_int(3))
        assert state.only_types() == ValueState.of_type("A")
        assert state.only_primitive() == ValueState.of_int(3)

    def test_equality_and_hash(self):
        a = ValueState.of_types(["A", "B"])
        b = ValueState.of_types(["B", "A"])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ValueState.of_type("A")
        assert a != "not a state"


#: Every route into a state, landing on empty states (names ending in
#: ``empty``) and non-empty ones.  ``int`` 0 is falsy but not the primitive
#: bottom, so it must read non-empty.
_ROUTES = {
    "direct-empty": lambda: ValueState(),
    "direct-types": lambda: ValueState(["A"]),
    "direct-int-zero": lambda: ValueState((), 0),
    "direct-any": lambda: ValueState(primitive=ANY),
    "of-empty": lambda: ValueState.of(),
    "of-mixed": lambda: ValueState.of(["A"], 0),
    "empty": ValueState.empty,
    "of_type": lambda: ValueState.of_type("A"),
    "of_types-empty": lambda: ValueState.of_types([]),
    "of_types": lambda: ValueState.of_types(["A", NULL_TYPE_NAME]),
    "null": ValueState.null,
    "of_int-zero": lambda: ValueState.of_int(0),
    "any_primitive": ValueState.any_primitive,
    "join-to-empty": lambda: ValueState().join(ValueState.empty()),
    "join": lambda: ValueState.empty().join(ValueState.of_int(0)),
    "with_types-to-empty": lambda: ValueState.of_type("A").with_types(()),
    "with_types": lambda: ValueState.empty().with_types(["A"]),
    "with_primitive-to-empty": lambda: ValueState.of_int(1).with_primitive(None),
    "only_types-to-empty": lambda: ValueState.of_int(1).only_types(),
    "only_primitive-to-empty": lambda: ValueState.of_type("A").only_primitive(),
    "only_primitive": lambda: ValueState.of_int(0).only_primitive(),
    "without_null-to-empty": lambda: ValueState.null().without_null(),
    "without_null": lambda: ValueState.of_types(["A", NULL_TYPE_NAME]).without_null(),
    "widen_primitive": lambda: ValueState.of_int(0).widen_primitive(),
}

_TRANSPORTS = {
    "as-built": lambda state: state,
    "pickle": lambda state: pickle.loads(pickle.dumps(state)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestIsEmpty:
    """``is_empty`` is set once in ``__init__``; every route must agree with
    the lattice definition of bottom."""

    @pytest.mark.parametrize("transport", sorted(_TRANSPORTS))
    @pytest.mark.parametrize("route", sorted(_ROUTES))
    def test_every_route_agrees_with_the_definition(self, route, transport):
        state = _TRANSPORTS[transport](_ROUTES[route]())
        expected = not state.types and state.primitive is None
        assert state.is_empty is expected
        assert bool(state) is not expected
        assert expected is route.endswith("empty")

    def test_direct_construction_is_not_interned(self):
        state = ValueState()
        assert state is not ValueState.empty()
        assert state.is_empty


class TestTypeSetFilters:
    def setup_method(self):
        self.hierarchy = TypeHierarchy()
        self.hierarchy.declare_class("Animal")
        self.hierarchy.declare_class("Dog", superclass="Animal")
        self.hierarchy.declare_class("Cat", superclass="Animal")

    def test_instanceof_keeps_subtypes(self):
        state = ValueState.of_types(["Dog", "Cat"])
        filtered = filter_instanceof(state, self.hierarchy, "Dog")
        assert filtered.types == frozenset({"Dog"})

    def test_instanceof_negated_keeps_non_subtypes(self):
        state = ValueState.of_types(["Dog", "Cat"])
        filtered = filter_instanceof(state, self.hierarchy, "Dog", negated=True)
        assert filtered.types == frozenset({"Cat"})

    def test_null_fails_positive_instanceof(self):
        state = ValueState.of_types(["Dog", NULL_TYPE_NAME])
        assert filter_instanceof(state, self.hierarchy, "Animal").types == frozenset({"Dog"})

    def test_null_passes_negated_instanceof(self):
        state = ValueState.of_types(["Dog", NULL_TYPE_NAME])
        filtered = filter_instanceof(state, self.hierarchy, "Animal", negated=True)
        assert filtered.types == frozenset({NULL_TYPE_NAME})

    def test_primitive_never_passes_type_check(self):
        assert filter_instanceof(ValueState.of_int(1), self.hierarchy, "Animal").is_empty

    def test_null_comparison_keep_null(self):
        state = ValueState.of_types(["Dog", NULL_TYPE_NAME])
        assert filter_null_comparison(state, keep_null=True) == ValueState.null()
        assert filter_null_comparison(ValueState.of_type("Dog"), keep_null=True).is_empty

    def test_null_comparison_drop_null(self):
        state = ValueState.of_types(["Dog", NULL_TYPE_NAME])
        assert filter_null_comparison(state, keep_null=False).types == frozenset({"Dog"})


_states = st.builds(
    lambda types, prim: ValueState.of_types(types).join(prim),
    st.sets(st.sampled_from(["A", "B", "C", NULL_TYPE_NAME]), max_size=3),
    st.sampled_from([ValueState.empty(), ValueState.of_int(0), ValueState.of_int(1),
                     ValueState.any_primitive()]),
)


class TestLatticeLaws:
    @given(_states, _states)
    def test_join_commutative(self, a, b):
        assert a.join(b) == b.join(a)

    @given(_states, _states, _states)
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @given(_states)
    def test_join_idempotent(self, a):
        assert a.join(a) == a

    @given(_states, _states)
    def test_join_is_upper_bound(self, a, b):
        joined = a.join(b)
        assert a.leq(joined)
        assert b.leq(joined)

    @given(_states, _states)
    def test_leq_antisymmetric_on_equal_joins(self, a, b):
        if a.leq(b) and b.leq(a):
            assert a == b

    @given(_states)
    def test_empty_is_bottom(self, a):
        assert ValueState.empty().leq(a)
        assert ValueState.empty().join(a) == a
