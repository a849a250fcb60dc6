"""Value states: elements of the combined lattice ``L`` (Appendix B.2).

A value state is a set whose members are type names (strings, with ``null``
modelled as the special type ``"null"``) and at most one primitive element
(an integer constant or ``Any``).  Joining two different integer constants
yields ``Any``, matching the primitive lattice ``P``; joining type sets is
set union, matching the subset lattice ``S``.

Value states are immutable and hashable so they can be compared cheaply by
the fixed-point solver to detect changes.  On top of that, both the type
sets and the value states themselves are *hash-consed*: every factory and
every lattice operation routes through intern tables, so structurally equal
states produced on the solver's hot path are usually the very same object
and equality checks short-circuit on identity.  Interning is purely an
optimization — ``__eq__`` stays structural, so directly constructed
(non-interned) instances still compare correctly — which also means the
bounded intern tables can be dropped at any time without affecting results.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple, Union

from repro.ir.types import NULL_TYPE_NAME
from repro.lattice.primitive import ANY, AnyValue, PrimitiveElement, join_constants

#: A canonical (interned) set of type names: the reference part of a state.
TypeSet = FrozenSet[str]

#: Intern tables are bounded so a long-lived process running many benchmarks
#: back to back cannot grow them without limit; when full they are simply
#: cleared (safe: interning is only a fast path, never a correctness need).
_INTERN_LIMIT = 1 << 16

_TYPE_SET_TABLE: Dict[TypeSet, TypeSet] = {}
_EMPTY_TYPE_SET: TypeSet = frozenset()


def intern_types(types: Iterable[str]) -> TypeSet:
    """Return the canonical ``frozenset`` for ``types``.

    Two calls with equal contents return the *same* object, so callers can
    compare interned type sets with ``is`` before falling back to ``==``.
    """
    key = types if isinstance(types, frozenset) else frozenset(types)
    if not key:
        return _EMPTY_TYPE_SET
    cached = _TYPE_SET_TABLE.get(key)
    if cached is not None:
        return cached
    if len(_TYPE_SET_TABLE) >= _INTERN_LIMIT:
        _TYPE_SET_TABLE.clear()
    _TYPE_SET_TABLE[key] = key
    return key


class ValueState:
    """An immutable element of the lattice ``L``.

    The state is decomposed into a reference part (``types``: a frozenset of
    type names, possibly containing ``null``) and a primitive part
    (``primitive``: ``None`` for Empty, an ``int`` constant, or ``ANY``).
    Well-typed programs only ever populate one of the two parts for a given
    flow; keeping both makes the solver uniform and robust.
    """

    __slots__ = ("_types", "_primitive", "_ref_types", "is_empty")

    def __init__(self, types: Iterable[str] = (), primitive: PrimitiveElement = None):
        self._types: TypeSet = intern_types(types)
        self._primitive: PrimitiveElement = primitive
        #: True for the lattice bottom.  A plain attribute, not a property:
        #: states are immutable and every route into one (the factories,
        #: ``_make``, unpickling and copying through :meth:`ValueState.of`)
        #: runs ``__init__``, so it is computed once per state instead of on
        #: each of the solvers' millions of reads.
        self.is_empty: bool = not self._types and primitive is None
        # Lazily memoized ``types - {null}`` (hot in invoke/field linking).
        self._ref_types: Optional[TypeSet] = None

    # ------------------------------------------------------------------ #
    # Hash-consing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(types: Iterable[str], primitive: PrimitiveElement) -> "ValueState":
        """The interning constructor every factory and lattice op routes through."""
        canonical = intern_types(types)
        key = (canonical, primitive)
        cached = _STATE_TABLE.get(key)
        if cached is not None:
            return cached
        if len(_STATE_TABLE) >= _INTERN_LIMIT:
            _STATE_TABLE.clear()
        state = ValueState(canonical, primitive)
        _STATE_TABLE[key] = state
        return state

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def of(types: Iterable[str] = (), primitive: PrimitiveElement = None) -> "ValueState":
        """General interning factory: prefer this over direct construction."""
        return ValueState._make(types, primitive)

    @staticmethod
    def empty() -> "ValueState":
        return _EMPTY

    @staticmethod
    def of_type(type_name: str) -> "ValueState":
        return ValueState._make((type_name,), None)

    @staticmethod
    def of_types(type_names: Iterable[str]) -> "ValueState":
        return ValueState._make(type_names, None)

    @staticmethod
    def null() -> "ValueState":
        return ValueState._make((NULL_TYPE_NAME,), None)

    @staticmethod
    def of_int(constant: int) -> "ValueState":
        return ValueState._make((), int(constant))

    @staticmethod
    def any_primitive() -> "ValueState":
        return ValueState._make((), ANY)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def types(self) -> TypeSet:
        """The reference part of the state (type names, possibly ``null``)."""
        return self._types

    @property
    def primitive(self) -> PrimitiveElement:
        """The primitive part: ``None`` (Empty), an ``int``, or ``ANY``."""
        return self._primitive

    @property
    def has_any(self) -> bool:
        return isinstance(self._primitive, AnyValue)

    @property
    def is_constant(self) -> bool:
        """True when the state is a single known primitive constant."""
        return (
            not self._types
            and self._primitive is not None
            and not isinstance(self._primitive, AnyValue)
        )

    @property
    def constant_value(self) -> Optional[int]:
        if self.is_constant:
            assert isinstance(self._primitive, int)
            return self._primitive
        return None

    @property
    def contains_null(self) -> bool:
        return NULL_TYPE_NAME in self._types

    @property
    def reference_types(self) -> TypeSet:
        """Type names excluding ``null``."""
        ref = self._ref_types
        if ref is None:
            if NULL_TYPE_NAME in self._types:
                ref = intern_types(self._types - {NULL_TYPE_NAME})
            else:
                ref = self._types
            self._ref_types = ref
        return ref

    @property
    def is_null_only(self) -> bool:
        return self._types == frozenset({NULL_TYPE_NAME}) and self._primitive is None

    def contains_type(self, type_name: str) -> bool:
        return type_name in self._types

    # ------------------------------------------------------------------ #
    # Lattice operations
    # ------------------------------------------------------------------ #
    def join(self, other: "ValueState") -> "ValueState":
        """Least upper bound in ``L``.

        Returns ``self`` (the identical object) whenever the join adds
        nothing, so the solver's change detection can use ``is``.
        """
        if self is other:
            return self
        # Check ``other`` first: when both operands are empty this returns
        # ``self`` unchanged, keeping the "join returned the identical object
        # iff nothing changed" contract even for non-interned empty states.
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        if self._types is other._types:
            types = self._types
        else:
            types = self._types | other._types
        primitive = join_constants(self._primitive, other._primitive)
        if types == self._types and primitive == self._primitive:
            return self
        if types == other._types and primitive == other._primitive:
            return other
        return ValueState._make(types, primitive)

    def leq(self, other: "ValueState") -> bool:
        """Partial order: ``self <= other`` iff joining adds nothing to ``other``."""
        return other.join(self) == other

    def with_types(self, types: Iterable[str]) -> "ValueState":
        """A copy with the reference part replaced (primitive part preserved)."""
        return ValueState._make(types, self._primitive)

    def with_primitive(self, primitive: PrimitiveElement) -> "ValueState":
        return ValueState._make(self._types, primitive)

    def only_types(self) -> "ValueState":
        return ValueState._make(self._types, None)

    def only_primitive(self) -> "ValueState":
        return ValueState._make((), self._primitive)

    def without_null(self) -> "ValueState":
        if NULL_TYPE_NAME not in self._types:
            return self
        return ValueState._make(self._types - {NULL_TYPE_NAME}, self._primitive)

    def widen_primitive(self) -> "ValueState":
        """Collapse any primitive constant to ``Any``.

        Used by the baseline configuration that does not track primitive
        constants (``track_primitives=False``).
        """
        if self._primitive is None or isinstance(self._primitive, AnyValue):
            return self
        return ValueState._make(self._types, ANY)

    # ------------------------------------------------------------------ #
    # Dunder protocol
    # ------------------------------------------------------------------ #
    def __reduce__(self):
        """Pickle through the interning factory.

        Snapshots of solver state (:mod:`repro.core.state`) pickle whole
        PVPGs full of value states; routing unpickling through
        :meth:`ValueState.of` re-interns every state so the solver's
        ``is``-based change detection keeps its fast path after a restore
        (correctness never depends on it — ``__eq__`` stays structural).
        """
        return (ValueState.of, (tuple(sorted(self._types)), self._primitive))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ValueState):
            return NotImplemented
        return self._types == other._types and self._primitive == other._primitive

    def __hash__(self) -> int:
        return hash((self._types, self._primitive))

    def __bool__(self) -> bool:
        return not self.is_empty

    def __len__(self) -> int:
        return len(self._types) + (0 if self._primitive is None else 1)

    def __iter__(self) -> Iterator[Union[str, int, AnyValue]]:
        yield from sorted(self._types)
        if self._primitive is not None:
            yield self._primitive

    def __repr__(self) -> str:
        parts = [repr(t) for t in sorted(self._types)]
        if self._primitive is not None:
            parts.append(repr(self._primitive))
        return "ValueState({" + ", ".join(parts) + "})"


_STATE_TABLE: Dict[Tuple[TypeSet, PrimitiveElement], ValueState] = {}

_EMPTY = ValueState()
_STATE_TABLE[(_EMPTY_TYPE_SET, None)] = _EMPTY
