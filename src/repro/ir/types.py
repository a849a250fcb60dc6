"""Class hierarchy, fields, and method signatures.

This module provides the closed-world type universe over which the analysis
runs.  It implements the two auxiliary functions used by the value-propagation
rules of Appendix C:

* ``LookUp(t, x)`` — resolve field ``x`` on type ``t`` (walking up the class
  hierarchy to the declaring class), exposed as :meth:`TypeHierarchy.lookup_field`.
* ``Resolve(t, m)`` — virtual method resolution for receiver type ``t`` and
  invoked method ``m``, exposed as :meth:`TypeHierarchy.resolve`.

``null`` is modelled as a special type (``NULL_TYPE_NAME``) that can be a
member of any value state, following Section 3 ("Null references are handled
as a special type that can be part of any value state").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Name of the synthetic type used to represent the ``null`` reference.
NULL_TYPE_NAME = "null"

#: Name of the implicit root of the class hierarchy.
OBJECT_TYPE_NAME = "Object"

#: Pseudo type name used for primitive (int/boolean) declarations.
INT_TYPE_NAME = "int"


class TypeSystemError(Exception):
    """Raised when the program declares an inconsistent type hierarchy."""


def _without_revision(state: dict) -> dict:
    """Pickle state minus the mutation counter, which is bookkeeping."""
    return {key: value for key, value in state.items() if key != "_revision"}


@dataclass(frozen=True)
class FieldDecl:
    """A field declaration ``<declaring_class>.<name> : <declared_type>``."""

    declaring_class: str
    name: str
    declared_type: str

    @property
    def qualified_name(self) -> str:
        return f"{self.declaring_class}.{self.name}"

    @property
    def is_primitive(self) -> bool:
        return self.declared_type == INT_TYPE_NAME


@dataclass(frozen=True)
class MethodSignature:
    """A method signature ``<declaring_class>.<name>(<n params>)``.

    Parameter 0 is the receiver for instance methods; static methods have no
    receiver.  The return type is either a class name, ``int`` or ``void``.
    """

    declaring_class: str
    name: str
    param_types: Tuple[str, ...] = ()
    return_type: str = "void"
    is_static: bool = False

    @property
    def qualified_name(self) -> str:
        return f"{self.declaring_class}.{self.name}"

    @property
    def num_params(self) -> int:
        """Number of formal parameters including the receiver."""
        extra = 0 if self.is_static else 1
        return len(self.param_types) + extra

    @property
    def returns_value(self) -> bool:
        return self.return_type != "void"

    @property
    def returns_reference(self) -> bool:
        return self.return_type not in ("void", INT_TYPE_NAME)


@dataclass
class ClassType:
    """A class (or interface) in the closed world."""

    name: str
    superclass: Optional[str] = OBJECT_TYPE_NAME
    interfaces: Tuple[str, ...] = ()
    is_interface: bool = False
    is_abstract: bool = False
    fields: Dict[str, FieldDecl] = field(default_factory=dict)
    #: Names of methods declared (with a body) directly on this class.
    declared_methods: Dict[str, MethodSignature] = field(default_factory=dict)

    #: Mutation counter (a class default, not a field; see
    #: :attr:`TypeHierarchy.revision`).
    _revision = 0

    def declare_field(self, name: str, declared_type: str) -> FieldDecl:
        decl = FieldDecl(self.name, name, declared_type)
        self.fields[name] = decl
        self._revision += 1
        return decl

    def declare_method(self, signature: MethodSignature) -> MethodSignature:
        if signature.declaring_class != self.name:
            raise TypeSystemError(
                f"method {signature.qualified_name} declared on class {self.name}"
            )
        self.declared_methods[signature.name] = signature
        self._revision += 1
        return signature

    def __getstate__(self) -> dict:
        return _without_revision(self.__dict__)


#: The state of a :class:`TypeHierarchy` left out of its pickles and copies:
#: the mutation counter and the subtype query caches.
_TRANSIENT = ("_revision", "_subtype_cache", "_instantiable_subtypes_cache",
              "_instantiable_cache_complete")


class TypeHierarchy:
    """The closed-world set of program types ``T`` with subtyping queries.

    The hierarchy always contains the root ``Object`` type and the synthetic
    ``null`` type.  ``null`` is a subtype of every reference type, which makes
    ``instanceof`` filtering and null checks uniform in the solver.
    """

    #: Mutation counter of :meth:`declare_class` (a class default until the
    #: first declaration; see :attr:`revision`).
    _revision = 0

    def __init__(self) -> None:
        self._classes: Dict[str, ClassType] = {}
        self._subtype_cache: Dict[Tuple[str, str], bool] = {}
        self._instantiable_subtypes_cache: Dict[str, Tuple[str, ...]] = {}
        self._instantiable_cache_complete = False
        self.declare_class(OBJECT_TYPE_NAME, superclass=None)

    # ------------------------------------------------------------------ #
    # Declarations
    # ------------------------------------------------------------------ #
    def declare_class(
        self,
        name: str,
        superclass: Optional[str] = OBJECT_TYPE_NAME,
        interfaces: Sequence[str] = (),
        is_interface: bool = False,
        is_abstract: bool = False,
    ) -> ClassType:
        """Declare a new class and return its descriptor."""
        if name in self._classes:
            raise TypeSystemError(f"class {name!r} declared twice")
        if name == NULL_TYPE_NAME:
            raise TypeSystemError("the null type is implicit and cannot be declared")
        cls = ClassType(
            name=name,
            superclass=superclass,
            interfaces=tuple(interfaces),
            is_interface=is_interface,
            is_abstract=is_abstract,
        )
        self._classes[name] = cls
        self._revision += 1
        self._invalidate_caches()
        return cls

    def get(self, name: str) -> ClassType:
        try:
            return self._classes[name]
        except KeyError:
            raise TypeSystemError(f"unknown class {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[ClassType]:
        return iter(self._classes.values())

    @property
    def class_names(self) -> List[str]:
        return list(self._classes)

    @property
    def revision(self) -> int:
        """A stamp that grows with every declaration.

        Counts :meth:`declare_class` plus every class's ``declare_field``
        and ``declare_method``; each counter only grows, so the sum changes
        on any of them.  :attr:`Program.revision` builds on it.
        """
        return self._revision + sum(
            cls._revision for cls in self._classes.values())

    def __getstate__(self) -> dict:
        # The query caches fill during analysis; leaving them out keeps a
        # pickle a function of the declarations alone.
        return {key: value for key, value in self.__dict__.items()
                if key not in _TRANSIENT}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._subtype_cache = {}
        self._instantiable_subtypes_cache = {}
        self._instantiable_cache_complete = False

    def _invalidate_caches(self) -> None:
        self._subtype_cache.clear()
        self._instantiable_subtypes_cache.clear()
        self._instantiable_cache_complete = False

    # ------------------------------------------------------------------ #
    # Subtyping
    # ------------------------------------------------------------------ #
    def supertypes(self, name: str) -> List[str]:
        """All supertypes of ``name`` including itself (classes + interfaces)."""
        if name == NULL_TYPE_NAME:
            return [NULL_TYPE_NAME]
        result: List[str] = []
        seen = set()
        worklist = [name]
        while worklist:
            current = worklist.pop()
            if current in seen:
                continue
            seen.add(current)
            result.append(current)
            cls = self.get(current)
            if cls.superclass is not None:
                worklist.append(cls.superclass)
            worklist.extend(cls.interfaces)
        return result

    def is_subtype(self, sub: str, sup: str) -> bool:
        """Return True iff ``sub`` is the same type as or a subtype of ``sup``.

        ``null`` is a subtype of every reference type but no reference type is
        a subtype of ``null``.
        """
        if sub == sup:
            return True
        if sub == NULL_TYPE_NAME:
            return True
        if sup == NULL_TYPE_NAME:
            return False
        key = (sub, sup)
        cached = self._subtype_cache.get(key)
        if cached is not None:
            return cached
        result = sup in self.supertypes(sub)
        self._subtype_cache[key] = result
        return result

    def direct_subclasses(self, name: str) -> List[str]:
        return [
            cls.name
            for cls in self._classes.values()
            if cls.superclass == name or name in cls.interfaces
        ]

    def all_subtypes(self, name: str) -> List[str]:
        """All declared subtypes of ``name`` including itself (no ``null``)."""
        return [cls.name for cls in self._classes.values() if self.is_subtype(cls.name, name)]

    def instantiable_subtypes(self, name: str) -> Tuple[str, ...]:
        """Concrete (non-abstract, non-interface) subtypes of ``name``.

        The first query fills the cache for *every* declared name in one
        declaration-order pass (each concrete class is bucketed under all of
        its supertypes), so N distinct queries cost one hierarchy walk
        instead of N full scans — conservative root seeding and stub effects
        ask for many distinct subtrees per solve.  Result tuples keep the
        classes' declaration order, exactly as the per-name scan produced.
        """
        cached = self._instantiable_subtypes_cache.get(name)
        if cached is not None:
            return cached
        if self._instantiable_cache_complete:
            return ()
        buckets: Dict[str, List[str]] = {cls: [] for cls in self._classes}
        for cls in self._classes.values():
            if cls.is_interface or cls.is_abstract:
                continue
            for supertype in self.supertypes(cls.name):
                bucket = buckets.get(supertype)
                if bucket is not None:
                    bucket.append(cls.name)
        self._instantiable_subtypes_cache = {
            cls: tuple(subs) for cls, subs in buckets.items()}
        self._instantiable_cache_complete = True
        return self._instantiable_subtypes_cache.get(name, ())

    # ------------------------------------------------------------------ #
    # LookUp and Resolve (Appendix C auxiliary functions)
    # ------------------------------------------------------------------ #
    def lookup_field(self, type_name: str, field_name: str) -> Optional[FieldDecl]:
        """``LookUp(t, x)``: resolve a field access on type ``t``.

        Walks the superclass chain starting at ``t`` and returns the first
        declaration of ``field_name``.  Returns ``None`` for ``null`` receivers
        or when the field does not exist (the solver simply skips those
        combinations, matching the partiality of ``LookUp`` in the paper).
        """
        if type_name == NULL_TYPE_NAME:
            return None
        current: Optional[str] = type_name
        while current is not None:
            cls = self.get(current)
            decl = cls.fields.get(field_name)
            if decl is not None:
                return decl
            current = cls.superclass
        return None

    def resolve(self, receiver_type: str, method_name: str) -> Optional[MethodSignature]:
        """``Resolve(t, m)``: virtual method resolution per the JVM rules.

        Searches ``receiver_type`` and then its superclass chain for a
        declaration of ``method_name``; if none is found, searches the
        implemented interfaces (default methods).  Returns ``None`` when no
        target exists (e.g. for the ``null`` type), which the solver treats as
        "no call target for this receiver type".
        """
        if receiver_type == NULL_TYPE_NAME:
            return None
        current: Optional[str] = receiver_type
        while current is not None:
            cls = self.get(current)
            sig = cls.declared_methods.get(method_name)
            if sig is not None:
                return sig
            current = cls.superclass
        # Interface default methods: breadth-first over all supertypes.
        for sup in self.supertypes(receiver_type):
            cls = self.get(sup)
            sig = cls.declared_methods.get(method_name)
            if sig is not None:
                return sig
        return None

    def resolve_all(
        self, receiver_types: Iterable[str], method_name: str
    ) -> List[MethodSignature]:
        """Resolve ``method_name`` for every receiver type, deduplicated."""
        seen: Dict[str, MethodSignature] = {}
        for type_name in receiver_types:
            sig = self.resolve(type_name, method_name)
            if sig is not None and sig.qualified_name not in seen:
                seen[sig.qualified_name] = sig
        return list(seen.values())
