"""Whole programs: a type hierarchy, a set of methods, and entry points."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.ir.method import Method
from repro.ir.types import MethodSignature, TypeHierarchy


T = TypeVar("T")

#: Instance attributes that are bookkeeping, not program content: they are
#: left out of pickles and copies (see :meth:`Program.__getstate__`).
_TRANSIENT = ("_revision", "_memo", "_digests")


class ProgramError(Exception):
    """Raised for structurally invalid programs (duplicate methods, bad roots)."""


@dataclass
class Program:
    """A closed-world program.

    ``methods`` maps qualified names (``Class.method``) to method bodies.
    ``entry_points`` lists the root methods from which reachability starts
    (the ``main`` method of an application, plus any reflection roots added by
    :mod:`repro.image.reflection`).
    """

    hierarchy: TypeHierarchy = field(default_factory=TypeHierarchy)
    methods: Dict[str, Method] = field(default_factory=dict)
    entry_points: List[str] = field(default_factory=list)

    # Class-level defaults, not dataclass fields: a program gets its own
    # values on its first mutation, memoized derivation and body digest.
    _revision = 0
    _memo = None
    _digests = None

    def add_method(self, method: Method) -> Method:
        name = method.qualified_name
        if name in self.methods:
            raise ProgramError(f"method {name!r} defined twice")
        self.methods[name] = method
        self._revision += 1
        declaring = method.signature.declaring_class
        if declaring in self.hierarchy:
            self.hierarchy.get(declaring).declare_method(method.signature)
        return method

    def add_entry_point(self, qualified_name: str) -> None:
        if qualified_name not in self.methods:
            raise ProgramError(f"entry point {qualified_name!r} is not a defined method")
        if qualified_name not in self.entry_points:
            self.entry_points.append(qualified_name)
            self._revision += 1

    @property
    def revision(self) -> int:
        """A stamp that changes whenever the program is mutated.

        It counts :meth:`add_method` and :meth:`add_entry_point` here plus
        the hierarchy's ``declare_class`` / ``declare_field`` /
        ``declare_method`` (:attr:`TypeHierarchy.revision`).  Every mutation
        path goes through those five — ``ProgramDelta.apply_to`` and
        ``ReflectionConfig.apply_to`` included — so a derivation stamped
        with one revision is current exactly while the stamp still matches.
        """
        return self._revision + self.hierarchy.revision

    def memoized(self, build: Callable[["Program"], T]) -> T:
        """``build(self)``, computed at most once per :attr:`revision`.

        One entry per derivation, keyed by ``build``: the in-memory arena
        lowering (:func:`repro.ir.arena.lowered_program`) and the program
        fingerprint (:meth:`repro.ir.delta.ProgramFingerprint.of`) live
        here side by side, so taking one never evicts the other.  The memo
        is an attribute of this program, so it dies with it, and it is
        never pickled or copied (:meth:`__getstate__`).
        """
        revision = self.revision
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        entry = memo.get(build)
        if entry is not None and entry[0] == revision:
            return entry[1]
        value = build(self)
        memo[build] = (revision, value)
        return value

    def peek(self, build: Callable[["Program"], T]) -> Optional[T]:
        """:meth:`memoized` ``build`` if it is current, else ``None``
        (nothing is built)."""
        entry = (self._memo or {}).get(build)
        if entry is not None and entry[0] == self.revision:
            return entry[1]
        return None

    def prime(self, build: Callable[["Program"], T], value: T) -> None:
        """Record ``value`` as :meth:`memoized` ``build`` at this revision.

        For a caller that already holds the derivation, such as
        :func:`repro.ir.arena.thaw` with the fingerprint stamped into the
        buffer it decoded; the caller vouches that ``value`` equals
        ``build(self)``.
        """
        if self._memo is None:
            self._memo = {}
        self._memo[build] = (self.revision, value)

    @property
    def digest_memo(self) -> Dict[str, Tuple[Method, str]]:
        """Method body digests taken so far, by qualified name.

        Each entry keeps the :class:`Method` object it digested, so an
        entry counts only while ``methods[name]`` is still that object.
        Bodies are never edited in place (the assumption :attr:`revision`
        already makes), so a body is digested at most once per
        :class:`Method` object however often the program changes around
        it.  Transient like the memo.
        """
        digests = self._digests
        if digests is None:
            digests = self._digests = {}
        return digests

    def __getstate__(self) -> dict:
        # Pickles (the program store's among them) carry the fields only, so
        # they stay a function of the program's content; an unpickled or
        # copied program starts at revision 0 without a memo.
        return {key: value for key, value in self.__dict__.items()
                if key not in _TRANSIENT}

    def method(self, qualified_name: str) -> Method:
        try:
            return self.methods[qualified_name]
        except KeyError:
            raise ProgramError(f"unknown method {qualified_name!r}") from None

    def has_method(self, qualified_name: str) -> bool:
        return qualified_name in self.methods

    def method_for_signature(self, signature: MethodSignature) -> Optional[Method]:
        return self.methods.get(signature.qualified_name)

    def __iter__(self) -> Iterator[Method]:
        return iter(self.methods.values())

    def __len__(self) -> int:
        return len(self.methods)

    @property
    def total_instruction_count(self) -> int:
        return sum(method.instruction_count for method in self.methods.values())

    def summary(self) -> str:
        return (
            f"Program with {len(self.hierarchy.class_names)} classes, "
            f"{len(self.methods)} methods, {len(self.entry_points)} entry points"
        )
