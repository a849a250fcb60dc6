"""Program deltas: additive edit scripts over closed-world programs.

The analysis core can resume a solved fixpoint instead of starting cold
(:mod:`repro.core.state`), but warm resumption is only sound when the
program changed *monotonically*: everything the old solve saw must still be
there, unchanged, and the new parts must not alter how the old parts
resolve.  This module owns both halves of that contract:

* :class:`ProgramDelta` is an *edit script* — new classes, fields, methods,
  entry points, and call sites — built with the same fluent surface as
  :class:`~repro.ir.builder.ProgramBuilder` (so the workload pattern
  generators can write whole modules straight into a delta) and applied to
  an existing :class:`~repro.ir.program.Program` in place;
* :class:`ProgramFingerprint` captures a program's structure (class shapes,
  method-body digests, entry points) so that two arbitrary programs — or a
  snapshot and the program it is being resumed against — can be diffed into
  a :class:`FingerprintDelta` whose ``violations`` list the reasons warm
  resumption would be unsound.

Monotonicity, concretely
------------------------
A delta is *monotone* for a program when a warm solve resumed after applying
it must reach the same fixpoint as a cold solve of the edited program.  The
solver's lattice argument (states only grow, flows only enable, edges are
only added) makes additions safe, but three kinds of edits silently change
what the *old* program means and are therefore rejected:

* **removals or body edits** — anything the old solve already propagated
  could become stale;
* **new methods on pre-existing classes** — virtual or static resolution
  for receiver types the old solve already linked could now land on the new
  method, and the solver never revisits a linked call site unless its
  receiver state grows;
* **new fields on pre-existing classes** — field lookup walks the
  superclass chain to the *first* declaration, so a new declaration can
  shadow the one existing load/store flows already linked against.

New classes (including subclasses of existing ones, with their own methods,
fields, and overrides), new entry points, and new call sites inside new
methods are all monotone: they only ever reach old flows through value
states that grow, which is exactly what the solver's re-linking machinery
watches.  Non-monotone deltas are still *appliable* (they are ordinary
valid edits); callers that wanted to resume fall back to a cold solve —
loudly — instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.builder import MethodBuilder
from repro.ir.method import Method
from repro.ir.printer import format_method
from repro.ir.program import Program
from repro.ir.types import MethodSignature

_DIGEST_ABBREV = 16


class DeltaError(Exception):
    """A structurally invalid delta (redeclarations, unknown classes, ...)."""


class NonMonotoneDeltaError(DeltaError):
    """A delta rejected because warm resumption over it would be unsound."""

    def __init__(self, reasons: Sequence[str]):
        super().__init__(
            "delta is not monotone: " + "; ".join(reasons))
        self.reasons: Tuple[str, ...] = tuple(reasons)


# --------------------------------------------------------------------------- #
# Fingerprints: diffing two programs (or a snapshot against a program)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ClassShape:
    """The resolution-relevant shape of one class declaration."""

    superclass: Optional[str]
    interfaces: Tuple[str, ...]
    is_interface: bool
    is_abstract: bool
    fields: Tuple[Tuple[str, str], ...]  # (field name, declared type), sorted


def _method_digest(method: Method) -> str:
    """A stable digest of one method body (the printed text, hashed)."""
    rendered = format_method(method)
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:_DIGEST_ABBREV]


@dataclass(frozen=True)
class ProgramFingerprint:
    """Everything a warm resume needs to know about the program it solved.

    Small (names, shapes, and digests — never bodies), deterministic, and
    picklable, so solver-state snapshots can carry one and validate
    themselves against whatever program they are resumed over.
    """

    classes: Tuple[Tuple[str, ClassShape], ...]
    methods: Tuple[Tuple[str, str], ...]  # (qualified name, body digest)
    entry_points: Tuple[str, ...]

    @staticmethod
    def of(program: Program) -> "ProgramFingerprint":
        """The fingerprint of ``program``, memoized per revision.

        Arena-attached programs return the fingerprint stamped at freeze
        time.  A plain program computes it at most once per
        :attr:`~repro.ir.program.Program.revision`, and each body digest at
        most once per :class:`Method` object
        (:attr:`~repro.ir.program.Program.digest_memo`): after an additive
        edit only the new bodies are digested.
        """
        stamped = getattr(program, "program_fingerprint", None)
        if stamped is not None:
            return stamped
        return program.memoized(_fingerprint)


def _fingerprint(program: Program) -> ProgramFingerprint:
    """A program's fingerprint, reusing the digests its memo already holds."""
    digests = program.digest_memo
    methods = []
    for name, method in program.methods.items():
        entry = digests.get(name)
        if entry is None or entry[0] is not method:
            entry = digests[name] = (method, _method_digest(method))
        methods.append((name, entry[1]))
    methods.sort()
    classes = tuple(sorted(
        (cls.name, ClassShape(
            superclass=cls.superclass,
            interfaces=tuple(cls.interfaces),
            is_interface=cls.is_interface,
            is_abstract=cls.is_abstract,
            fields=tuple(sorted(
                (name, decl.declared_type)
                for name, decl in cls.fields.items())),
        ))
        for cls in program.hierarchy))
    return ProgramFingerprint(
        classes=classes,
        methods=tuple(methods),
        entry_points=tuple(program.entry_points),
    )


def seed_fingerprint(program: Program, fingerprint: ProgramFingerprint) -> None:
    """Adopt ``fingerprint`` as ``program``'s, digests included.

    For a program decoded from a buffer stamped with the fingerprint of the
    same content (:func:`repro.ir.arena.thaw`): every body digest and the
    fingerprint itself go into the program's memos, so nothing is
    re-digested until the program changes, and then only the new bodies.
    """
    stamped = dict(fingerprint.methods)
    digests = program.digest_memo
    for name, method in program.methods.items():
        digests[name] = (method, stamped[name])
    program.prime(_fingerprint, fingerprint)


@dataclass(frozen=True)
class FingerprintDelta:
    """What changed between two program fingerprints, and whether it is monotone.

    ``violations`` lists every reason warm resumption would be unsound; an
    empty list means the new program is a monotone extension of the old one.
    The ``added_*`` fields describe the extension itself.
    """

    added_classes: Tuple[str, ...]
    added_methods: Tuple[str, ...]
    added_fields: Tuple[str, ...]  # qualified "Class.field" names on new classes
    added_entry_points: Tuple[str, ...]
    violations: Tuple[str, ...]

    @property
    def is_monotone(self) -> bool:
        return not self.violations

    @property
    def is_empty(self) -> bool:
        return not (self.added_classes or self.added_methods
                    or self.added_fields or self.added_entry_points
                    or self.violations)

    def summary(self) -> str:
        verdict = "monotone" if self.is_monotone else "NON-MONOTONE"
        return (f"{verdict}: +{len(self.added_classes)} classes, "
                f"+{len(self.added_methods)} methods, "
                f"+{len(self.added_fields)} fields, "
                f"+{len(self.added_entry_points)} entry points"
                + (f", {len(self.violations)} violations"
                   if self.violations else ""))


def diff_fingerprints(old: ProgramFingerprint,
                      new: ProgramFingerprint) -> FingerprintDelta:
    """Diff two fingerprints into additions plus monotonicity violations."""
    old_classes: Dict[str, ClassShape] = dict(old.classes)
    new_classes: Dict[str, ClassShape] = dict(new.classes)
    violations: List[str] = []
    added_fields: List[str] = []

    for name in sorted(old_classes.keys() - new_classes.keys()):
        violations.append(f"class {name} was removed")
    for name in sorted(old_classes.keys() & new_classes.keys()):
        before, after = old_classes[name], new_classes[name]
        if before == after:
            continue
        if (before.superclass != after.superclass
                or before.interfaces != after.interfaces
                or before.is_interface != after.is_interface
                or before.is_abstract != after.is_abstract):
            violations.append(f"class {name} changed its declaration")
        if before.fields != after.fields:
            violations.append(
                f"class {name} changed its fields (new or altered field "
                f"declarations on a pre-existing class can shadow linked "
                f"field flows)")
    added_classes = sorted(new_classes.keys() - old_classes.keys())
    for name in added_classes:
        added_fields.extend(
            f"{name}.{field_name}"
            for field_name, _ in new_classes[name].fields)

    old_methods = dict(old.methods)
    new_methods = dict(new.methods)
    for name in sorted(old_methods.keys() - new_methods.keys()):
        violations.append(f"method {name} was removed")
    for name in sorted(old_methods.keys() & new_methods.keys()):
        if old_methods[name] != new_methods[name]:
            violations.append(f"method {name} changed its body")
    added_methods = sorted(new_methods.keys() - old_methods.keys())
    for name in added_methods:
        declaring = name.split(".", 1)[0]
        if declaring in old_classes:
            violations.append(
                f"method {name} was added to pre-existing class {declaring} "
                f"(resolution for already-linked receivers could change)")

    old_entries = set(old.entry_points)
    for name in old.entry_points:
        if name not in new.entry_points:
            violations.append(f"entry point {name} was removed")
    added_entries = [name for name in new.entry_points
                     if name not in old_entries]

    return FingerprintDelta(
        added_classes=tuple(added_classes),
        added_methods=tuple(added_methods),
        added_fields=tuple(sorted(added_fields)),
        added_entry_points=tuple(added_entries),
        violations=tuple(violations),
    )


def diff_programs(old: Program, new: Program) -> FingerprintDelta:
    """Structural diff of two programs (see :func:`diff_fingerprints`)."""
    return diff_fingerprints(ProgramFingerprint.of(old),
                             ProgramFingerprint.of(new))


def delta_between(old: Program, new: Program,
                  name: str = "delta") -> "ProgramDelta":
    """The additive edit script turning ``old`` into ``new``.

    The bridge between "here is the whole edited program" callers (an IDE
    buffer, a service ``update`` request carrying full source) and the
    delta machinery: the two programs are structurally diffed, and the
    additions — new classes with their fields and methods, new entry points
    — are lifted out of ``new`` into a :class:`ProgramDelta` that can be
    applied to ``old`` (or to any session holding an identical program).

    Only monotone differences are expressible as an additive script, so a
    non-monotone diff (removals, body edits, members grafted onto
    pre-existing classes) raises :class:`NonMonotoneDeltaError` carrying the
    violations instead of silently dropping them.  Callers that want to
    proceed anyway rebuild from ``new`` and solve cold — exactly what the
    service layer does when a client passes ``allow_rebuild``.
    """
    diff = diff_programs(old, new)
    if not diff.is_monotone:
        raise NonMonotoneDeltaError(diff.violations)
    delta = ProgramDelta(name)
    for class_name in diff.added_classes:
        shape = new.hierarchy.get(class_name)
        delta.declare_class(class_name, superclass=shape.superclass,
                            interfaces=shape.interfaces,
                            is_interface=shape.is_interface,
                            is_abstract=shape.is_abstract)
        for field_name, decl in sorted(shape.fields.items()):
            delta.declare_field(class_name, field_name, decl.declared_type)
    for qualified_name in diff.added_methods:
        delta.add_method(new.methods[qualified_name])
    for entry_point in diff.added_entry_points:
        delta.add_entry_point(entry_point)
    return delta


# --------------------------------------------------------------------------- #
# The edit script
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ClassDecl:
    name: str
    superclass: Optional[str]
    interfaces: Tuple[str, ...]
    is_interface: bool
    is_abstract: bool


@dataclass(frozen=True)
class _FieldDecl:
    class_name: str
    field_name: str
    declared_type: str


@dataclass(frozen=True)
class AppliedDelta:
    """The record of one delta application (what landed, and how)."""

    delta_name: str
    monotone: bool
    reasons: Tuple[str, ...] = ()
    added_classes: Tuple[str, ...] = ()
    added_fields: Tuple[str, ...] = ()
    added_methods: Tuple[str, ...] = ()
    added_entry_points: Tuple[str, ...] = ()

    def summary(self) -> str:
        verdict = "monotone" if self.monotone else "NON-MONOTONE"
        return (f"applied {self.delta_name} ({verdict}): "
                f"+{len(self.added_classes)} classes, "
                f"+{len(self.added_fields)} fields, "
                f"+{len(self.added_methods)} methods, "
                f"+{len(self.added_entry_points)} entry points")


class ProgramDelta:
    """An additive edit script, built like a :class:`ProgramBuilder`.

    The delta records declarations instead of applying them, so one script
    can be checked (:meth:`non_monotone_reasons`), reported, and applied to
    a program later — or to several programs, e.g. a session's live object
    and a fresh cold-solve copy.  The builder surface is intentionally the
    subset of :class:`~repro.ir.builder.ProgramBuilder` that the workload
    pattern generators use (``declare_class`` / ``declare_field`` /
    ``method`` / ``finish_method``), so ``add_guarded_module`` and friends
    can generate whole modules directly into a delta.
    """

    def __init__(self, name: str = "delta") -> None:
        self.name = name
        self._classes: List[_ClassDecl] = []
        self._fields: List[_FieldDecl] = []
        self._methods: List[Method] = []
        self._entry_points: List[str] = []
        self._call_sites = 0

    # ------------------------------------------------------------------ #
    # Builder surface (mirrors ProgramBuilder)
    # ------------------------------------------------------------------ #
    def declare_class(self, name: str, superclass: str = "Object",
                      interfaces: Sequence[str] = (),
                      is_interface: bool = False,
                      is_abstract: bool = False) -> _ClassDecl:
        if name in self.class_names:
            raise DeltaError(f"class {name!r} declared twice in delta")
        decl = _ClassDecl(name, superclass, tuple(interfaces),
                          is_interface, is_abstract)
        self._classes.append(decl)
        return decl

    def declare_field(self, class_name: str, field_name: str,
                      declared_type: str) -> _FieldDecl:
        decl = _FieldDecl(class_name, field_name, declared_type)
        if decl in self._fields:
            raise DeltaError(
                f"field {class_name}.{field_name} declared twice in delta")
        self._fields.append(decl)
        return decl

    def method(self, class_name: str, method_name: str,
               params: Sequence[str] = (), return_type: str = "void",
               is_static: bool = False,
               param_names: Optional[Sequence[str]] = None) -> MethodBuilder:
        signature = MethodSignature(
            declaring_class=class_name,
            name=method_name,
            param_types=tuple(params),
            return_type=return_type,
            is_static=is_static,
        )
        return MethodBuilder(signature, param_names)

    def finish_method(self, builder: MethodBuilder) -> Method:
        return self.add_method(builder.build())

    def add_method(self, method: Method) -> Method:
        """Record an already-built :class:`~repro.ir.method.Method`.

        The escape hatch behind :func:`delta_between`: methods lifted out of
        a freshly compiled program carry finished bodies, so they enter the
        script directly instead of through a :class:`~repro.ir.builder.
        MethodBuilder`.
        """
        if method.qualified_name in self.method_names:
            raise DeltaError(
                f"method {method.qualified_name!r} defined twice in delta")
        self._methods.append(method)
        return method

    def add_entry_point(self, qualified_name: str) -> None:
        if qualified_name not in self._entry_points:
            self._entry_points.append(qualified_name)

    def add_call_site(self, target_class: str, target_method: str,
                      caller_class: Optional[str] = None) -> str:
        """Add a new call site into existing code: a static bridge method.

        The bridge lives on a fresh class and becomes a new entry point, so
        the call is rooted without touching any pre-existing method body —
        which is what keeps "call this existing API from new code" a
        monotone edit.  Returns the bridge's qualified name.
        """
        index = self._call_sites
        self._call_sites += 1
        bridge = caller_class or f"{target_class}Call{index}"
        self.declare_class(bridge)
        mb = self.method(bridge, "invoke", is_static=True)
        mb.invoke_static(target_class, target_method)
        mb.return_void()
        self.finish_method(mb)
        qualified = f"{bridge}.invoke"
        self.add_entry_point(qualified)
        return qualified

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(decl.name for decl in self._classes)

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(f"{decl.class_name}.{decl.field_name}"
                     for decl in self._fields)

    @property
    def method_names(self) -> Tuple[str, ...]:
        return tuple(method.qualified_name for method in self._methods)

    @property
    def entry_points(self) -> Tuple[str, ...]:
        return tuple(self._entry_points)

    @property
    def is_empty(self) -> bool:
        return not (self._classes or self._fields or self._methods
                    or self._entry_points)

    def summary(self) -> str:
        return (f"delta {self.name!r}: +{len(self._classes)} classes, "
                f"+{len(self._fields)} fields, +{len(self._methods)} methods, "
                f"+{len(self._entry_points)} entry points")

    # ------------------------------------------------------------------ #
    # Monotonicity and application
    # ------------------------------------------------------------------ #
    def non_monotone_reasons(self, program: Program) -> List[str]:
        """Why resuming a solve over this delta would be unsound (if at all).

        Empty list = monotone.  Only *appliable* edits are reported here;
        structurally impossible ones (class redeclarations, unknown
        superclasses, entry points naming nothing) raise from
        :meth:`apply_to` instead.
        """
        new_classes = set(self.class_names)
        reasons: List[str] = []
        for decl in self._fields:
            if decl.class_name not in new_classes and decl.class_name in program.hierarchy:
                reasons.append(
                    f"field {decl.class_name}.{decl.field_name} is added to "
                    f"pre-existing class {decl.class_name} (can shadow "
                    f"already-linked field flows)")
        for method in self._methods:
            declaring = method.signature.declaring_class
            if declaring not in new_classes and declaring in program.hierarchy:
                reasons.append(
                    f"method {method.qualified_name} is added to pre-existing "
                    f"class {declaring} (resolution for already-linked "
                    f"receivers could change)")
        return reasons

    def is_monotone_for(self, program: Program) -> bool:
        return not self.non_monotone_reasons(program)

    def _check_structure(self, program: Program) -> None:
        # Membership tests only: the check costs the delta's size, not the
        # program's, so replaying a long log stays linear in the log.
        new_classes = set(self.class_names)

        def known(name: str) -> bool:
            return name in new_classes or name in program.hierarchy

        for decl in self._classes:
            if decl.name in program.hierarchy:
                raise DeltaError(
                    f"delta redeclares existing class {decl.name!r}")
            if decl.superclass is not None and not known(decl.superclass):
                raise DeltaError(
                    f"class {decl.name!r} extends unknown class "
                    f"{decl.superclass!r}")
        for fdecl in self._fields:
            if not known(fdecl.class_name):
                raise DeltaError(
                    f"field {fdecl.class_name}.{fdecl.field_name} is declared "
                    f"on unknown class {fdecl.class_name!r}")
        new_methods = set(self.method_names)
        for method in self._methods:
            if method.qualified_name in program.methods:
                raise DeltaError(
                    f"delta redefines existing method "
                    f"{method.qualified_name!r}")
            if not known(method.signature.declaring_class):
                raise DeltaError(
                    f"method {method.qualified_name} is declared on unknown "
                    f"class {method.signature.declaring_class!r}")
        for entry in self._entry_points:
            if entry not in new_methods and entry not in program.methods:
                raise DeltaError(
                    f"entry point {entry!r} names no method of the program "
                    f"or the delta")

    def apply_to(self, program: Program, *,
                 require_monotone: bool = False) -> AppliedDelta:
        """Apply the script to ``program`` in place.

        Structural problems always raise :class:`DeltaError`; with
        ``require_monotone`` the application additionally raises
        :class:`NonMonotoneDeltaError` instead of applying a delta that
        would invalidate warm resumption.  The returned record carries the
        monotonicity verdict either way, so callers deciding between warm
        and cold re-analysis have it in hand.
        """
        self._check_structure(program)
        reasons = self.non_monotone_reasons(program)
        if require_monotone and reasons:
            raise NonMonotoneDeltaError(reasons)
        for decl in self._classes:
            program.hierarchy.declare_class(
                decl.name, decl.superclass, decl.interfaces,
                decl.is_interface, decl.is_abstract)
        for fdecl in self._fields:
            program.hierarchy.get(fdecl.class_name).declare_field(
                fdecl.field_name, fdecl.declared_type)
        for method in self._methods:
            program.add_method(method)
        for entry in self._entry_points:
            program.add_entry_point(entry)
        return AppliedDelta(
            delta_name=self.name,
            monotone=not reasons,
            reasons=tuple(reasons),
            added_classes=self.class_names,
            added_fields=self.field_names,
            added_methods=self.method_names,
            added_entry_points=self.entry_points,
        )
