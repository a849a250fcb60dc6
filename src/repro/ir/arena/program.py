"""Attach-side views over a frozen arena buffer.

:class:`ProgramArena` is the raw column view: it decodes nothing at attach
time beyond the section index — every table is a zero-copy ``memoryview``
over the (typically ``mmap``-ed) buffer, strings are decoded lazily and
memoized, and method bodies unpickle individually on first touch.

:class:`ArenaProgram` dresses an arena up as a :class:`~repro.ir.program.Program`:
a real :class:`~repro.ir.types.TypeHierarchy` is rebuilt from the (small)
type/field/signature tables, while ``methods`` is a lazy mapping producing
:class:`ArenaMethod` views whose ``blocks`` thaw on demand — the arena
solver kernel never touches them.  Two attributes let the rest of the
system skip object-graph walks entirely:

* ``program_fingerprint`` — the :class:`~repro.ir.delta.ProgramFingerprint`
  stamped at freeze time (``ProgramFingerprint.of`` returns it directly
  instead of re-digesting every body);
* ``allocation_site_index`` — qualified method name to NEW'd type names,
  which the allocated-type saturation policies scan instead of iterating
  instructions (they test for an :class:`ArenaProgram`, so a broken index
  raises instead of decoding every body).

An :class:`ArenaProgram` is read-only by convention: its method mapping
does not support insertion, so mutating passes must :func:`thaw` first.
The same façade also fronts an in-memory lowering of a live program
(:class:`~repro.ir.arena.lowering.LoweredArena`), whose columns read like
an attached buffer's.
"""

from __future__ import annotations

import pickle
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.ir.arena import schema
from repro.ir.arena.layout import ArenaFormatError, BufferLike, BufferReader
from repro.ir.delta import seed_fingerprint
from repro.ir.method import Method
from repro.ir.program import Program
from repro.ir.types import OBJECT_TYPE_NAME, MethodSignature, TypeHierarchy

#: Every integer-column section a valid arena carries, bound eagerly at
#: attach (each binding is an index lookup plus a memoryview cast).
_INT_SECTIONS = (
    "str_offsets",
    "type_name", "type_super", "type_flags",
    "type_ifaces_ptr", "type_ifaces_val",
    "type_fields_ptr", "type_sigs_ptr",
    "field_class", "field_name", "field_type",
    "sig_class", "sig_name", "sig_return", "sig_static",
    "sig_params_ptr", "sig_params_val",
    "method_name",
    "method_sig_class", "method_sig_name", "method_sig_return",
    "method_sig_static", "method_sig_params_ptr", "method_sig_params_val",
    "method_never_returns", "method_instr_count",
    "method_flow_lo", "method_flow_hi",
    "method_pred_ptr", "method_pred_val",
    "method_param_ptr", "method_param_val",
    "method_ret_ptr", "method_ret_val",
    "method_inv_ptr", "method_inv_val",
    "method_alloc_ptr", "method_alloc_val",
    "method_body_ptr", "method_br_ptr",
    "br_kind", "br_then", "br_else", "br_block",
    "br_then_label", "br_else_label", "br_is_instanceof",
    "br_val_name", "br_val_type", "br_type_name", "br_negated",
    "br_op", "br_left_name", "br_left_type", "br_right_name", "br_right_type",
    "entry_points",
    "flow_kind", "flow_label", "flow_method", "flow_aux1", "flow_aux2",
    "use_ptr", "use_val", "obs_ptr", "obs_val",
    "ptgt_ptr", "ptgt_val", "pin_ptr", "pin_val",
    "const_kind", "const_int", "const_type",
    "cs_kind", "cs_method_name", "cs_target_class",
    "cs_result_name", "cs_result_type", "cs_recv_name", "cs_recv_type",
    "cs_args_ptr", "cs_args_name", "cs_args_type",
    "inv_args_ptr", "inv_args_val",
)


class ProgramArena:
    """Typed-column view over one frozen program buffer."""

    if TYPE_CHECKING:
        # The integer columns of _INT_SECTIONS are bound by setattr below.
        def __getattr__(self, name: str) -> memoryview: ...

    def __init__(self, buffer: BufferLike) -> None:
        reader = BufferReader(buffer)
        self.reader = reader
        for name in _INT_SECTIONS:
            setattr(self, name, reader.ints(name))
        self.str_blob = reader.bytes_("str_blob")
        self.body_blob = reader.bytes_("body_blob")
        self.fingerprint_blob = reader.bytes_("fingerprint_blob")
        self._strings: List[Optional[str]] = [None] * (len(self.str_offsets) - 1)
        self._fingerprint = None
        self._name_to_mid: Optional[Dict[str, int]] = None
        self._field_fids: Optional[Dict[str, int]] = None
        self._field_flow_ids: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # Table sizes
    # ------------------------------------------------------------------ #
    @property
    def num_types(self) -> int:
        return len(self.type_name)

    @property
    def num_fields(self) -> int:
        return len(self.field_name)

    @property
    def num_methods(self) -> int:
        return len(self.method_name)

    @property
    def num_flows(self) -> int:
        return len(self.flow_kind)

    @property
    def num_strings(self) -> int:
        return len(self._strings)

    def to_bytes(self) -> bytes:
        """The serialized buffer this arena reads from (a copy).

        Lets a consumer holding only an attached arena persist it again —
        e.g. the service spilling an arena-backed session back into the
        program store — without re-freezing anything.
        """
        return bytes(self.reader.raw)

    def body_sections(self):
        """The method-body pointer column and blob (see ``serialize``)."""
        return self.method_body_ptr, self.body_blob

    # ------------------------------------------------------------------ #
    # Strings
    # ------------------------------------------------------------------ #
    def string(self, sid: int) -> str:
        """Decode (and memoize) string ``sid`` from the UTF-8 blob."""
        text = self._strings[sid]
        if text is None:
            text = str(
                self.str_blob[self.str_offsets[sid]:self.str_offsets[sid + 1]],
                "utf-8")
            self._strings[sid] = text
        return text

    def opt_string(self, sid: int) -> Optional[str]:
        return None if sid == schema.NONE_ID else self.string(sid)

    @property
    def strings(self) -> List[str]:
        """The whole string table, by string id (decodes every string)."""
        return [self.string(sid) for sid in range(self.num_strings)]

    # ------------------------------------------------------------------ #
    # Decoded views
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self):
        """The :class:`ProgramFingerprint` stamped at freeze time."""
        if self._fingerprint is None:
            self._fingerprint = pickle.loads(self.fingerprint_blob)
        return self._fingerprint

    def qualified_name(self, mid: int) -> str:
        return self.string(self.method_name[mid])

    def mid_of(self, qualified_name: str) -> Optional[int]:
        """The method id of a qualified name, or ``None``."""
        if self._name_to_mid is None:
            self._name_to_mid = {
                self.qualified_name(mid): mid for mid in range(self.num_methods)}
        return self._name_to_mid.get(qualified_name)

    def field_flow_ids(self) -> List[int]:
        """The flow id of each declared field, by field row.

        A program's lowering puts the fields at fids ``1..num_fields``; an
        arena extended by deltas (and written out again) has each delta's
        fields after the flows before them, so those are found by kind.
        """
        if self._field_flow_ids is None:
            count = self.num_fields
            kind = self.flow_kind
            if not count or (kind[count] == schema.K_FIELD
                             and self.flow_aux1[count] == count - 1):
                self._field_flow_ids = list(range(1, 1 + count))
            else:
                rows = self.flow_aux1
                fids = [0] * count
                for fid in range(1, len(kind)):
                    if kind[fid] == schema.K_FIELD:
                        fids[rows[fid]] = fid
                self._field_flow_ids = fids
        return self._field_flow_ids

    def field_fid(self, qualified_field_name: str) -> Optional[int]:
        """The flow id of a declared field (see :meth:`field_flow_ids`)."""
        if self._field_fids is None:
            self._field_fids = {
                f"{self.string(self.field_class[row])}."
                f"{self.string(self.field_name[row])}": fid
                for row, fid in enumerate(self.field_flow_ids())}
        return self._field_fids.get(qualified_field_name)

    def method_signature(self, mid: int) -> MethodSignature:
        lo = self.method_sig_params_ptr[mid]
        hi = self.method_sig_params_ptr[mid + 1]
        return MethodSignature(
            declaring_class=self.string(self.method_sig_class[mid]),
            name=self.string(self.method_sig_name[mid]),
            param_types=tuple(
                self.string(sid) for sid in self.method_sig_params_val[lo:hi]),
            return_type=self.string(self.method_sig_return[mid]),
            is_static=bool(self.method_sig_static[mid]),
        )

    def method_blocks(self, mid: int) -> list:
        """Thaw one method body (independent per-method pickles)."""
        blob = self.body_blob[
            self.method_body_ptr[mid]:self.method_body_ptr[mid + 1]]
        return pickle.loads(blob)

    def allocation_sites(self, mid: int) -> Tuple[str, ...]:
        lo = self.method_alloc_ptr[mid]
        hi = self.method_alloc_ptr[mid + 1]
        return tuple(self.string(sid) for sid in self.method_alloc_val[lo:hi])

    def entry_point_names(self) -> List[str]:
        return [self.string(sid) for sid in self.entry_points]

    def build_hierarchy(self) -> TypeHierarchy:
        """Rebuild a real :class:`TypeHierarchy` from the flat type tables."""
        hierarchy = TypeHierarchy()
        for row in range(self.num_types):
            name = self.string(self.type_name[row])
            if name == OBJECT_TYPE_NAME:
                cls = hierarchy.get(name)
            else:
                flags = self.type_flags[row]
                ilo = self.type_ifaces_ptr[row]
                ihi = self.type_ifaces_ptr[row + 1]
                cls = hierarchy.declare_class(
                    name,
                    superclass=self.opt_string(self.type_super[row]),
                    interfaces=tuple(
                        self.string(sid)
                        for sid in self.type_ifaces_val[ilo:ihi]),
                    is_interface=bool(flags & schema.TYPE_FLAG_INTERFACE),
                    is_abstract=bool(flags & schema.TYPE_FLAG_ABSTRACT),
                )
            for field_row in range(self.type_fields_ptr[row],
                                   self.type_fields_ptr[row + 1]):
                cls.declare_field(
                    self.string(self.field_name[field_row]),
                    self.string(self.field_type[field_row]))
            for sig_row in range(self.type_sigs_ptr[row],
                                 self.type_sigs_ptr[row + 1]):
                plo = self.sig_params_ptr[sig_row]
                phi = self.sig_params_ptr[sig_row + 1]
                cls.declare_method(MethodSignature(
                    declaring_class=self.string(self.sig_class[sig_row]),
                    name=self.string(self.sig_name[sig_row]),
                    param_types=tuple(
                        self.string(sid)
                        for sid in self.sig_params_val[plo:phi]),
                    return_type=self.string(self.sig_return[sig_row]),
                    is_static=bool(self.sig_static[sig_row]),
                ))
        return hierarchy


def _plain_method(signature: MethodSignature, blocks: list,
                  never_returns: bool) -> Method:
    return Method(signature=signature, blocks=blocks,
                  never_returns=never_returns)


class ArenaMethod(Method):
    """A :class:`Method` whose body stays frozen until someone reads it.

    ``signature``/``never_returns`` come from integer columns at attach;
    ``blocks`` unpickles this method's private body blob on first access
    and ``instruction_count`` answers from a column without thawing.
    Pickling an :class:`ArenaMethod` produces a plain, self-contained
    :class:`Method`.
    """

    _arena: ProgramArena
    _mid: int

    @staticmethod
    def attach(arena: ProgramArena, mid: int,
               signature: Optional[MethodSignature] = None) -> "ArenaMethod":
        method = object.__new__(ArenaMethod)
        method.signature = signature or arena.method_signature(mid)
        method.never_returns = bool(arena.method_never_returns[mid])
        method._arena = arena
        method._mid = mid
        method._blocks = None
        return method

    @property  # type: ignore[override]
    def blocks(self) -> list:
        if self._blocks is None:
            self._blocks = self._arena.method_blocks(self._mid)
        return self._blocks

    @property
    def instruction_count(self) -> int:
        return int(self._arena.method_instr_count[self._mid])

    def __reduce__(self):
        return (_plain_method, (self.signature, self.blocks, self.never_returns))

    def detach(self) -> Method:
        """Turn this view into a plain :class:`Method`, in place.

        The body is decoded if it was not yet, and the arena is released:
        the object becomes exactly a ``Method`` holding that body, so every
        reference to it (a restored snapshot's method graphs among them)
        stops keeping the buffer alive.  :func:`thaw` detaches the views an
        attached program handed out and adopts them as its own methods.
        """
        blocks = self.blocks
        del self._arena, self._mid, self._blocks
        self.__class__ = Method
        self.blocks = blocks
        return self


def _signature_for(arena: ProgramArena, mid: int,
                   hierarchy: TypeHierarchy) -> MethodSignature:
    """Reuse the hierarchy's declared signature object when it exists."""
    signature = arena.method_signature(mid)
    if signature.declaring_class in hierarchy:
        declared = hierarchy.get(signature.declaring_class).declared_methods.get(
            signature.name)
        if declared == signature:
            return declared
    return signature


class LazyMethodMap(Mapping):
    """``qualified name -> ArenaMethod`` mapping over an arena.

    Read-only, except that new methods may be added: the ones a delta
    extends an attached program with are plain :class:`Method` objects.
    """

    def __init__(self, arena: ProgramArena, hierarchy: TypeHierarchy) -> None:
        self._arena = arena
        self._hierarchy = hierarchy
        self._names = [arena.qualified_name(mid)
                       for mid in range(arena.num_methods)]
        self._cache: Dict[str, ArenaMethod] = {}

    def __getitem__(self, name: str) -> ArenaMethod:
        method = self._cache.get(name)
        if method is None:
            mid = self._arena.mid_of(name)
            if mid is None:
                raise KeyError(name)
            method = ArenaMethod.attach(
                self._arena, mid,
                _signature_for(self._arena, mid, self._hierarchy))
            self._cache[name] = method
        return method

    def __contains__(self, name: object) -> bool:
        # Without a view: ``Mapping.__contains__`` would build one per test.
        return name in self._cache or (
            isinstance(name, str) and self._arena.mid_of(name) is not None)

    def __setitem__(self, name: str, method: Method) -> None:
        """Add a method the arena does not hold (a delta's; see
        :meth:`ArenaProgram.extend`).  The mapping only grows."""
        if name in self:
            raise KeyError(f"method {name!r} is already in the arena")
        self._names.append(name)
        self._cache[name] = method

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def materialized(self) -> Dict[str, Method]:
        """The methods handed out or added so far, by qualified name."""
        return dict(self._cache)

    def __reduce__(self):
        # Pickling thaws everything: the copy must outlive the buffer.
        return (dict, (dict(self),))


class ArenaProgram(Program):
    """A :class:`Program` façade over an arena.

    Attached to a buffer, it rebuilds the hierarchy from the type tables
    and thaws method bodies lazily.  It only grows: a monotone
    :class:`~repro.ir.delta.ProgramDelta` applied to it appends a lowering
    of the delta's classes, fields and methods after the arena's own ids
    (:meth:`extend`), so solver states over the old arena stay valid over
    the new one.  Over an in-memory lowering of a live ``source`` program
    (:func:`repro.ir.arena.lowered_program`) it shares the source's
    hierarchy, method bodies and entry points instead — ``methods`` is a
    read-only proxy of the source's mapping — and grows only when a
    monotone delta is applied to the source (which extends it the same
    way).
    """

    def __init__(self, arena: ProgramArena,
                 source: Optional[Program] = None) -> None:
        if source is None:
            hierarchy = arena.build_hierarchy()
            super().__init__(
                hierarchy=hierarchy,
                methods=LazyMethodMap(arena, hierarchy),
                entry_points=arena.entry_point_names(),
            )
        else:
            super().__init__(
                hierarchy=source.hierarchy,
                methods=MappingProxyType(source.methods),
                entry_points=source.entry_points,
            )
        self.arena = arena
        self._site_index: Optional[Dict[str, Tuple[str, ...]]] = None

    @property
    def extendable(self) -> bool:
        """Whether deltas may extend this program (an attached one)."""
        return isinstance(self.methods, LazyMethodMap)

    def extend(self, delta) -> None:
        """Append the lowering of ``delta``, just applied, to the arena.

        :meth:`ProgramDelta.apply_to <repro.ir.delta.ProgramDelta.apply_to>`
        calls this once it has declared the delta's classes, fields and
        methods on this program: the arena becomes an
        :class:`~repro.ir.arena.lowering.ExtendedArena` over the old one.
        Only the delta's own methods are lowered; no body is thawed.
        """
        from repro.ir.arena.lowering import ExtendedArena

        arena = self.arena
        known = arena.num_types
        classes = [cls for index, cls in enumerate(self.hierarchy)
                   if index >= known]
        self.arena = ExtendedArena(
            arena, classes, [self.methods[name] for name in delta.method_names],
            self.entry_points[len(arena.entry_points):],
            delta.method_digests())

    @property
    def allocation_site_index(self) -> Dict[str, Tuple[str, ...]]:
        """Qualified method name -> types NEW'd in its body (frozen order)."""
        arena = self.arena
        index = self._site_index
        if index is None or len(index) < arena.num_methods:
            index = dict(index or {})
            for mid in range(len(index), arena.num_methods):
                index[arena.qualified_name(mid)] = arena.allocation_sites(mid)
            self._site_index = index
        return index

    @property
    def program_fingerprint(self):
        return self.arena.fingerprint


def open_program(buffer: BufferLike) -> ArenaProgram:
    """Attach a frozen buffer as a lazily-decoded read-only program."""
    return ArenaProgram(ProgramArena(buffer))


def thaw(source) -> Program:
    """Fully decode an arena back into a plain mutable Program.

    ``source`` is a buffer, a :class:`ProgramArena`, or an
    :class:`ArenaProgram`.  Thawing an attached program *consumes* it: the
    new program takes over its hierarchy and adopts every method view it
    handed out, detached into plain methods (:meth:`ArenaMethod.detach`),
    so a body decoded before (a snapshot restored against the attached
    program decodes the reachable ones) is not decoded again, and whatever
    held those views now holds the new program's own methods.  The
    attached program must not be used afterwards.  A view of a live
    program's lowering (:func:`~repro.ir.arena.lowered_program`) shares
    that program's hierarchy and methods, so thawing it copies the source
    program instead: a new hierarchy from the type tables and new method
    objects around the (never edited in place) bodies, leaving the source
    and its view untouched.  The new program's fingerprint memo is seeded
    from the arena's fingerprint, so no body is re-digested.
    """
    views: Dict[str, ArenaMethod] = {}
    if isinstance(source, ArenaProgram) and source.extendable:
        arena, hierarchy = source.arena, source.hierarchy
        views = source.methods.materialized()
    elif isinstance(source, ArenaProgram):
        arena = source.arena
        hierarchy = arena.build_hierarchy()
    else:
        arena = source if isinstance(source, ProgramArena) else ProgramArena(source)
        hierarchy = arena.build_hierarchy()
    program = Program(hierarchy=hierarchy)
    for mid in range(arena.num_methods):
        view = views.get(arena.qualified_name(mid))
        if isinstance(view, ArenaMethod):
            view = view.detach()
        program.add_method(view if view is not None else Method(
            signature=_signature_for(arena, mid, hierarchy),
            blocks=arena.method_blocks(mid),
            never_returns=bool(arena.method_never_returns[mid]),
        ))
    for name in arena.entry_point_names():
        program.add_entry_point(name)
    seed_fingerprint(program, arena.fingerprint)
    return program


__all__ = [
    "ArenaFormatError",
    "ArenaMethod",
    "ArenaProgram",
    "LazyMethodMap",
    "ProgramArena",
    "open_program",
    "thaw",
]
