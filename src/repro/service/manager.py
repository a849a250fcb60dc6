"""The session manager: named, lock-guarded, evictable analysis sessions.

:class:`SessionManager` is the embeddable core of analysis-as-a-service —
the daemon is a thin HTTP shell around it, and the tests drive it directly.
It owns a registry of named :class:`ManagedSession` objects, each wrapping
one :class:`~repro.api.session.AnalysisSession`, and provides the four
properties a long-lived server needs that a bare session does not:

**Concurrency.**  A manager-level lock guards the name registry; every
managed session carries its own re-entrant lock serializing update/analyze
on that session, so concurrent clients on *distinct* sessions proceed in
parallel while interleaved requests on *one* session are consistent.

**Delta coalescing.**  ``update`` requests queue
:class:`~repro.ir.delta.ProgramDelta` scripts instead of solving; the next
``analyze`` drains the queue and pays for all of them with one (warm,
whenever sound) solve.  An editor streaming keystroke-sized edits gets one
resumed fixpoint per analysis request, not one per edit.

**Eviction and rehydration.**  Idle sessions past ``max_live_sessions``
are spilled least-recently-used.  Every session's program is attached
(:class:`~repro.ir.arena.ArenaProgram`): a benchmark session attaches its
spec's shared blob, and a source session, a rebuilt one, or a benchmark
whose blob could not be stored attaches its own freeze at open.  A
program derives from a **base**: an arena blob in the engine's
:class:`~repro.engine.program_store.ProgramStore`, plus the **log** of
:class:`~repro.ir.delta.ProgramDelta` scripts applied since, each of
which appended its own lowering to the arena.  A spill lowers nothing:
it writes every resumable analyzer slot's arena solver state (its
pickled tables) to the :class:`~repro.engine.snapshots.SnapshotStore`,
keyed by a :class:`SessionSpillSpec` exactly like benchmark blobs are
keyed by their specs, and keeps the log in memory.  A state that
predates the session's warm barrier can never resume, so it is parked
without its tables.  Only a session without a base (a source session, a
rebuilt one, one whose update thawed and re-froze its program) or whose
program has outgrown its base (:data:`REBASE_GROWTH`) writes the
program, and that blob becomes its new base; so a replayed log is always
monotone.  The next request on an evicted session transparently
rehydrates it — the base attached and the log replayed, which re-extends
the arena to the same fids, states restored over the result and
re-stamped with their original session generations via
:meth:`~repro.api.session.AnalysisSession.adopt_generations` — so warm
resumption survives the round trip to disk without a thaw.  A spill
deletes the files of the session's previous spill that it did not
rewrite, and ``close`` deletes the session's files, so the spill
directory holds at most one base and one set of snapshots per session; a
benchmark's shared blob is never a session's to delete.

**Metrics.**  Every request updates a :class:`ServiceMetrics` snapshot:
request counts, solve modes (cached / warm / cold / cold-fallback), the
kernel each analyze reported and the thaws sessions took, steps paid
warm vs cold, coalescing depth, eviction traffic (with the spills that
froze a program and the deltas rehydrations replayed), and latency
percentiles of analyzes, spills and rehydrations.

Warm solves stay *sound*, not just fast: the manager only offers a slot's
state for resumption when the slot's generation is at or past the
session's warm barrier (no non-monotone update intervened), and the
session itself re-checks every resume — the manager is an optimization
layer, never a second soundness authority.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.errors import (
    CheckFailedError,
    NoEntryPointError,
    ServiceProtocolError,
    SessionExistsError,
    SessionNotFoundError,
    SessionRehydrationError,
)
from repro.api.registry import get_analyzer, has_engine_config
from repro.api.session import AnalysisSession, SessionUpdate
from repro.core.state import SnapshotMismatchError
from repro.engine.program_store import ProgramStore
from repro.engine.snapshots import SnapshotStore
from repro.ir.arena import ArenaProgram, freeze, open_program
from repro.ir.delta import (
    DeltaError,
    NonMonotoneDeltaError,
    ProgramDelta,
    delta_between,
)
from repro.lang.api import compile_source
from repro.service.wire import WIRE_OPTIONS
from repro.workloads.edits import EditStepSpec, build_edit_delta
from repro.workloads.generator import BenchmarkSpec
from repro.workloads.suites import DEFAULT_SCALE, extended_suites

#: How many latencies of each kind the metrics ring buffers keep.
LATENCY_WINDOW = 4096

#: What the metrics time: ``analyze`` requests, spills, rehydrations.
LATENCY_KINDS = ("analyze", "spill", "rehydrate")

#: A spill re-bases (freezes the program as the session's new base) once
#: the program holds this many times its base's methods.  Until then a
#: rehydration replays the log, whose ``apply_to`` costs the deltas' size:
#: at the doubling point of a session parked after every one-method edit,
#: the replay took 1-7 ms against 30-110 ms for one freeze of the program.
REBASE_GROWTH = 2

#: Solve modes an ``analyze`` request can report.
ANALYZE_MODES = ("cached", "warm", "cold", "cold-fallback")


@dataclass(frozen=True)
class SessionSpillSpec:
    """The cache identity of one evicted session's on-disk blobs.

    A frozen dataclass so the engine stores key it through
    :func:`~repro.engine.cache.hash_dataclass` exactly like a
    :class:`~repro.workloads.generator.BenchmarkSpec`: a session-owned base
    blob is keyed by ``(session, generation)`` with an empty slot, each
    solver state by ``(session, generation, slot key)``.  Distinct
    generations get distinct blobs, so a stale spill can never shadow a
    newer one.
    """

    session: str
    generation: int
    slot: str = ""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    ``q`` is in ``[0, 100]``.  Returns ``0.0`` for an empty sequence — the
    metrics snapshot wants a number, not an exception, before any request
    has been served.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)


class ServiceMetrics:
    """Thread-safe counters and latency percentiles for one manager."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {
            "opens": 0, "updates": 0, "analyzes": 0, "closes": 0,
            "evictions": 0, "rehydrations": 0,
            "rehydration_state_misses": 0, "rebuilds": 0,
            "spill_freezes": 0, "replayed_deltas": 0,
            "checks": 0, "check_findings": 0,
            "analyzes_arena": 0, "analyzes_object": 0, "thaws": 0,
        }
        self.modes: Dict[str, int] = {mode: 0 for mode in ANALYZE_MODES}
        self.warm_steps_paid = 0
        self.cold_steps_paid = 0
        self.coalesced_updates = 0
        self.max_coalesced = 0
        self._latencies: Dict[str, deque] = {
            kind: deque(maxlen=LATENCY_WINDOW) for kind in LATENCY_KINDS}

    def bump(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def record_latency(self, kind: str, seconds: float) -> None:
        with self._lock:
            self._latencies[kind].append(seconds)

    def record_analyze(self, *, mode: str, steps_paid: int,
                       coalesced: int, latency_seconds: float,
                       kernel: Optional[str] = None) -> None:
        with self._lock:
            self.counts["analyzes"] += 1
            if kernel is not None:
                self.counts[f"analyzes_{kernel}"] += 1
            self.modes[mode] = self.modes.get(mode, 0) + 1
            if mode == "warm":
                self.warm_steps_paid += steps_paid
            elif mode in ("cold", "cold-fallback"):
                self.cold_steps_paid += steps_paid
            self.coalesced_updates += coalesced
            self.max_coalesced = max(self.max_coalesced, coalesced)
            self._latencies["analyze"].append(latency_seconds)

    def snapshot(self) -> dict:
        """One JSON-ready view of every counter (the ``/v1/metrics`` body)."""
        with self._lock:
            warm = self.modes["warm"]
            solved = warm + self.modes["cold"] + self.modes["cold-fallback"]
            snapshot = {
                "requests": dict(self.counts),
                "analyze_modes": dict(self.modes),
                "warm_resume_ratio": (warm / solved) if solved else None,
                "warm_steps_paid": self.warm_steps_paid,
                "cold_steps_paid": self.cold_steps_paid,
                "coalesced_updates": self.coalesced_updates,
                "max_coalesced": self.max_coalesced,
            }
            for kind, window in self._latencies.items():
                latencies = list(window)
                snapshot[f"{kind}_latency_ms"] = {
                    "count": len(latencies),
                    **{f"p{q}": round(percentile(latencies, q) * 1000, 3)
                       for q in (50, 95, 99)},
                }
            return snapshot


@dataclass
class _AnalyzerSlot:
    """One (analyzer, options) combination's last solve on a session."""

    key: str
    analysis: str
    options: Dict[str, object]
    state: Optional[object]         # ArenaSolverState, None for CHA/RTA
    payload: Optional[dict]         # AnalysisReport.to_dict() of the solve
    generation: int                 # session generation the slot solved
    kernel: Optional[str] = None    # the kernel that ran (arena), or None


@dataclass(frozen=True)
class _SlotRecord:
    """The in-memory remainder of a slot while its session is evicted."""

    key: str
    analysis: str
    options: Tuple[Tuple[str, object], ...]
    generation: int
    payload: Optional[dict]
    config: Optional[object]        # AnalysisConfig, None for CHA/RTA
    has_state: bool                 # whether its tables were written


@dataclass(frozen=True)
class _EvictedSession:
    """What stays in memory for a spilled session: keys, not object graphs."""

    generation: int
    warm_barrier: int
    slots: Tuple[_SlotRecord, ...]
    barrier_reasons: Tuple[str, ...] = ()


@dataclass
class ManagedSession:
    """One named session plus its service-layer bookkeeping."""

    name: str
    origin: str                     # "source" | "benchmark"
    session: Optional[AnalysisSession]
    spec: Optional[BenchmarkSpec] = None
    roots: Optional[List[str]] = None
    lock: threading.RLock = field(default_factory=threading.RLock)
    pending: List[ProgramDelta] = field(default_factory=list)
    slots: Dict[str, _AnalyzerSlot] = field(default_factory=dict)
    evicted: Optional[_EvictedSession] = None
    #: The store key of the arena blob the program derives from: the spec
    #: of a benchmark's shared blob, or the session's own frozen program.
    base: Union[BenchmarkSpec, SessionSpillSpec, None] = None
    #: How many methods the base holds (see :data:`REBASE_GROWTH`).
    base_methods: int = 0
    #: The deltas applied since the base, in order (replayed on rehydration).
    log: List[ProgramDelta] = field(default_factory=list)
    #: The files the session owns: its own base blob and last snapshots.
    spilled: Tuple[Path, ...] = ()
    last_used: float = field(default_factory=time.monotonic)

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def drain_pending(self) -> List[SessionUpdate]:
        """Apply every queued delta to the live session, logging each one.

        An update that thawed the program re-attached a new freeze, which
        no stored blob holds: the session loses its base, so the next
        spill rebases.  Callers count those updates.
        """
        applied: List[SessionUpdate] = []
        while self.pending:
            delta = self.pending.pop(0)
            update = self.session.update(delta)
            applied.append(update)
            self.log.append(delta)
            if update.thawed:
                self.base = None
        return applied


def _slot_key(analysis: str, options: Dict[str, object]) -> str:
    return f"{analysis}|{json.dumps(options, sort_keys=True)}"


def validate_wire_options(options: Dict[str, object]) -> None:
    """Reject analyzer options the wire protocol does not carry."""
    for key, value in options.items():
        if key not in WIRE_OPTIONS:
            raise ServiceProtocolError(
                f"unsupported analyzer option {key!r}; the wire accepts: "
                f"{', '.join(sorted(WIRE_OPTIONS))}")
        if value is not None and not isinstance(value, (str, int)):
            raise ServiceProtocolError(
                f"analyzer option {key!r} must be a JSON scalar, "
                f"not {type(value).__name__}")


class SessionManager:
    """Named analysis sessions with locking, coalescing, and LRU eviction."""

    def __init__(self, *, max_live_sessions: int = 8,
                 spill_dir=None, default_scale: float = DEFAULT_SCALE) -> None:
        if max_live_sessions < 1:
            raise ValueError(
                f"max_live_sessions must be >= 1, got {max_live_sessions}")
        self.max_live_sessions = max_live_sessions
        self.default_scale = default_scale
        if spill_dir is None:
            # Process-lifetime scratch space; cleaned up on interpreter exit.
            self._spill_tmp = tempfile.TemporaryDirectory(
                prefix="repro-service-")
            spill_dir = self._spill_tmp.name
        self.spill_dir = Path(spill_dir)
        self._programs = ProgramStore(self.spill_dir / "programs")
        self._snapshots = SnapshotStore(self.spill_dir / "snapshots")
        self._lock = threading.Lock()
        self._sessions: Dict[str, ManagedSession] = {}
        self.metrics = ServiceMetrics()

    # ------------------------------------------------------------------ #
    # Lifecycle: open / close / listing
    # ------------------------------------------------------------------ #
    def open(self, name: str, *, source: Optional[str] = None,
             benchmark: Optional[str] = None,
             roots: Optional[Sequence[str]] = None,
             scale: Optional[float] = None,
             replace: bool = False) -> dict:
        """Create a named session from source text or a benchmark spec.

        Exactly one of ``source`` (surface-language text, compiled here)
        and ``benchmark`` (a spec name from the extended suites, attached
        through the program store's ``attach_or_build``, which generates
        and stores the program on its first open) must be given.  ``roots``
        become the session's default analysis roots.  Re-opening an
        existing name needs ``replace`` (else
        :class:`~repro.api.errors.SessionExistsError`).
        """
        if not name or not isinstance(name, str):
            raise ServiceProtocolError("session name must be a non-empty string")
        if (source is None) == (benchmark is None):
            raise ServiceProtocolError(
                "open needs exactly one of 'source' or 'benchmark'")
        root_list = list(roots) if roots else None
        # Build outside every lock: compiling / generating can be slow.
        if source is not None:
            program, spec, origin = compile_source(source), None, "source"
        else:
            spec, origin = self._find_benchmark(benchmark, scale), "benchmark"
            # Attach the spec's arena blob (zero decode); edits extend it
            # in place (see AnalysisSession.update).
            program, _ = self._programs.attach_or_build(spec)
        base = spec
        if not isinstance(program, ArenaProgram):
            # No stored blob: attach a freeze, which the first spill writes
            # as the session's own base.
            program, base = open_program(freeze(program)), None
        session = AnalysisSession(program, name=name, roots=root_list)
        managed = ManagedSession(name=name, origin=origin, session=session,
                                 spec=spec, roots=root_list, base=base)
        if base is not None:
            # The attached blob is the session's base; spills never write it.
            managed.base_methods = len(program.methods)
        with self._lock:
            replaced = self._sessions.get(name)
            if replaced is not None and not replace:
                raise SessionExistsError(
                    f"session {name!r} already exists; pass replace=true to "
                    f"re-open it")
            self._sessions[name] = managed
        if replaced is not None:
            with replaced.lock:
                stale, replaced.spilled = replaced.spilled, ()
            with managed.lock:
                # The new session spills under the same name, so keep any
                # file it may already have rewritten.
                _discard(set(stale) - set(managed.spilled))
        self.metrics.bump("opens")
        self._maybe_evict(exclude=name)
        return self.describe(name)

    def close(self, name: str) -> dict:
        """Drop a session and delete the files it owns.

        Those are its snapshots and, once a spill froze its program, its
        own base blob; a benchmark's shared blob stays for the next open.
        """
        with self._lock:
            managed = self._sessions.pop(name, None)
        if managed is None:
            raise SessionNotFoundError(f"unknown session {name!r}")
        with managed.lock:
            _discard(managed.spilled)
            managed.spilled = ()
        self.metrics.bump("closes")
        return {"session": name, "closed": True}

    def session_names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def describe(self, name: str) -> dict:
        """One session's public status (the ``/v1/sessions`` row shape)."""
        managed = self._require(name)
        with managed.lock:
            live = managed.session is not None
            info = {
                "session": managed.name,
                "origin": managed.origin,
                "live": live,
                "pending_updates": len(managed.pending),
                "analyses": sorted(
                    slot.analysis for slot in managed.slots.values())
                    if live else sorted(
                        record.analysis
                        for record in (managed.evicted.slots
                                       if managed.evicted else ())),
            }
            if live:
                info["generation"] = managed.session.generation
                info["warm_barrier"] = managed.session.warm_barrier
                info["methods"] = len(managed.session.program.methods)
            elif managed.evicted is not None:
                info["generation"] = managed.evicted.generation
                info["warm_barrier"] = managed.evicted.warm_barrier
        return info

    def sessions(self) -> List[dict]:
        return [self.describe(name) for name in self.session_names()]

    def metrics_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        with self._lock:
            live = sum(1 for managed in self._sessions.values()
                       if managed.session is not None)
            snapshot["sessions"] = {
                "live": live,
                "evicted": len(self._sessions) - live,
                "max_live": self.max_live_sessions,
            }
        return snapshot

    # ------------------------------------------------------------------ #
    # Updates: queued deltas, coalesced at the next analyze
    # ------------------------------------------------------------------ #
    def update(self, name: str, *, source: Optional[str] = None,
               edit: Optional[dict] = None,
               allow_rebuild: bool = False) -> dict:
        """Queue one program change on a session without solving.

        Two shapes: ``edit`` is a deterministic edit step
        (``{"kind": ..., "index": ...}``) over the session's benchmark
        spec, queued as-is; ``source`` is the *full* edited program text,
        which is compiled and structurally diffed against the session's
        program (:func:`~repro.ir.delta.delta_between`) into an additive
        delta.  A non-monotone source diff raises
        :class:`~repro.ir.delta.NonMonotoneDeltaError` (HTTP 409) unless
        ``allow_rebuild`` is set, in which case the session is rebuilt
        around the new program and every analyzer slot is dropped — the
        next analyze solves cold, with the generation history advanced so
        stale states cannot resume.
        """
        if (source is None) == (edit is None):
            raise ServiceProtocolError(
                "update needs exactly one of 'source' or 'edit'")
        managed = self._require(name)
        with managed.lock:
            self._ensure_live(managed)
            session = managed.session
            result: dict
            if edit is not None:
                if managed.spec is None:
                    raise ServiceProtocolError(
                        "edit-step updates need a benchmark-backed session; "
                        "source-backed sessions take full 'source' updates")
                step = _parse_edit_step(edit)
                delta = build_edit_delta(managed.spec, step)
                managed.pending.append(delta)
                result = {"session": name, "queued": len(managed.pending),
                          "generation": session.generation,
                          "delta": delta.name, "rebuilt": False}
            else:
                # A full-source update diffs against the *current* program,
                # so queued deltas must land first (still without a solve).
                self._drain(managed)
                new_program = compile_source(source, validate=True)
                try:
                    delta = delta_between(
                        session.program, new_program,
                        name=f"{name}@gen{session.generation}")
                except NonMonotoneDeltaError as error:
                    if not allow_rebuild:
                        raise
                    result = self._rebuild(managed, new_program,
                                           error.reasons)
                else:
                    if not delta.is_empty:
                        managed.pending.append(delta)
                    result = {"session": name,
                              "queued": len(managed.pending),
                              "generation": session.generation,
                              "delta": delta.name,
                              "noop": delta.is_empty, "rebuilt": False}
            managed.touch()
        self.metrics.bump("updates")
        return result

    def _rebuild(self, managed: ManagedSession, new_program,
                 reasons: Tuple[str, ...] = ()) -> dict:
        """Replace a session's program wholesale after a non-monotone edit."""
        old = managed.session
        fresh = AnalysisSession(open_program(freeze(new_program)),
                                name=managed.name, roots=managed.roots)
        # One generation past the old history, with the barrier at the new
        # generation: every pre-rebuild state is cold by construction.  The
        # rebuild's reasons become the barrier reasons, so later fallback
        # messages name the offending classes/methods.
        fresh.adopt_generations(old.generation + 1, old.generation + 1,
                                reasons)
        managed.session = fresh
        managed.slots = {}
        managed.pending = []
        # The new program derives from no blob: the next spill freezes it.
        managed.base, managed.base_methods, managed.log = None, 0, []
        self.metrics.bump("rebuilds")
        return {"session": managed.name, "queued": 0,
                "generation": fresh.generation, "rebuilt": True}

    # ------------------------------------------------------------------ #
    # Analyze: drain the queue, resume warm when sound
    # ------------------------------------------------------------------ #
    def analyze(self, name: str, analysis: str,
                options: Optional[dict] = None, *,
                audit: bool = False) -> dict:
        """Run one registered analysis on a session, warm whenever sound.

        Drains the session's queued deltas first (one solve pays for all of
        them), then solves: ``cached`` if this (analyzer, options) slot
        already solved the current generation, ``warm`` resuming the slot's
        state when no non-monotone update intervened, ``cold-fallback``
        when one did, plain ``cold`` on a first solve.  The response embeds
        the full versioned report payload plus the mode, the steps this
        request actually paid, and the coalescing depth.

        With ``audit``, the post-solve audits (:mod:`repro.checks.audit`,
        minus the snapshot round-trip — that is ``check``'s job) run over
        the slot's state before the response is built.  A failing audit
        raises :class:`~repro.api.errors.CheckFailedError` instead of
        returning: the daemon must not hand out an artifact that failed
        its own soundness audit.  A clean audit adds an ``"audit"`` block
        to the response.
        """
        started = time.perf_counter()
        options = dict(options or {})
        validate_wire_options(options)
        analyzer = get_analyzer(analysis)
        managed = self._require(name)
        with managed.lock:
            self._ensure_live(managed)
            session = managed.session
            coalesced = len(managed.pending)
            self._drain(managed)
            key = _slot_key(analyzer.name, options)
            slot = managed.slots.get(key)
            fallback_reasons: List[str] = []
            if (slot is not None and slot.payload is not None
                    and slot.generation == session.generation):
                mode, steps_paid, payload = "cached", 0, slot.payload
            else:
                mode, steps_paid, payload = self._solve(
                    managed, session, analyzer, key, slot, options,
                    fallback_reasons)
            kernel = managed.slots[key].kernel
            audit_block = None
            if audit:
                audit_block = self._audit_slot(managed, session, key)
            generation = session.generation
            managed.touch()
        latency = time.perf_counter() - started
        self.metrics.record_analyze(mode=mode, steps_paid=steps_paid,
                                    coalesced=coalesced,
                                    latency_seconds=latency, kernel=kernel)
        self._maybe_evict(exclude=name)
        response = {
            "session": name,
            "analysis": analyzer.name,
            "generation": generation,
            "mode": mode,
            "kernel": kernel,
            "steps_paid": steps_paid,
            "coalesced_updates": coalesced,
            "fallback_reasons": fallback_reasons,
            "latency_ms": round(latency * 1000, 3),
            "report": payload,
        }
        if audit_block is not None:
            response["audit"] = audit_block
        return response

    def _audit_slot(self, managed: ManagedSession,
                    session: AnalysisSession, key: str) -> dict:
        """Audit one slot's solver state; caller holds the session lock.

        Raises :class:`CheckFailedError` on any error-severity finding —
        an artifact failing its audit must not be served.
        """
        from repro.checks import (
            audit_state,
            diagnostics_to_dict,
            has_errors,
            render_text,
        )

        slot = managed.slots.get(key)
        state = slot.state if slot is not None else None
        if state is None:
            # CHA/RTA produce no solver state: trivially clean.
            diagnostics = []
        else:
            diagnostics = audit_state(state, session.program,
                                      warm_barrier=session.warm_barrier,
                                      snapshot=False)
        if diagnostics:
            self.metrics.bump("check_findings", len(diagnostics))
        if has_errors(diagnostics):
            raise CheckFailedError(
                f"post-solve audit failed for session {managed.name!r}:\n"
                + render_text(diagnostics))
        return diagnostics_to_dict(diagnostics)

    def check(self, name: str, *, analysis: Optional[str] = None,
              options: Optional[dict] = None) -> dict:
        """Static diagnostics over a session (the ``/v1/check`` endpoint).

        Always runs the lint passes over the session's current program
        (queued deltas are drained first, so the lint sees what the next
        analyze would solve).  With ``analysis``, the named analyzer also
        runs — through the same slot machinery as ``analyze``, so a warm
        or cached state is reused, not re-solved — and its artifacts go
        through the full audits including the snapshot round-trip.  The
        response carries the rendered diagnostics; unlike audit-on-analyze
        it never raises on findings, because the caller asked to *see*
        them, not to gate on them.
        """
        from repro.checks import (
            CheckContext,
            audit_state,
            diagnostics_to_dict,
            run_checks,
            sort_diagnostics,
        )

        options = dict(options or {})
        validate_wire_options(options)
        analyzer = get_analyzer(analysis) if analysis is not None else None
        managed = self._require(name)
        with managed.lock:
            self._ensure_live(managed)
            session = managed.session
            self._drain(managed)
            try:
                roots = tuple(session.resolve_roots())
            except NoEntryPointError:
                roots = ()
            diagnostics = run_checks(
                CheckContext(program=session.program, roots=roots),
                kind="lint")
            analyzed = None
            if analyzer is not None:
                key = _slot_key(analyzer.name, options)
                slot = managed.slots.get(key)
                if (slot is None or slot.payload is None
                        or slot.generation != session.generation):
                    self._solve(managed, session, analyzer, key, slot,
                                options, [])
                state = managed.slots[key].state
                analyzed = analyzer.name
                if state is not None:
                    audits = audit_state(
                        state, session.program,
                        warm_barrier=session.warm_barrier)
                    diagnostics = sort_diagnostics(
                        list(diagnostics) + list(audits))
            generation = session.generation
            managed.touch()
        self.metrics.bump("checks")
        findings = diagnostics_to_dict(diagnostics)
        if findings["diagnostics"]:
            self.metrics.bump("check_findings",
                              len(findings["diagnostics"]))
        return {
            "session": name,
            "generation": generation,
            "analysis": analyzed,
            **findings,
        }

    def _solve(self, managed: ManagedSession, session: AnalysisSession,
               analyzer, key: str, slot: Optional[_AnalyzerSlot],
               options: dict,
               fallback_reasons: List[str]) -> Tuple[str, int, dict]:
        """One solve of ``analyzer`` over ``session``; returns mode/steps/payload.

        A slot of an engine analysis that predates the warm barrier solves
        ``cold-fallback``, naming the offenders, whether its state is still
        in hand or was parked without it.
        """
        resume_state = None
        stale = (slot is not None and has_engine_config(analyzer)
                 and slot.generation < session.warm_barrier)
        if stale:
            offenders = "; ".join(session.warm_barrier_reasons)
            fallback_reasons.append(
                f"a non-monotone update (generation "
                f"{session.warm_barrier}) invalidated the state solved "
                f"at generation {slot.generation}"
                + (f": {offenders}" if offenders else ""))
        elif slot is not None:
            resume_state = slot.state
        before = resume_state.counters()["steps"] if resume_state is not None else 0
        if resume_state is not None:
            # The session re-validates the resume; it may still refuse (and
            # warn) — detected below by state identity, never assumed.
            report = session.run(analyzer.name, resume=resume_state, **options)
        else:
            report = session.run(analyzer.name, **options)
        state = getattr(report.raw, "resumable_state", None)
        total = report.solver_steps or 0
        if resume_state is not None and state is resume_state:
            mode, steps_paid = "warm", total - before
        elif stale or resume_state is not None:
            if resume_state is not None:
                fallback_reasons.append(
                    "the session refused the resume and solved cold")
            mode, steps_paid = "cold-fallback", total
        else:
            mode, steps_paid = "cold", total
        payload = report.to_dict()
        managed.slots[key] = _AnalyzerSlot(
            key=key, analysis=analyzer.name, options=dict(options),
            state=state, payload=payload, generation=session.generation,
            kernel=getattr(report.raw, "kernel_ran", None))
        return mode, steps_paid, payload

    # ------------------------------------------------------------------ #
    # Eviction and rehydration
    # ------------------------------------------------------------------ #
    def evict(self, name: str) -> dict:
        """Spill one session to disk now (the LRU path, but on demand)."""
        managed = self._require(name)
        with managed.lock:
            if managed.session is None:
                return {"session": name, "evicted": False,
                        "already_evicted": True}
            self._spill(managed)
        return {"session": name, "evicted": True}

    def _maybe_evict(self, exclude: Optional[str] = None) -> int:
        """Spill least-recently-used sessions beyond ``max_live_sessions``.

        Busy sessions are skipped rather than waited for (their lock is
        probed, not blocked on), so eviction can never deadlock against a
        request holding a session lock while opening the manager lock.
        """
        evicted = 0
        with self._lock:
            live = [managed for managed in self._sessions.values()
                    if managed.session is not None]
            excess = len(live) - self.max_live_sessions
            if excess <= 0:
                return 0
            for managed in sorted(live, key=lambda entry: entry.last_used):
                if evicted >= excess:
                    break
                if managed.name == exclude:
                    continue
                if not managed.lock.acquire(blocking=False):
                    continue
                try:
                    if managed.session is not None:
                        self._spill(managed)
                        evicted += 1
                finally:
                    managed.lock.release()
        return evicted

    def _spill(self, managed: ManagedSession) -> None:
        """Persist a live session's solver states; caller holds its lock.

        The program is not written: it is the session's base blob plus the
        delta log, both already in hand.  A session without a base, or
        whose program has grown to :data:`REBASE_GROWTH` times its base's
        method count, writes its attached arena (extension included, fids
        unchanged) once here, and that blob becomes its base with an empty
        log.  Each slot state is written as its pickled tables, except a
        state that predates the warm barrier: it indexes an arena the
        session no longer has and could never resume, so its slot parks
        without it.  Files of the previous spill that this one did not
        rewrite are superseded (an older own base, older snapshots) and are
        deleted.
        """
        started = time.perf_counter()
        self._drain(managed)   # The log must hold every queued edit.
        session = managed.session
        program = session.program
        if (managed.base is None or len(program.methods)
                >= REBASE_GROWTH * max(managed.base_methods, 1)):
            self._rebase(managed)
        written = []
        if isinstance(managed.base, SessionSpillSpec):
            written.append(self._programs.path_for(managed.base))
        records = []
        for slot in managed.slots.values():
            config = slot.state.config if slot.state is not None else None
            has_state = (config is not None
                         and slot.generation >= session.warm_barrier)
            if has_state:
                state_spec = SessionSpillSpec(session=managed.name,
                                              generation=slot.generation,
                                              slot=slot.key)
                self._snapshots.store(state_spec, config, slot.state, program)
                written.append(self._snapshots.path_for(state_spec, config))
            records.append(_SlotRecord(
                key=slot.key, analysis=slot.analysis,
                options=tuple(sorted(slot.options.items())),
                generation=slot.generation, payload=slot.payload,
                config=config, has_state=has_state))
        _discard(set(managed.spilled) - set(written))
        managed.spilled = tuple(written)
        managed.evicted = _EvictedSession(
            generation=session.generation, warm_barrier=session.warm_barrier,
            slots=tuple(records),
            barrier_reasons=session.warm_barrier_reasons)
        managed.session = None
        managed.slots = {}
        self.metrics.bump("evictions")
        self.metrics.record_latency("spill", time.perf_counter() - started)

    def _rebase(self, managed: ManagedSession) -> None:
        """Write the live attached program as the session's own base blob."""
        session = managed.session
        base = SessionSpillSpec(session=managed.name,
                                generation=session.generation)
        self._programs.store(base, session.program)
        managed.base = base
        managed.base_methods = len(session.program.methods)
        managed.log = []
        self.metrics.bump("spill_freezes")

    def _ensure_live(self, managed: ManagedSession) -> None:
        """Rehydrate an evicted session in place; caller holds its lock.

        The base blob is attached (zero decode) and the log — monotone,
        since a thawing update drops the base — is replayed onto it through
        :meth:`AnalysisSession.update`, which re-extends the attached arena
        exactly as the live session did: same fids, same fingerprint,
        nothing thawed.  Each parked state then loads its pickled tables
        over the program.  A missing or unreadable base, a log that no
        longer applies to it, or a state whose base and log no longer
        re-extend to the fids and fingerprint it was parked with raises
        :class:`SessionRehydrationError` — loud, never a wrong answer.
        """
        if managed.session is not None:
            return
        started = time.perf_counter()
        evicted = managed.evicted
        if evicted is None:  # pragma: no cover — open() always sets one side
            raise SessionRehydrationError(
                f"session {managed.name!r} has neither a live session nor "
                f"an eviction record")
        program = self._programs.attach(managed.base)
        if program is None:
            raise SessionRehydrationError(
                f"session {managed.name!r}: the base program blob of the "
                f"evicted generation {evicted.generation} is missing or "
                f"unreadable")
        session = AnalysisSession(program, name=managed.name,
                                  roots=managed.roots)
        if managed.log:
            try:
                self._count_thaws(
                    [session.update(delta) for delta in managed.log])
            except (DeltaError, KeyError) as error:
                raise SessionRehydrationError(
                    f"session {managed.name!r}: the delta log does not "
                    f"replay onto its base program blob: {error}") from None
            self.metrics.bump("replayed_deltas", len(managed.log))
        session.adopt_generations(evicted.generation, evicted.warm_barrier,
                                  evicted.barrier_reasons)
        program = session.program
        slots: Dict[str, _AnalyzerSlot] = {}
        state_misses = 0
        for record in evicted.slots:
            state = None
            if record.has_state:
                spec = SessionSpillSpec(session=managed.name,
                                        generation=record.generation,
                                        slot=record.key)
                try:
                    state = self._snapshots.load(spec, record.config, program)
                except SnapshotMismatchError as error:
                    raise SessionRehydrationError(
                        f"session {managed.name!r}: the base and log no "
                        f"longer rebuild the program its parked state was "
                        f"solved over: {error}") from None
                if state is None:
                    # A lost snapshot costs warmth, never correctness: the
                    # slot keeps its payload and the next solve runs cold.
                    state_misses += 1
                else:
                    # Serialized states do not carry session generations
                    # (meaningless across processes); within this manager
                    # the lineage is known, so re-stamp it.
                    state.session_generation = record.generation
            slots[record.key] = _AnalyzerSlot(
                key=record.key, analysis=record.analysis,
                options=dict(record.options), state=state,
                payload=record.payload, generation=record.generation,
                kernel="arena" if record.config is not None else None)
        managed.session = session
        managed.slots = slots
        managed.evicted = None
        self.metrics.bump("rehydrations")
        if state_misses:
            self.metrics.bump("rehydration_state_misses", state_misses)
        self.metrics.record_latency("rehydrate",
                                    time.perf_counter() - started)

    def _drain(self, managed: ManagedSession) -> None:
        """Apply a session's queued deltas (see ``drain_pending``)."""
        self._count_thaws(managed.drain_pending())

    def _count_thaws(self, updates: Sequence[SessionUpdate]) -> None:
        thaws = sum(1 for update in updates if update.thawed)
        if thaws:
            self.metrics.bump("thaws", thaws)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _require(self, name: str) -> ManagedSession:
        with self._lock:
            managed = self._sessions.get(name)
        if managed is None:
            raise SessionNotFoundError(f"unknown session {name!r}")
        return managed

    def _find_benchmark(self, name: str,
                        scale: Optional[float]) -> BenchmarkSpec:
        for specs in extended_suites(
                scale=scale or self.default_scale).values():
            for spec in specs:
                if spec.name == name:
                    return spec
        raise ServiceProtocolError(f"unknown benchmark {name!r}")


def _discard(paths) -> None:
    """Delete spill files, ignoring ones already gone."""
    for path in paths:
        try:
            path.unlink()
        except FileNotFoundError:
            pass


def _parse_edit_step(edit: dict) -> EditStepSpec:
    if not isinstance(edit, dict):
        raise ServiceProtocolError(
            "'edit' must be an object with 'kind' and 'index'")
    extra = set(edit) - {"kind", "index"}
    if extra:
        raise ServiceProtocolError(
            f"unknown edit fields: {', '.join(sorted(extra))}")
    try:
        return EditStepSpec(kind=edit.get("kind"),
                            index=edit.get("index", 0))
    except (TypeError, ValueError) as error:
        raise ServiceProtocolError(f"bad edit step: {error}") from None
