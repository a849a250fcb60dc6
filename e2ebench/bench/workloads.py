"""The three workloads: ``image-fresh``, ``matrix-store`` and ``daemon-edit``.

Each workload sets up (several times, so set-up time is a median), checks
the pool against the interpreter reference, then runs closed-loop ops in
whole passes over its pool and checks every answer against
``answers.json``.  The program receives only generated specs; the seed
orders them.

The measured window is a whole number of passes, at least ``MIN_PASSES``,
their number set by ``--seconds`` alone.  Every run of a workload therefore
measures the same multiset of ops, whatever the seed and the host's speed,
and times every op of the pool that many times, in passes seconds apart.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from bench import answers as ans
from bench import pools
from bench.reference import Reference
from bench.spans import FullCollections, Tracer, layer_probes
from bench.zygote import OpFailed, Zygote

#: Set-ups per run; ``setup_s`` is their median.  ``matrix-store`` sets up
#: twice only: one fill freezes all 43 programs, and every run must fit the
#: benchmark's time budget.
SETUP_REPEATS = 3
MATRIX_SETUP_REPEATS = 2

#: The op id of spans recorded during set-up.
SETUP_OP = "setup"

#: Every run makes at least this many passes: an op's time is its median
#: over them (see ``report.subject_medians``).
MIN_PASSES = 3

#: The nominal length of one pass per workload, measured on a 2-core host.
#: ``--seconds`` over it gives the number of passes; it is a constant, not a
#: measurement, so the host's speed during a run never changes how often an
#: op is timed.
PASS_SECONDS = {"image-fresh": 6.0, "matrix-store": 9.0, "daemon-edit": 7.0}

#: ``daemon-edit``: editor clients, the sessions each keeps open and visits
#: in turn, and the live sessions the daemon keeps.  One client: with two,
#: an op's time depended 2-10x on whether the other client's request ran in
#: the daemon at the same moment, which the seed decides.
CLIENTS = 1
ROTATION = 3
MAX_LIVE_SESSIONS = 2

#: ``daemon-edit``: edit rounds in a session's first visit.  A session takes
#: two visits; the client parks it (``evict``) after the first, so every
#: session is spilled once and its second visit rehydrates it.  Left to the
#: daemon's LRU, a spill would land on whichever other session's request
#: found the live slots full, which the seed's order decides.
VISIT_ROUNDS = pools.EDIT_ROUNDS // 2

#: Sessions the traced ``daemon-edit`` run replays in process.
REPLAY_SESSIONS = 3

#: How long a ``daemon-edit`` pass may take before the run gives up on it.
PASS_TIMEOUT_S = 150


@dataclass
class Op:
    """One measured operation: its kind, round-trip time and verdict."""

    kind: str
    ms: float
    ok: bool = True
    #: What the op did: a spec, a spec and config, or a spec and an editor
    #: action.  Every pass repeats each subject once.
    subject: str = ""
    #: When the op started (``time.perf_counter``).
    started: float = 0.0


@dataclass
class Context:
    """What a workload gets from the command line."""

    seed: int
    seconds: float
    root: Path
    work_dir: Path
    answers: ans.Answers
    tracer: Optional[Tracer] = None
    canary: bool = False
    #: Times the host-speed reference during the measured passes.
    reference: Optional[Reference] = None

    def between_ops(self) -> None:
        if self.reference is not None:
            self.reference.sample_if_due()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def set_op(self, op: Optional[str]) -> None:
        if self.tracer is not None:
            self.tracer.set_op(op)


@dataclass
class Outcome:
    """What a workload measured."""

    setup_seconds: List[float] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    elapsed: float = 0.0
    passes: int = 0
    reduction_pct: float = 0.0
    peak_rss_mb: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: The host-speed reference's timings, in ms, and their midpoints
    #: (``bench.reference``).
    reference_ms: List[float] = field(default_factory=list)
    reference_at: List[float] = field(default_factory=list)
    #: ``daemon-edit``: analyze round trips by the mode the daemon reported,
    #: and (``rehydrate``) the updates that brought a spilled session back.
    mode_ms: Dict[str, List[float]] = field(default_factory=dict)
    #: Workload-specific per-layer figures (``service.*``), by metric name.
    layers: Dict[str, float] = field(default_factory=dict)
    gc: Optional[FullCollections] = None
    #: Whether the canary has planted its wrong answer yet.
    planted: bool = False

    def fail(self, op: Op, why: str) -> None:
        op.ok = False
        if len(self.failures) < 20:
            self.failures.append(why)


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat_setup(ctx: Context, outcome: Outcome, setup: Callable[[int], object],
                  teardown: Callable[[object], None] = lambda state: None,
                  repeats: int = SETUP_REPEATS):
    """Run ``setup`` ``repeats`` times, timing each; keep the last state."""
    state = None
    ctx.set_op(SETUP_OP)
    for attempt in range(repeats):
        if state is not None:
            teardown(state)
        started = time.perf_counter()
        state = setup(attempt)
        outcome.setup_seconds.append(time.perf_counter() - started)
    ctx.set_op(None)
    return state


def _reference_check(ctx: Context, workload: str,
                     programs: Dict[str, object]) -> Dict[str, List[str]]:
    """Interpreter reference: every executed method must be reachable."""
    violations = {}
    for name, program in programs.items():
        wrong = ans.interpreter_violations(program, ctx.answers.unreachable(workload, name))
        if wrong:
            violations[name] = wrong
    return violations


def _check(ctx: Context, outcome: Outcome, op: Op, what: str,
           expected: Optional[dict], observed: dict) -> None:
    """Compare one answer; the canary plants a wrong one in the first checked."""
    if ctx.canary and not outcome.planted:
        outcome.planted = True
        observed = ans.plant_wrong_answer(observed)
    wrong = ans.mismatches(expected, observed)
    if wrong:
        outcome.fail(op, f"{what}: {'; '.join(wrong)}")


def _reduction(pta: int, skipflow: int) -> float:
    return 100.0 * (1.0 - skipflow / pta) if pta else 0.0


def _measure(ctx: Context, outcome: Outcome, run_pass: Callable[[], None],
             workload: str, zygote: Zygote) -> None:
    """Run whole passes, as many as fit ``ctx.seconds`` at the workload's
    nominal pass length, and at least ``MIN_PASSES``; time the host-speed
    reference between ops, in fresh children of ``zygote``."""
    passes = max(MIN_PASSES, round(ctx.seconds / PASS_SECONDS[workload]))
    ctx.reference = Reference(zygote)
    started = time.perf_counter()
    try:
        for _ in range(passes):
            run_pass()
    finally:
        outcome.reference_ms = ctx.reference.samples
        outcome.reference_at = ctx.reference.at
        ctx.reference = None
    outcome.elapsed = time.perf_counter() - started
    outcome.passes = passes
    ctx.set_op(None)


# ---------------------------------------------------------------------- #
# Ops in fresh processes (image-fresh, matrix-store)
# ---------------------------------------------------------------------- #
#: What the zygote imports before it forks any op's child.
ZYGOTE_PRELOAD = ("bench.workloads", "repro.engine.runner")


def _traced_child(traced: bool, function: Callable, args) -> dict:
    """Child side of an op run in the zygote: run it, and hand back its trace."""
    tracer = Tracer()
    monitor = FullCollections()
    with layer_probes(tracer) if traced else nullcontext(), \
            monitor.watching() if traced else nullcontext():
        result = function(*args)
    return {
        "result": result,
        "peak_rss_mb": _own_peak_rss_mb(),
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
        "gc": (monitor.collections, monitor.pause_seconds),
    }


def _forked_op(ctx: Context, outcome: Outcome, zygote: Zygote,
               function: Callable, *args) -> Optional[dict]:
    """Run one op in a fresh child; merge its trace; ``None`` if it failed."""
    try:
        reply = zygote.call(_traced_child, ctx.tracer is not None, function, args)
    except OpFailed as error:
        outcome.failures.append(str(error).strip().splitlines()[-1])
        return None
    outcome.peak_rss_mb = max(outcome.peak_rss_mb, reply["peak_rss_mb"])
    if ctx.tracer is not None:
        ctx.tracer.absorb(reply["spans"], reply["counters"], f"op{len(outcome.ops)}")
        if outcome.gc is None:
            outcome.gc = FullCollections()
        outcome.gc.add(*reply["gc"])
    return reply["result"]


def _image_op(spec) -> dict:
    """One ``image-fresh`` op: generate the spec, build it under PTA and SkipFlow."""
    from repro.image import builder
    from repro.workloads import generator

    configs = pools.image_configs()
    started = time.perf_counter()
    program = generator.generate_benchmark(spec)
    reports = {label: builder.NativeImageBuilder(
        program, config, benchmark_name=spec.name).build()
        for label, config in configs.items()}
    return {"ms": 1000.0 * (time.perf_counter() - started),
            "answers": {label: ans.image_answer(report) for label, report in reports.items()}}


# ---------------------------------------------------------------------- #
# image-fresh
# ---------------------------------------------------------------------- #
def image_fresh(ctx: Context) -> Outcome:
    """Closed loop, one client, no store: generate a spec and build its images.

    One op is one Table 1 spec: ``generate_benchmark``, then a
    ``NativeImageBuilder`` build under PTA and under SkipFlow, timed inside
    a fresh child of the zygote, as each native-image build is a fresh
    process.  Intern tables and heap growth never carry over from one op to
    the next, so the order a seed draws does not change what an op costs.
    """
    from repro.workloads import generator

    outcome = Outcome()

    def setup(_attempt: int):
        programs = {spec.name: generator.generate_benchmark(spec)
                    for spec in pools.image_pool()}
        return _reference_check(ctx, "image-fresh", programs)

    violations = _repeat_setup(ctx, outcome, setup)
    passes = pools.seeded_passes(pools.image_pool(), ctx.seed, "image-fresh")
    totals = {"pta": 0, "skipflow": 0}

    def run_pass() -> None:
        for spec in next(passes):
            started = time.perf_counter()
            result = _forked_op(ctx, outcome, zygote, _image_op, spec)
            op = Op("image", result["ms"] if result else 0.0, subject=spec.name,
                    started=started)
            outcome.ops.append(op)
            ctx.between_ops()
            if result is None:
                outcome.fail(op, f"{spec.name}: the op failed in its process")
                continue
            if spec.name in violations:
                outcome.fail(op, f"{spec.name}: interpreter executed unreachable "
                                 f"{violations[spec.name][:3]}")
            for label, observed in result["answers"].items():
                _check(ctx, outcome, op, f"{spec.name}/{label}",
                       ctx.answers.config("image-fresh", spec.name, label), observed)
                totals[label] += observed["reachable_methods"]

    with Zygote(ctx.root, ZYGOTE_PRELOAD) as zygote:
        _measure(ctx, outcome, run_pass, "image-fresh", zygote)
    outcome.reduction_pct = _reduction(totals["pta"], totals["skipflow"])
    return outcome


# ---------------------------------------------------------------------- #
# matrix-store
# ---------------------------------------------------------------------- #
def _matrix_op(spec, label: str, config, store) -> dict:
    """One ``matrix-store`` op: one half through the engine, no result cache."""
    from repro.engine import runner

    started = time.perf_counter()
    rows = runner.run_config_matrix([spec], [config], names=[label], jobs=1,
                                    program_store=store)
    return {"ms": 1000.0 * (time.perf_counter() - started),
            "answer": ans.view_answer(rows[0].report(label))}


def matrix_store(ctx: Context) -> Outcome:
    """Closed loop, serial: one (spec, config) half through the engine.

    Set-up fills a fresh ``ProgramStore`` with every pool spec; each op runs
    ``run_config_matrix([spec], [config], jobs=1, program_store=store)``
    with no result cache, in a fresh child like an engine worker's.  Every
    half therefore decodes its program from the store (the engine's
    per-process program memo starts empty), whatever the order of the draw.
    """
    from repro.engine.program_store import ProgramStore

    outcome = Outcome()
    configs = pools.matrix_configs()
    stores_dir = ctx.work_dir / "stores"

    def setup(attempt: int):
        shutil.rmtree(stores_dir, ignore_errors=True)
        store = ProgramStore(stores_dir / f"store{attempt}")
        programs = {}
        for spec in next(pools.seeded_passes(pools.matrix_pool(), ctx.seed, "fill")):
            programs[spec.name], _ = store.load_or_build(spec)
        return store, _reference_check(ctx, "matrix-store", programs)

    store, violations = _repeat_setup(ctx, outcome, setup, repeats=MATRIX_SETUP_REPEATS)
    passes = pools.seeded_passes(pools.matrix_halves(), ctx.seed, "matrix-store")
    reachable: Dict[str, Dict[str, int]] = {}

    def run_pass() -> None:
        for spec, label in next(passes):
            started = time.perf_counter()
            result = _forked_op(ctx, outcome, zygote, _matrix_op, spec, label,
                                configs[label], store)
            op = Op("half", result["ms"] if result else 0.0, subject=f"{spec.name}/{label}",
                    started=started)
            outcome.ops.append(op)
            ctx.between_ops()
            if result is None:
                outcome.fail(op, f"{spec.name}/{label}: the op failed in its process")
                continue
            if spec.name in violations:
                outcome.fail(op, f"{spec.name}: interpreter executed unreachable "
                                 f"{violations[spec.name][:3]}")
            _check(ctx, outcome, op, f"{spec.name}/{label}",
                   ctx.answers.config("matrix-store", spec.name, label), result["answer"])
            reachable.setdefault(spec.name, {})[label] = result["answer"]["reachable_methods"]

    try:
        with Zygote(ctx.root, ZYGOTE_PRELOAD) as zygote:
            _measure(ctx, outcome, run_pass, "matrix-store", zygote)
    finally:
        shutil.rmtree(stores_dir, ignore_errors=True)
    outcome.reduction_pct = _reduction(sum(c["pta"] for c in reachable.values()),
                                       sum(c["skipflow"] for c in reachable.values()))
    return outcome


# ---------------------------------------------------------------------- #
# daemon-edit
# ---------------------------------------------------------------------- #
class Daemon:
    """``repro serve --port 0`` as a child process, stopped and waited for."""

    def __init__(self, root: Path, spill_dir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--max-sessions", str(MAX_LIVE_SESSIONS), "--spill-dir", str(spill_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        line = self.process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"the daemon did not report its address: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        try:
            self.client().health()
        except Exception:
            self.stop()
            raise

    def client(self):
        """A new client of this daemon (one per editor thread)."""
        from repro.service.client import ServiceClient

        return ServiceClient.for_address(self.host, self.port)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        self.process.stdout.close()


@dataclass
class _EditorSession:
    """One session of one editor: its spec and how far its script has got."""

    name: str
    spec: object
    prefix: int = 0
    visits: int = 0
    done: bool = False
    reachable: Dict[str, int] = field(default_factory=dict)


@dataclass
class _Tally:
    """What the editors observed, shared between them under ``lock``."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    reachable: Dict[str, int] = field(default_factory=lambda: {"pta": 0, "skipflow": 0})
    modes: Dict[str, int] = field(default_factory=dict)
    steps_paid: List[int] = field(default_factory=list)
    response_bytes: List[int] = field(default_factory=list)
    wire_wait_ms: List[float] = field(default_factory=list)


class _Editor:
    """A closed-loop editor client: waits for each reply before the next request.

    It keeps ``ROTATION`` sessions and visits them in turn; when one
    finishes its script it takes the next spec of the pass from the shared
    queue, until the queue is empty.  One op is one editor action: open a
    project (``open`` + cold ``analyze``), save an edit (``update`` +
    ``analyze``), park it (``evict``), or finish (``pta`` ``analyze`` +
    ``close``).
    """

    def __init__(self, ctx: Context, outcome: Outcome, daemon: Daemon, name: str,
                 queue: Iterator, tally: _Tally) -> None:
        self.ctx = ctx
        self.outcome = outcome
        self.client = daemon.client()
        self.name = name
        self.queue = queue
        self.tally = tally
        self.opened = 0

    def _next_session(self) -> Optional[_EditorSession]:
        with self.tally.lock:
            spec = next(self.queue, None)
        if spec is None:
            return None
        self.opened += 1
        return _EditorSession(f"{self.name}s{self.opened}", spec)

    def _op(self, kind: str, session: Optional[_EditorSession] = None) -> Op:
        """A new op; its subject names the same action in every pass."""
        self.ctx.between_ops()
        if session is None:
            subject = self.name
        else:
            step = session.prefix if kind == "edit" else ""
            subject = f"{session.spec.name}/{kind}{step}"
        op = Op(kind, 0.0, subject=subject, started=time.perf_counter())
        with self.tally.lock:
            self.outcome.ops.append(op)
            self.ctx.set_op(f"op{len(self.outcome.ops)}")
        return op

    def _request(self, op: Op, verb: str, call):
        """One timed round trip of ``op``: ``(ms, result)``, or ``None`` if it failed."""
        started = time.perf_counter()
        try:
            with self.ctx.span(f"service.client.{verb}"):
                result = call()
        except Exception as error:  # a failed request fails its op, never the run
            op.ms += 1000.0 * (time.perf_counter() - started)
            with self.tally.lock:
                self.outcome.fail(op, f"{verb}: {type(error).__name__}: {error}")
            return None
        ms = 1000.0 * (time.perf_counter() - started)
        op.ms += ms
        size = len(json.dumps(result))
        with self.tally.lock:
            self.tally.response_bytes.append(size)
        return ms, result

    def _analyze(self, op: Op, session: _EditorSession, analysis: str) -> bool:
        reply = self._request(op, "analyze", lambda: self.client.analyze(session.name, analysis))
        if reply is None:
            return False
        ms, result = reply
        mode = result["mode"]
        expected = self.ctx.answers.entry("daemon-edit", session.spec.name).get(analysis)
        if analysis == "skipflow" and expected is not None:
            expected = expected[session.prefix]
        with self.tally.lock:
            self.outcome.mode_ms.setdefault(mode, []).append(ms)
            self.tally.modes[mode] = self.tally.modes.get(mode, 0) + 1
            self.tally.steps_paid.append(result["steps_paid"])
            self.tally.wire_wait_ms.append(ms - result["latency_ms"])
            _check(self.ctx, self.outcome, op,
                   f"{session.spec.name}+{session.prefix}/{analysis}",
                   expected, ans.wire_answer(result["report"]))
        session.reachable[analysis] = result["report"]["metrics"]["reachable_methods"]
        return True

    def _edit(self, session: _EditorSession, rehydrates: bool = False) -> bool:
        op = self._op("edit", session)
        step = pools.edit_steps()[session.prefix]
        reply = self._request(op, "update", lambda: self.client.update(session.name, edit=step))
        if reply is None:
            return False
        if rehydrates:
            with self.tally.lock:
                self.outcome.mode_ms.setdefault("rehydrate", []).append(reply[0])
        session.prefix += 1
        return self._analyze(op, session, "skipflow")

    def _is_live(self, session: _EditorSession) -> bool:
        rows = self.client.sessions()
        return any(row["session"] == session.name and row["live"] for row in rows)

    def _visit(self, session: _EditorSession) -> bool:
        """One visit of ``session``; False when a request failed."""
        session.visits += 1
        if session.visits == 1:
            op = self._op("open", session)
            if self._request(op, "open", lambda: self.client.open(
                    session.name, benchmark=session.spec.name,
                    scale=pools.DAEMON_SCALE)) is None:
                return False
            if not self._analyze(op, session, "skipflow"):
                return False
            rounds = VISIT_ROUNDS
        else:
            # An update to a spilled session rehydrates it: time that round trip.
            if not self._edit(session, rehydrates=not self._is_live(session)):
                return False
            rounds = pools.EDIT_ROUNDS - session.prefix
        for _ in range(rounds):
            if not self._edit(session):
                return False
        if session.prefix < pools.EDIT_ROUNDS:
            # The editor parks the session until its next visit, as it does a
            # background tab: the daemon spills it now.
            op = self._op("park", session)
            return self._request(op, "evict", lambda: self.client.evict(session.name)) is not None
        op = self._op("finish", session)
        if not self._analyze(op, session, "pta"):
            return False
        with self.tally.lock:
            self.tally.reachable["pta"] += session.reachable["pta"]
            self.tally.reachable["skipflow"] += session.reachable["skipflow"]
        session.done = True
        return self._request(op, "close", lambda: self.client.close(session.name)) is not None

    def run(self) -> None:
        sessions = [s for s in (self._next_session() for _ in range(ROTATION)) if s]
        turn = 0
        try:
            while sessions:
                session = sessions[turn % len(sessions)]
                if not self._visit(session) or session.done:
                    # Finished, or abandoned after a failed request.
                    replacement = self._next_session()
                    if replacement is None:
                        sessions.remove(session)
                    else:
                        sessions[sessions.index(session)] = replacement
                turn += 1
        except Exception as error:  # the thread's boundary: report, never vanish
            op = self._op("client")
            with self.tally.lock:
                self.outcome.fail(op, f"{self.name}: {type(error).__name__}: {error}")


def _replay(ctx: Context, specs) -> None:
    """The traced run's in-process replay of the editors' script.

    Once through ``AnalysisSession.update`` / ``run(resume=...)`` (delta
    apply and warm resume), once through a ``SessionManager`` with an
    explicit eviction between the visits (open / update / analyze / evict).
    """
    from repro.api.session import AnalysisSession
    from repro.service.manager import SessionManager
    from repro.workloads import generator
    from repro.workloads.edits import EditStepSpec, build_edit_delta

    for index, spec in enumerate(specs):
        ctx.set_op(f"replay{index}")
        session = AnalysisSession(generator.generate_benchmark(spec), name=spec.name)
        report = session.run("skipflow")
        for step in pools.edit_steps():
            session.update(build_edit_delta(spec, EditStepSpec(**step)))
            report = session.run("skipflow", resume=report)
        session.run("pta")
    manager = SessionManager(max_live_sessions=MAX_LIVE_SESSIONS,
                             spill_dir=ctx.work_dir / "replay-spill")
    for index, spec in enumerate(specs):
        ctx.set_op(f"replay{len(specs) + index}")
        manager.open(spec.name, benchmark=spec.name, scale=pools.DAEMON_SCALE)
        manager.analyze(spec.name, "skipflow")
        for round_index, step in enumerate(pools.edit_steps()):
            if round_index == VISIT_ROUNDS:
                manager.evict(spec.name)
            manager.update(spec.name, edit=step)
            manager.analyze(spec.name, "skipflow")
        manager.analyze(spec.name, "pta")
        manager.close(spec.name)
    ctx.set_op(None)


def daemon_edit(ctx: Context) -> Outcome:
    """A closed-loop editor client against ``repro serve --max-sessions 2``.

    The client keeps three sessions and visits them in turn.  A session
    runs: open, cold ``skipflow``, ``VISIT_ROUNDS`` rounds of an edit-step
    ``update`` then ``analyze``, park (``evict``, a spill), then on its
    second visit the remaining rounds (the first rehydrates it) and a cold
    ``pta``.  A pass ends when the client has run out of specs.
    """
    from repro.workloads import generator

    outcome = Outcome()
    spill_root = ctx.work_dir / "daemon"

    def setup(attempt: int):
        shutil.rmtree(spill_root, ignore_errors=True)
        daemon = Daemon(ctx.root, spill_root / f"spill{attempt}")
        programs = {spec.name: generator.generate_benchmark(spec)
                    for spec in pools.daemon_pool()}
        return daemon, _reference_check(ctx, "daemon-edit", programs)

    daemon, violations = _repeat_setup(ctx, outcome, setup,
                                       teardown=lambda state: state[0].stop())
    passes = pools.seeded_passes(pools.daemon_pool(), ctx.seed, "daemon-edit")
    tally = _Tally()
    pass_numbers = itertools.count(1)

    def run_pass() -> None:
        number = next(pass_numbers)
        queue = iter(next(passes))
        editors = [_Editor(ctx, outcome, daemon, f"p{number}c{index}", queue, tally)
                   for index in range(CLIENTS)]
        threads = [threading.Thread(target=editor.run, name=editor.name, daemon=True)
                   for editor in editors]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=PASS_TIMEOUT_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError(f"a daemon-edit pass took over {PASS_TIMEOUT_S} s")

    try:
        for name, wrong in violations.items():
            outcome.failures.append(f"{name}: interpreter executed unreachable {wrong[:3]}")
        # An untimed first pass: the daemon's program store starts empty, so
        # the first open of each spec generates and stores its program.  Its
        # answers are checked all the same: a failed op stays in ``ops``.
        run_pass()
        outcome.ops[:] = [op for op in outcome.ops if not op.ok]
        outcome.mode_ms.clear()
        tally = _Tally()
        with Zygote(ctx.root, ZYGOTE_PRELOAD) as zygote:
            _measure(ctx, outcome, run_pass, "daemon-edit", zygote)
        evictions = daemon.client().metrics()["requests"]["evictions"]
        outcome.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
        shutil.rmtree(spill_root, ignore_errors=True)

    outcome.reduction_pct = _reduction(tally.reachable["pta"], tally.reachable["skipflow"])
    analyzes = sum(tally.modes.values())
    layers = outcome.layers
    for mode in ("cold", "warm", "cached", "cold-fallback"):
        layers[f"service.mode.{mode}"] = float(tally.modes.get(mode, 0))
    layers["service.warm_ratio"] = tally.modes.get("warm", 0) / analyzes if analyzes else 0.0
    layers["service.steps_paid"] = (sum(tally.steps_paid) / len(tally.steps_paid)
                                    if tally.steps_paid else 0.0)
    layers["service.evictions"] = float(evictions)
    layers["service.response_kb"] = (sum(tally.response_bytes) / len(tally.response_bytes)
                                     / 1024.0 if tally.response_bytes else 0.0)
    layers["service.wire_wait_ms"] = (sum(tally.wire_wait_ms) / len(tally.wire_wait_ms)
                                      if tally.wire_wait_ms else 0.0)

    if ctx.tracer is not None:
        _replay(ctx, next(pools.seeded_passes(pools.daemon_pool(), ctx.seed,
                                              "daemon-edit"))[:REPLAY_SESSIONS])
        shutil.rmtree(ctx.work_dir / "replay-spill", ignore_errors=True)
    return outcome


def run_workload(name: str, ctx: Context) -> Outcome:
    """Run one workload by name; in a traced run, with the layer probes installed."""
    runners = {"image-fresh": image_fresh, "matrix-store": matrix_store,
               "daemon-edit": daemon_edit}
    if name not in runners:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(runners)}")
    if ctx.tracer is None:
        return runners[name](ctx)
    with layer_probes(ctx.tracer):
        return runners[name](ctx)
