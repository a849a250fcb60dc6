"""Spans recorded around the calls the benchmark makes into each layer.

A traced run installs :func:`layer_probes`: thin wrappers around the public
functions of each layer (generation, analysis, image report, program store,
arena freeze, deltas, the session manager).  Every call becomes a
:class:`Span` with a name, a start and end on the monotonic clock, the span
that was open when it started (its parent) and the op it belongs to.  Spans
stay in memory and are written out when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Untraced runs install
nothing, so they pay nothing.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    """One recorded call: ``[start, end)`` in seconds of ``time.perf_counter``."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return asdict(self)


class Tracer:
    """Collects spans and counters; thread-safe, one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Optional[str]) -> None:
        """Tag spans opened by this thread from now on with ``op``."""
        self._local.op = op

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        op = getattr(self._local, "op", None)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, op))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def absorb(self, spans: Sequence[Span], counters: Dict[str, float], op: str) -> None:
        """Merge spans and counters another process recorded, under ``op``."""
        with self._lock:
            ids = {span.sid: next(self._ids) for span in spans}
            for span in spans:
                self.spans.append(Span(ids[span.sid], span.name, span.start, span.end,
                                       ids.get(span.parent), op))
            for name, amount in counters.items():
                self.counters[name] += amount


@dataclass(frozen=True)
class SelfTime:
    """A layer's summed self time over its spans, and how many spans it had."""

    seconds: float
    calls: int

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.seconds / self.calls if self.calls else 0.0


def _covered(intervals: Sequence[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: Sequence[Span]) -> Dict[str, SelfTime]:
    """Per span name: duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        own = span.duration - _covered(children.get(span.sid, ()), span.start, span.end)
        seconds[span.name] += own
        calls[span.name] += 1
    return {name: SelfTime(seconds[name], calls[name]) for name in seconds}


# ---------------------------------------------------------------------- #
# Full (generation-2) garbage collections
# ---------------------------------------------------------------------- #
class FullCollections:
    """Counts generation-2 collections and their pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_seconds = 0.0
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pause_seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def add(self, collections: int, pause_seconds: float) -> None:
        """Add what another process counted."""
        self.collections += collections
        self.pause_seconds += pause_seconds

    @contextmanager
    def watching(self) -> Iterator["FullCollections"]:
        gc.callbacks.append(self._callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._callback)


# ---------------------------------------------------------------------- #
# Layer probes
# ---------------------------------------------------------------------- #
def _wrap(tracer: Tracer, function: Callable, name_of: Callable[..., str],
          after: Optional[Callable[..., None]] = None) -> Callable:
    def probe(*args, **kwargs):
        with tracer.span(name_of(*args, **kwargs)):
            result = function(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    probe.__wrapped__ = function
    return probe


def analysis_label(config) -> str:
    """``pta``, ``skipflow`` or ``skipflow-at<N>`` for one analysis config."""
    if not config.use_predicates and not config.track_primitives:
        return "pta"
    if config.saturation_threshold is not None:
        return f"skipflow-at{config.saturation_threshold}"
    return "skipflow"


@contextmanager
def layer_probes(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's public entry points in spans; restore them on exit.

    Functions other modules imported by name are patched in every module
    that holds a reference, so a call records one span whichever path it
    takes.
    """
    from repro.core import analysis
    from repro.engine import program_store, runner
    from repro.image import binary, builder
    from repro.ir import delta
    from repro.service import manager
    from repro.workloads import generator

    def analysis_name(self, *args, **kwargs) -> str:
        if self.state is not None:
            return "core.resume"
        return f"core.analysis.{analysis_label(self.config)}"

    def analysis_counts(result, self, *args, **kwargs) -> None:
        if self.state is not None or result.stats is None:
            return
        tracer.count("core.analyses")
        tracer.count("core.steps", result.stats.steps)
        tracer.count("core.joins", result.stats.joins)
        tracer.count("core.transfers", result.stats.transfers)
        tracer.count("core.saturated_flows", result.stats.saturated_flows)

    def freeze_bytes(blob, *args, **kwargs) -> None:
        tracer.count("ir.arena.freezes")
        tracer.count("ir.arena.bytes", len(blob))

    def fixed(name: str) -> Callable[..., str]:
        return lambda *args, **kwargs: name

    # (owner, attribute, span name or namer, post-call hook)
    targets = [
        (analysis.SkipFlowAnalysis, "run", analysis_name, analysis_counts),
        (builder, "collect_metrics", fixed("image.metrics"), None),
        (builder, "eliminate_dead_code", fixed("image.dce"), None),
        (binary.BinarySizeModel, "estimate", fixed("image.size"), None),
        (program_store.ProgramStore, "load", fixed("engine.program_store.load"), None),
        (program_store.ProgramStore, "attach", fixed("engine.program_store.attach"), None),
        (program_store.ProgramStore, "store", fixed("engine.program_store.store"), None),
        (program_store, "freeze", fixed("ir.arena.freeze"), freeze_bytes),
        (runner, "run_config_matrix", fixed("engine.matrix"), None),
        (delta.ProgramDelta, "apply_to", fixed("ir.delta.apply"), None),
    ]
    for module in (generator, runner, program_store):
        targets.append((module, "generate_benchmark", fixed("workloads.generate"), None))
    for verb in ("open", "update", "analyze", "evict"):
        targets.append((manager.SessionManager, verb, fixed(f"service.manager.{verb}"), None))

    originals = []
    try:
        for owner, attribute, name_of, after in targets:
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, original, name_of, after))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def probe_cost_seconds(calls: int = 20000) -> float:
    """Measured cost of one probe around an empty call (the tracing overhead unit)."""
    tracer = Tracer()

    def empty() -> None:
        return None

    probed = _wrap(tracer, empty, lambda: "calibrate")
    start = time.perf_counter()
    for _ in range(calls):
        probed()
    probed_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        empty()
    return max(0.0, (probed_seconds - (time.perf_counter() - start)) / calls)
