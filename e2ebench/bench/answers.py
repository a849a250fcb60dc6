"""Expected answers for every spec of every pool, and the checks against them.

``e2ebench/answers.json`` is committed.  It holds, per workload:

- ``image-fresh`` / ``matrix-store``: per spec x config, the reachable-method
  count and digest, solver steps and joins, and the image counters;
- ``daemon-edit``: per spec, the reachable-set and call-edge digests of a
  cold SkipFlow solve after each edit prefix, and of PTA after the last;
- every pool: per spec, short tags of the methods SkipFlow leaves
  unreachable, which the interpreter reference check reads.

The interpreter (:mod:`repro.ir.interpreter`) is the independent reference:
every method it executes must be reachable.  ``python3 e2ebench/run.py
--write-answers`` regenerates the file from cold solves; a change that moves
an answer on purpose regenerates it and says why.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ANSWERS_PATH = Path(__file__).resolve().parent.parent / "answers.json"
ANSWERS_VERSION = 1

#: Step budget of one interpreter run: enough to drive every pool program
#: through its entry point and a bounded share of its loops.
INTERPRETER_STEPS = 5000


def digest(names: Iterable[str]) -> str:
    """Order-independent digest of a set of names."""
    text = "\n".join(sorted(names))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def edge_digest(edges: Iterable[Sequence[str]]) -> str:
    return digest(f"{caller}->{callee}" for caller, callee in edges)


def tag(name: str) -> str:
    """A short stable tag of a method name (the unreachable lists store tags)."""
    return hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]


def image_answer(report) -> dict:
    """The answer of one :class:`~repro.image.builder.ImageBuildReport`."""
    stats = report.result.stats
    return {
        "reachable_methods": report.metrics.reachable_methods,
        "reachable_digest": digest(report.result.reachable_methods),
        "steps": report.result.steps,
        "joins": stats.joins,
        "type_checks": report.metrics.type_checks,
        "null_checks": report.metrics.null_checks,
        "primitive_checks": report.metrics.primitive_checks,
        "poly_calls": report.metrics.poly_calls,
        "binary_size_bytes": report.binary_size_bytes,
    }


def view_answer(view) -> dict:
    """The answer of one engine :class:`~repro.engine.runner.ReportView`.

    Engine payloads carry counts, not the reachable set, so there is no
    digest here; the counts are compared against the same entry.
    """
    return {
        "reachable_methods": view.metrics.reachable_methods,
        "steps": view.solver_steps,
        "joins": view.solver_joins,
        "type_checks": view.metrics.type_checks,
        "null_checks": view.metrics.null_checks,
        "primitive_checks": view.metrics.primitive_checks,
        "poly_calls": view.metrics.poly_calls,
        "binary_size_bytes": view.binary_size_bytes,
    }


def graph_answer(reachable: Iterable[str], edges: Iterable[Sequence[str]]) -> dict:
    """Reachable-set and call-edge digests of one call graph."""
    return {"reachable_digest": digest(reachable), "edges_digest": edge_digest(edges)}


def wire_answer(report_payload: dict) -> dict:
    """:func:`graph_answer` of a daemon response's versioned report payload."""
    graph = report_payload["call_graph"]
    return graph_answer(graph["reachable_methods"], graph["call_edges"])


def mismatches(expected: Optional[dict], observed: dict) -> List[str]:
    """Fields where ``observed`` differs from ``expected`` (empty when it agrees)."""
    if expected is None:
        return ["no expected answer"]
    return [f"{key}: expected {expected.get(key)!r}, got {value!r}"
            for key, value in sorted(observed.items()) if expected.get(key) != value]


def unreachable_tags(program, reachable: Iterable[str]) -> List[str]:
    live = set(reachable)
    return sorted(tag(name) for name in program.methods if name not in live)


def interpreter_violations(program, unreachable: Iterable[str]) -> List[str]:
    """Methods the interpreter executed that SkipFlow's answer leaves unreachable."""
    from repro.ir.interpreter import Interpreter

    trace = Interpreter(program, max_steps=INTERPRETER_STEPS).try_run()
    dead = set(unreachable)
    return sorted(name for name in trace.executed_methods if tag(name) in dead)


def plant_wrong_answer(observed: dict) -> dict:
    """The canary: one answer made wrong, which the check must reject."""
    planted = dict(observed)
    key = "steps" if "steps" in planted else "reachable_digest"
    value = planted[key]
    planted[key] = value + 1 if isinstance(value, int) else "0" * len(value)
    return planted


class Answers:
    """The loaded answers file."""

    def __init__(self, data: dict) -> None:
        if data.get("version") != ANSWERS_VERSION:
            raise ValueError(f"answers file version {data.get('version')!r}, "
                             f"expected {ANSWERS_VERSION}")
        self.data = data

    @classmethod
    def load(cls, path: Path = ANSWERS_PATH) -> "Answers":
        return cls(json.loads(path.read_text()))

    def entry(self, workload: str, spec: str) -> Dict[str, object]:
        return self.data[workload].get(spec, {})

    def config(self, workload: str, spec: str, label: str) -> Optional[dict]:
        return self.entry(workload, spec).get(label)

    def unreachable(self, workload: str, spec: str) -> List[str]:
        return self.entry(workload, spec).get("skipflow_unreachable", [])


# ---------------------------------------------------------------------- #
# Regeneration (cold solves, in process)
# ---------------------------------------------------------------------- #
def _config_answers(pool, configs) -> dict:
    """Per spec of ``pool``: each labelled config's answer, plus SkipFlow's
    unreachable tags."""
    from repro.image.builder import NativeImageBuilder
    from repro.workloads.generator import generate_benchmark

    answers = {}
    for spec in pool:
        program = generate_benchmark(spec)
        entry = {}
        for label, config in configs.items():
            report = NativeImageBuilder(program, config, benchmark_name=spec.name).build()
            entry[label] = image_answer(report)
            if label == "skipflow":
                entry["skipflow_unreachable"] = unreachable_tags(
                    program, report.result.reachable_methods)
        answers[spec.name] = entry
    return answers


def _daemon_answers() -> dict:
    from repro.api.session import AnalysisSession
    from repro.workloads.edits import EditStepSpec, build_edit_delta
    from repro.workloads.generator import generate_benchmark

    from bench.pools import daemon_pool, edit_steps

    answers = {}
    for spec in daemon_pool():
        session = AnalysisSession(generate_benchmark(spec), name=spec.name)
        first = session.run("skipflow")
        entry = {"skipflow_unreachable": unreachable_tags(
            session.program, first.reachable_methods)}
        prefixes = [graph_answer(first.reachable_methods, first.call_edges)]
        for step in edit_steps():
            session.update(build_edit_delta(spec, EditStepSpec(**step)))
            report = session.run("skipflow")
            prefixes.append(graph_answer(report.reachable_methods, report.call_edges))
        pta = session.run("pta")
        entry["skipflow"] = prefixes
        entry["pta"] = graph_answer(pta.reachable_methods, pta.call_edges)
        answers[spec.name] = entry
    return answers


def write_answers(path: Path = ANSWERS_PATH) -> dict:
    """Regenerate every answer from cold solves and write the file."""
    from bench import pools

    data = {
        "version": ANSWERS_VERSION,
        "image-fresh": _config_answers(pools.image_pool(), pools.image_configs()),
        "matrix-store": _config_answers(pools.matrix_pool(), pools.matrix_configs()),
        "daemon-edit": _daemon_answers(),
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return data
