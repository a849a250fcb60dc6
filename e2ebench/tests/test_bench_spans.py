"""Span self-time arithmetic, nesting, and probe installation."""

import pytest
from bench import pools, spans
from bench.spans import Span, Tracer, self_times


def _span(sid, name, start, end, parent=None):
    return Span(sid=sid, name=name, start=start, end=end, parent=parent, op="op0")


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "child", 1.0, 3.0, parent=1),
        _span(3, "child", 2.0, 5.0, parent=1),   # overlaps the first child
        _span(4, "child", 8.0, 12.0, parent=1),  # runs past the parent's end
        _span(5, "grandchild", 1.5, 2.5, parent=2),
    ]
    table = self_times(recorded)
    # children cover [1, 5) and [8, 10) inside the parent: 6 of its 10 s
    assert table["outer"].seconds == pytest.approx(4.0)
    assert table["outer"].calls == 1
    # each child loses only its own children: 2 - 1 + 3 + 4
    assert table["child"].seconds == pytest.approx(8.0)
    assert table["child"].calls == 3
    assert table["grandchild"].seconds == pytest.approx(1.0)
    assert table["grandchild"].mean_ms == pytest.approx(1000.0)


def test_tracer_records_parents_and_ops():
    tracer = Tracer()
    tracer.set_op("op3")
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    with tracer.span("c"):
        pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["b"].parent == by_name["a"].sid
    assert by_name["a"].parent is None and by_name["c"].parent is None
    assert {span.op for span in tracer.spans} == {"op3"}
    assert by_name["a"].start <= by_name["b"].start <= by_name["b"].end <= by_name["a"].end


def test_layer_probes_record_and_restore():
    from repro.core.analysis import SkipFlowAnalysis
    from repro.workloads import generator

    original_run = SkipFlowAnalysis.run
    original_generate = generator.generate_benchmark
    tracer = Tracer()
    with spans.layer_probes(tracer):
        assert SkipFlowAnalysis.run is not original_run
        spec = next(spec for spec in pools.image_pool() if spec.name == "mnemonics")
        program = generator.generate_benchmark(spec)
        SkipFlowAnalysis(program).run()
    assert SkipFlowAnalysis.run is original_run
    assert generator.generate_benchmark is original_generate
    names = {span.name for span in tracer.spans}
    assert {"workloads.generate", "core.analysis.skipflow"} <= names
    assert tracer.counters["core.analyses"] == 1
    assert tracer.counters["core.steps"] > 0


def test_analysis_labels():
    from repro.core.analysis import AnalysisConfig

    assert spans.analysis_label(AnalysisConfig.baseline_pta()) == "pta"
    assert spans.analysis_label(AnalysisConfig.skipflow()) == "skipflow"
    saturated = AnalysisConfig.skipflow().with_saturation_policy("allocated-type", 16)
    assert spans.analysis_label(saturated) == "skipflow-at16"
