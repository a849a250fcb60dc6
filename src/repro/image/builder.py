"""The closed-world image builder: analysis plus compilation driver.

``NativeImageBuilder`` plays the role of the Native Image build pipeline in
the evaluation: it runs one analysis configuration over a program, collects
the analysis-oriented metrics, performs dead-code elimination, estimates the
binary size, and models the total build time as analysis time plus a
compilation cost proportional to the live code that remains after DCE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.results import AnalysisResult
from repro.image.binary import BinarySizeModel
from repro.image.dce import DeadCodeReport, MethodDeadCode, eliminate_dead_code
from repro.image.metrics import (
    CounterMetrics,
    ImageMetrics,
    collect_metrics,
)
from repro.image.reflection import ReflectionConfig
from repro.ir.arena import lowered_program
from repro.ir.program import Program


#: Modeled compilation cost per live instruction, in seconds.  Only the
#: *relative* total-time difference between configurations matters for the
#: reproduction; the constant is chosen so that compilation dominates the
#: total time, as it does in the paper (analysis is roughly 15% of total).
_COMPILE_SECONDS_PER_INSTRUCTION = 2.0e-6
_COMPILE_FIXED_SECONDS = 0.05


@dataclass(frozen=True)
class ImageBuildReport:
    """Everything the evaluation reports for one (benchmark, configuration) pair."""

    benchmark: str
    configuration: str
    metrics: ImageMetrics
    dead_code: DeadCodeReport
    binary_size_bytes: int
    analysis_time_seconds: float
    total_time_seconds: float
    result: AnalysisResult

    @property
    def reachable_methods(self) -> int:
        return self.metrics.reachable_methods

    @property
    def binary_size_megabytes(self) -> float:
        return self.binary_size_bytes / 1_000_000.0


def _config_from_analyzer_name(name: str) -> AnalysisConfig:
    """Resolve a registry analyzer name to its engine configuration.

    Only propagation-engine analyzers qualify: the image pipeline needs the
    solved PVPG (value states, branch records) for DCE and the size model,
    which the call-graph baselines (CHA, RTA) never produce.
    """
    # Imported lazily: the registry sits above the image layer.
    from repro.api.registry import require_config_analyzer

    return require_config_analyzer(name, purpose="the image builder").config()


def _kernel_fast_reports(
    result: AnalysisResult,
) -> Optional[tuple[ImageMetrics, DeadCodeReport]]:
    """Metrics and DCE straight from the producing kernel, when it offers them.

    The arena kernel answers the image-report queries from its flat integer
    tables (``image_counters`` / ``dead_code_rows``) — bit-identical to the
    PVPG walks in :mod:`repro.image.metrics` / :mod:`repro.image.dce`, but
    without inflating the object graph the PVPG walks would force.  Returns
    ``None`` when the result has no such backend (the object kernel).
    """
    backend = result.kernel_backend
    if backend is None:
        return None
    counts = backend.image_counters()
    metrics = ImageMetrics(
        configuration=getattr(result.config, "name", "unknown"),
        reachable_methods=result.reachable_method_count,
        counters=CounterMetrics(
            type_checks=counts["type_checks"],
            null_checks=counts["null_checks"],
            primitive_checks=counts["primitive_checks"],
            poly_calls=counts["poly_calls"],
        ),
        analysis_time_seconds=result.analysis_time_seconds,
        solver_steps=result.steps,
    )
    dead_code = DeadCodeReport()
    for name, live, dead, removable, total in backend.dead_code_rows():
        dead_code.methods[name] = MethodDeadCode(
            qualified_name=name,
            live_instructions=live,
            dead_instructions=dead,
            removable_branches=removable,
            total_branches=total,
        )
    return metrics, dead_code


class NativeImageBuilder:
    """Builds a (simulated) native image for one program and configuration.

    ``config`` accepts either an :class:`~repro.core.analysis.AnalysisConfig`
    or the registry name of a propagation-engine analyzer (``"skipflow"``,
    ``"pta"``, ``"predicates-only"``, ...).
    """

    def __init__(
        self,
        program: Program,
        config: Union[AnalysisConfig, str, None] = None,
        reflection: Optional[ReflectionConfig] = None,
        size_model: Optional[BinarySizeModel] = None,
        benchmark_name: str = "program",
    ) -> None:
        self.program = program
        if isinstance(config, str):
            config = _config_from_analyzer_name(config)
        self.config = config or AnalysisConfig.skipflow()
        self.reflection = reflection
        self.size_model = size_model or BinarySizeModel()
        self.benchmark_name = benchmark_name
        self._reflection_applied = False

    def build(self, roots: Optional[Iterable[str]] = None) -> ImageBuildReport:
        """Run the analysis and assemble the build report.

        The analysis solves :func:`~repro.ir.arena.lowered_program` of the
        program (after any reflection config rewrote it): a cold solve on
        the arena kernel over the program's memoized in-memory lowering,
        which every config built over the same unchanged program shares.
        An already-attached ``ArenaProgram`` is solved as it is.
        """
        if self.reflection is not None and not self._reflection_applied:
            self.reflection.apply_to(self.program)
            self._reflection_applied = True
        analysis = SkipFlowAnalysis(lowered_program(self.program), self.config)
        return self.report(analysis.run(roots))

    def report(self, result: AnalysisResult) -> ImageBuildReport:
        """Assemble the build report of a solved analysis of this program.

        Metrics and dead code come from the kernel's flat tables when it
        offers them (the arena kernel), else from the PVPG walks of
        :func:`collect_metrics` and :func:`eliminate_dead_code`.
        """
        fast = _kernel_fast_reports(result)
        if fast is not None:
            metrics, dead_code = fast
        else:
            metrics = collect_metrics(result)
            dead_code = eliminate_dead_code(result)
        binary_size = self.size_model.estimate(result, dead_code)
        compile_time = (
            _COMPILE_FIXED_SECONDS
            + dead_code.live_instructions * _COMPILE_SECONDS_PER_INSTRUCTION
        )
        return ImageBuildReport(
            benchmark=self.benchmark_name,
            configuration=self.config.name,
            metrics=metrics,
            dead_code=dead_code,
            binary_size_bytes=binary_size,
            analysis_time_seconds=result.analysis_time_seconds,
            total_time_seconds=result.analysis_time_seconds + compile_time,
            result=result,
        )


def build_image(program: Program, config: AnalysisConfig,
                benchmark_name: str = "program") -> ImageBuildReport:
    """Convenience wrapper used by examples and benchmarks."""
    return NativeImageBuilder(program, config, benchmark_name=benchmark_name).build()
