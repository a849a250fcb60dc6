"""Building a (simulated) native image for a synthetic microservice.

This example exercises the full pipeline the evaluation uses: a generated
benchmark application, the closed-world image builder with a reflection
configuration, both analysis configurations, and the Table-1 style report.

Run with::

    python examples/microservice_image.py
"""

from repro.core.analysis import AnalysisConfig
from repro.engine import run_specs
from repro.image.builder import NativeImageBuilder
from repro.image.reflection import ReflectionConfig
from repro.reporting.table import format_matrix_table
from repro.workloads.generator import generate_benchmark, spec_from_reduction


def build_with_reflection() -> None:
    """Build one image with a reflection configuration (as frameworks require)."""
    spec = spec_from_reduction(
        name="petstore-service", suite="Microservices",
        total_methods=250, reduction_percent=8.0,
    )
    program = generate_benchmark(spec)

    # Frameworks invoke request handlers reflectively: register one of the
    # generated core entry points as a reflective root.
    reflection = ReflectionConfig()
    reflection.register_method("Petstore_serviceCore0Entry.enter")

    report = NativeImageBuilder(
        program, AnalysisConfig.skipflow(), reflection=reflection,
        benchmark_name=spec.name,
    ).build()
    print(f"image for {report.benchmark} ({report.configuration}):")
    print(f"  reachable methods: {report.reachable_methods}")
    print(f"  binary size:       {report.binary_size_megabytes:.2f} MB")
    print(f"  analysis time:     {report.analysis_time_seconds * 1000:.1f} ms")
    print(f"  total build time:  {report.total_time_seconds * 1000:.1f} ms")
    print(f"  dead instructions removed: {report.dead_code.dead_instructions}")
    print()


def compare_analyses() -> None:
    """Table-1 style comparison for one microservice benchmark."""
    spec = spec_from_reduction(
        name="order-service", suite="Microservices",
        total_methods=400, reduction_percent=7.3,
    )
    row = run_specs([spec])[0]
    print(format_matrix_table([row], title="Order service: PTA vs SkipFlow"))
    print()
    print(f"reachable-method reduction: "
          f"{row.reduction_percent('reachable_methods', 'SkipFlow'):.1f}% "
          f"(paper reports 7.3% for Micronaut MuShop Order)")


def main() -> None:
    build_with_reflection()
    compare_analyses()


if __name__ == "__main__":
    main()
