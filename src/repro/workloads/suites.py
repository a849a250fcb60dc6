"""The benchmark suites: the paper's Table 1 plus the saturation stress suite.

The three paper suites mirror the benchmarks of the evaluation: 8 DaCapo
benchmarks, 9 microservice applications, and 18 Renaissance benchmarks.  For
every benchmark we record the PTA reachable-method count and the SkipFlow
reduction reported in Table 1; the synthetic benchmark is sized as ``scale``
methods per thousand reported methods and its guarded fraction is set to the
reported reduction, so the relative results (who wins, by roughly how much)
can be compared directly against the paper.

The additional ``WideHierarchy`` suite goes beyond the paper: its specs carry
type hierarchies of hundreds of allocated leaf types flowing into shared
fields and megamorphic call sites, which the Table 1 specs (a handful of
types per flow) never produce.  It exists to measure the saturation cutoff
(``benchmarks/run_policy_study.py``) and is deliberately *not* part of
:func:`all_suites`, so the Table 1 / Figure 9 reproductions keep mirroring
the paper exactly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.generator import (
    BenchmarkSpec,
    GuardedModuleSpec,
    HierarchySpec,
    spec_from_reduction,
)

#: Default number of synthetic methods generated per thousand reported methods.
DEFAULT_SCALE = 3.0

#: (benchmark, PTA reachable methods in thousands, SkipFlow reduction percent)
_DACAPO_ROWS = [
    ("fop", 96.1, 7.1),
    ("h2", 43.3, 7.6),
    ("jython", 74.9, 6.0),
    ("luindex", 31.2, 3.9),
    ("lusearch", 29.2, 3.5),
    ("pmd", 64.0, 9.3),
    ("sunflow", 56.7, 52.3),
    ("xalan", 49.0, 17.0),
]

_MICROSERVICES_ROWS = [
    ("micronaut-helloworld", 76.0, 3.3),
    ("micronaut-mushop-order", 167.0, 7.3),
    ("micronaut-mushop-payment", 83.0, 4.2),
    ("micronaut-mushop-user", 113.0, 6.7),
    ("quarkus-helloworld", 59.6, 6.0),
    ("quarkus-registry", 134.2, 6.8),
    ("quarkus-tika", 109.1, 9.2),
    ("spring-helloworld", 85.2, 5.6),
    ("spring-petclinic", 210.2, 8.1),
]

_RENAISSANCE_ROWS = [
    ("akka-uct", 38.8, 6.4),
    ("als", 381.6, 15.8),
    ("chi-square", 217.8, 17.2),
    ("dec-tree", 385.4, 15.7),
    ("finagle-chirper", 94.9, 12.7),
    ("finagle-http", 93.9, 12.8),
    ("fj-kmeans", 28.0, 5.5),
    ("future-genetic", 28.8, 5.6),
    ("log-regression", 394.7, 15.3),
    ("mnemonics", 28.2, 5.5),
    ("par-mnemonics", 28.2, 5.5),
    ("philosophers", 30.9, 4.1),
    ("reactors", 31.4, 3.7),
    ("rx-scrabble", 29.0, 5.2),
    ("scala-doku", 29.0, 5.5),
    ("scala-kmeans", 27.9, 5.5),
    ("scala-stm-bench7", 32.8, 4.0),
    ("scrabble", 28.3, 5.5),
]


def _build_suite(suite_name: str, rows, scale: float) -> List[BenchmarkSpec]:
    specs: List[BenchmarkSpec] = []
    for name, reachable_thousands, reduction in rows:
        total_methods = max(int(round(reachable_thousands * scale)), 60)
        specs.append(
            spec_from_reduction(
                name=name,
                suite=suite_name,
                total_methods=total_methods,
                reduction_percent=reduction,
                paper_reachable_thousands=reachable_thousands,
            )
        )
    return specs


def dacapo_suite(scale: float = DEFAULT_SCALE) -> List[BenchmarkSpec]:
    """The 8 DaCapo benchmarks of Table 1."""
    return _build_suite("DaCapo", _DACAPO_ROWS, scale)


def microservices_suite(scale: float = DEFAULT_SCALE) -> List[BenchmarkSpec]:
    """The 9 microservice applications of Table 1."""
    return _build_suite("Microservices", _MICROSERVICES_ROWS, scale)


def renaissance_suite(scale: float = DEFAULT_SCALE) -> List[BenchmarkSpec]:
    """The 18 Renaissance benchmarks of Table 1."""
    return _build_suite("Renaissance", _RENAISSANCE_ROWS, scale)


#: (benchmark, hierarchy depth, fanout, call sites) — leaf counts from 64 to
#: 512 allocated types per flow, far beyond the Table 1 specs.
_WIDE_HIERARCHY_ROWS = [
    ("wide-flat-64", 1, 64, 6),
    ("wide-mid-144", 2, 12, 8),
    ("wide-deep-216", 3, 6, 8),
    ("wide-broad-324", 2, 18, 10),
    ("wide-huge-512", 3, 8, 12),
]

#: (benchmark, hierarchy shapes) — 2–4 hierarchies interleaved below one
#: common ancestor; the router's mixed field carries the *union* of the leaf
#: sets (the name's number), megamorphism no single subtree produces.
_COMPOSED_HIERARCHY_ROWS = [
    ("composed-duo-112", ((1, 48, 4, 16), (2, 8, 6, 16))),
    ("composed-trio-196", ((2, 10, 6, 16), (1, 60, 4, 16), (2, 6, 8, 16))),
    ("composed-quad-232", ((1, 40, 4, 12), (2, 8, 6, 12),
                           (1, 64, 4, 12), (2, 8, 8, 12))),
]

WIDE_HIERARCHY_SUITE = "WideHierarchy"


def wide_hierarchy_suite() -> List[BenchmarkSpec]:
    """The saturation stress suite: hundreds of receiver types per flow.

    Sizes are structural (hierarchy depth and fanout), so unlike the paper
    suites there is no ``scale`` knob.  Every spec keeps a small
    always-reachable core and one conventionally guarded module, so the
    standard baseline-vs-SkipFlow comparison stays meaningful; the precision
    the saturation cutoff gives up is measured against the *exact* SkipFlow
    run by ``benchmarks/run_policy_study.py``.

    The ``composed-*`` specs interleave several hierarchies below a common
    ancestor (``compose_hierarchies``): their megamorphic width lives in a
    shared router field mixing every subtree's leaves, and the hierarchies
    cross-guard each other's payloads, so saturation policies that respect
    declared types have something to win there.
    """
    specs: List[BenchmarkSpec] = []
    for name, depth, fanout, call_sites in _WIDE_HIERARCHY_ROWS:
        specs.append(
            BenchmarkSpec(
                name=name,
                suite=WIDE_HIERARCHY_SUITE,
                core_methods=40,
                guarded_modules=(GuardedModuleSpec("boolean_flag", 12),),
                hierarchies=(
                    HierarchySpec(depth=depth, fanout=fanout,
                                  call_sites=call_sites, guarded_methods=24),
                ),
            )
        )
    for name, shapes in _COMPOSED_HIERARCHY_ROWS:
        specs.append(
            BenchmarkSpec(
                name=name,
                suite=WIDE_HIERARCHY_SUITE,
                core_methods=40,
                guarded_modules=(GuardedModuleSpec("boolean_flag", 12),),
                hierarchies=tuple(
                    HierarchySpec(depth=depth, fanout=fanout,
                                  call_sites=call_sites,
                                  guarded_methods=guarded)
                    for depth, fanout, call_sites, guarded in shapes),
                compose_hierarchies=True,
            )
        )
    return specs


def all_suites(scale: float = DEFAULT_SCALE) -> Dict[str, List[BenchmarkSpec]]:
    """The three paper suites keyed by suite name (Table 1 / Figure 9 scope)."""
    return {
        "DaCapo": dacapo_suite(scale),
        "Microservices": microservices_suite(scale),
        "Renaissance": renaissance_suite(scale),
    }


def extended_suites(scale: float = DEFAULT_SCALE) -> Dict[str, List[BenchmarkSpec]]:
    """Every suite, paper and beyond: ``all_suites`` plus ``WideHierarchy``."""
    suites = all_suites(scale)
    suites[WIDE_HIERARCHY_SUITE] = wide_hierarchy_suite()
    return suites


def suite_by_name(name: str, scale: float = DEFAULT_SCALE) -> List[BenchmarkSpec]:
    """Look up one suite (paper or extended) by case-insensitive name."""
    suites = extended_suites(scale)
    for suite_name, specs in suites.items():
        if suite_name.lower() == name.lower():
            return specs
    raise KeyError(f"unknown suite {name!r}; expected one of {sorted(suites)}")
