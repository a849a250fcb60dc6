"""Spec pools of the three workloads and the seeded op sequences over them.

Every workload draws its ops from a fixed pool.  The seed fixes the order:
a run is a whole number of *passes*, each a seeded permutation of the pool.
Two seeds therefore measure the same mix of programs in different orders —
the figures of a run do not depend on which large programs a seed happened
to pick, and a claim can still be checked on a seed not used while writing
it.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence, Tuple, TypeVar

from repro.core.analysis import AnalysisConfig
from repro.workloads.edits import MONOTONE_EDIT_KINDS
from repro.workloads.generator import BenchmarkSpec
from repro.workloads.suites import (
    DEFAULT_SCALE,
    WIDE_HIERARCHY_SUITE,
    all_suites,
    microservices_suite,
    wide_hierarchy_suite,
)

T = TypeVar("T")

#: ``image-fresh`` builds Table 1 at a third of ``DEFAULT_SCALE``: one pass
#: of the 35 builds takes about 7 s, so a run fits four passes and every
#: spec is timed four times.
IMAGE_SCALE = DEFAULT_SCALE / 3

#: Table 1 specs are generated at this scale for ``matrix-store``: a sixth
#: of the default, so the store fill, which runs in every set-up, stays short.
SMALL_SCALE = 0.5

#: ``daemon-edit`` sessions of Microservices specs use this scale, and the
#: sessions of WideHierarchy specs only the three smallest shapes, so one
#: pass of 12 sessions takes about 7 s.
DAEMON_SCALE = 0.25
DAEMON_WIDE_SPECS = ("wide-flat-64", "wide-mid-144", "composed-duo-112")

#: Saturation threshold of the third ``matrix-store`` column.
SATURATION_THRESHOLD = 16

#: Edit rounds (``update`` then ``analyze``) per ``daemon-edit`` session.
EDIT_ROUNDS = 4


def image_pool() -> List[BenchmarkSpec]:
    """The 35 Table 1 specs at ``IMAGE_SCALE``."""
    return [spec for specs in all_suites(IMAGE_SCALE).values() for spec in specs]


def matrix_pool() -> List[BenchmarkSpec]:
    """Table 1 at ``SMALL_SCALE`` plus the WideHierarchy suite (43 specs)."""
    table1 = [spec for specs in all_suites(SMALL_SCALE).values() for spec in specs]
    return table1 + wide_hierarchy_suite()


def daemon_pool() -> List[BenchmarkSpec]:
    """Microservices at ``DAEMON_SCALE`` plus three WideHierarchy specs (12 specs)."""
    wide = [spec for spec in wide_hierarchy_suite() if spec.name in DAEMON_WIDE_SPECS]
    return microservices_suite(DAEMON_SCALE) + wide


def image_configs() -> Dict[str, AnalysisConfig]:
    """The two ``image-fresh`` builds, by label."""
    return {"pta": AnalysisConfig.baseline_pta(), "skipflow": AnalysisConfig.skipflow()}


def matrix_configs() -> Dict[str, AnalysisConfig]:
    """The three ``matrix-store`` columns, by label."""
    skipflow = AnalysisConfig.skipflow()
    return {
        "pta": AnalysisConfig.baseline_pta(),
        "skipflow": skipflow,
        f"skipflow-at{SATURATION_THRESHOLD}": skipflow.with_saturation_policy(
            "allocated-type", SATURATION_THRESHOLD).with_name(
                f"SkipFlow-at{SATURATION_THRESHOLD}"),
    }


def edit_steps(rounds: int = EDIT_ROUNDS) -> List[dict]:
    """The wire form of the edit script every ``daemon-edit`` session applies."""
    return [{"kind": MONOTONE_EDIT_KINDS[i % len(MONOTONE_EDIT_KINDS)], "index": i}
            for i in range(rounds)]


def seeded_passes(items: Sequence[T], seed: int, salt: str) -> Iterator[List[T]]:
    """Seeded permutations of ``items``, one per pass, without end."""
    rng = random.Random(f"{salt}:{seed}")
    while True:
        order = list(items)
        rng.shuffle(order)
        yield order


def matrix_halves() -> List[Tuple[BenchmarkSpec, str]]:
    """Every (spec, config label) pair of ``matrix-store`` (94 halves).

    The saturation column runs on the WideHierarchy specs only: Table 1
    flows never reach its threshold, so there it repeats ``skipflow``.
    """
    return [(spec, label) for spec in matrix_pool() for label in matrix_configs()
            if spec.suite == WIDE_HIERARCHY_SUITE or label in ("pta", "skipflow")]
