"""Seeded randomized generation of (program spec, edit script) fuzz cases.

Everything downstream of a :class:`random.Random` seed is deterministic:
``generate_cases(seed, count, profile)`` always yields the same sequence of
:class:`~repro.workloads.edits.EditScriptSpec` values, and each spec
regenerates the same program through the deterministic workload builders —
which is what makes every failure replayable from the ``(seed, index)``
pair alone (and every *shrunk* failure replayable from its repro file).

Cases compose the full workload vocabulary: Table 1 style cores and
guarded modules, wide/composed hierarchies (the saturation stress), and
the application-model families from :mod:`repro.workloads.applications`
(service meshes, plugin registries with dormant extensions, reflection
roots).  Edit scripts draw from every monotone edit kind, including the
family-specific ``add-plugin``/``add-service`` kinds when the spec carries
the matching family.

Two size profiles:

``quick``
    CI-sized: programs of a few dozen methods, 0-3 edit steps — small
    enough that ≥ 50 cases sweep the full saturation × warm/cold matrix
    in a couple of minutes.
``deep``
    Nightly-sized: 10-100x the quick shapes (hundreds of methods, wide
    hierarchies, large family counts), exercised under a time budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.workloads.applications import (
    MicroserviceSpec,
    PluginSystemSpec,
    ReflectionSpec,
)
from repro.workloads.edits import EditScriptSpec, EditStepSpec
from repro.workloads.generator import (
    BenchmarkSpec,
    GuardedModuleSpec,
    HierarchySpec,
)

#: Guard patterns the fuzzer samples from.  ``never_returns`` is excluded:
#: its guard helper spins forever at runtime by design, which burns the
#: whole interpreter budget on one entry point and makes traces
#: budget-truncated rather than meaningfully partial.
FUZZ_GUARD_PATTERNS = ("null_default", "boolean_flag", "instanceof_flag")


@dataclass(frozen=True)
class FuzzProfile:
    """Size knobs for one generation profile (all ranges inclusive)."""

    name: str
    core_methods: Tuple[int, int]
    guarded_modules: Tuple[int, int]
    guarded_size: Tuple[int, int]
    hierarchies: Tuple[int, int]
    hierarchy_depth: Tuple[int, int]
    hierarchy_fanout: Tuple[int, int]
    services: Tuple[int, int]
    plugins: Tuple[int, int]
    reflection_handlers: Tuple[int, int]
    edit_steps: Tuple[int, int]
    #: Probability that a spec carries each application family.
    family_probability: float = 0.5
    #: Probability that 2+ hierarchies are composed below one ancestor.
    compose_probability: float = 0.3


QUICK_PROFILE = FuzzProfile(
    name="quick",
    core_methods=(5, 14),
    guarded_modules=(0, 2),
    guarded_size=(5, 8),
    hierarchies=(0, 2),
    hierarchy_depth=(1, 2),
    hierarchy_fanout=(2, 3),
    services=(2, 5),
    plugins=(3, 6),
    reflection_handlers=(1, 3),
    edit_steps=(0, 3),
)

DEEP_PROFILE = FuzzProfile(
    name="deep",
    core_methods=(40, 400),
    guarded_modules=(1, 4),
    guarded_size=(6, 20),
    hierarchies=(0, 3),
    hierarchy_depth=(1, 3),
    hierarchy_fanout=(2, 6),
    services=(4, 40),
    plugins=(4, 30),
    reflection_handlers=(2, 8),
    edit_steps=(1, 6),
    family_probability=0.6,
)

PROFILES = {profile.name: profile for profile in (QUICK_PROFILE, DEEP_PROFILE)}


def get_profile(name: str) -> FuzzProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown fuzz profile {name!r}; "
                         f"available: {', '.join(sorted(PROFILES))}") from None


def _draw(rng: random.Random, bounds: Tuple[int, int]) -> int:
    return rng.randint(bounds[0], bounds[1])


def random_spec(rng: random.Random, profile: FuzzProfile,
                case_index: int) -> BenchmarkSpec:
    """One random benchmark spec (its name encodes the case index)."""
    guarded = tuple(
        GuardedModuleSpec(rng.choice(FUZZ_GUARD_PATTERNS),
                          _draw(rng, profile.guarded_size))
        for _ in range(_draw(rng, profile.guarded_modules)))
    hierarchies = tuple(
        HierarchySpec(depth=_draw(rng, profile.hierarchy_depth),
                      fanout=_draw(rng, profile.hierarchy_fanout),
                      call_sites=rng.randint(1, 3),
                      guarded_methods=rng.randint(5, 8))
        for _ in range(_draw(rng, profile.hierarchies)))
    compose = (len(hierarchies) >= 2
               and rng.random() < profile.compose_probability)

    services: Optional[MicroserviceSpec] = None
    if rng.random() < profile.family_probability:
        services = MicroserviceSpec(
            services=_draw(rng, profile.services),
            routes=rng.randint(1, 3),
            chained=rng.random() < 0.7,
            guarded_methods=rng.randint(5, 8))
    plugins: Optional[PluginSystemSpec] = None
    if rng.random() < profile.family_probability:
        total = _draw(rng, profile.plugins)
        plugins = PluginSystemSpec(
            plugins=total,
            active=rng.randint(1, max(1, total - 1)),
            hooks=rng.randint(1, 2),
            payload_methods=rng.randint(5, 8))
    reflection: Optional[ReflectionSpec] = None
    if rng.random() < profile.family_probability:
        reflection = ReflectionSpec(
            handlers=_draw(rng, profile.reflection_handlers),
            fields=rng.randint(0, 2),
            payload_methods=rng.randint(5, 7))

    return BenchmarkSpec(
        name=f"fz{case_index}",
        suite="fuzz",
        core_methods=_draw(rng, profile.core_methods),
        guarded_modules=guarded,
        hierarchies=hierarchies,
        compose_hierarchies=compose,
        services=services,
        plugins=plugins,
        reflection=reflection,
    )


def applicable_edit_kinds(spec: BenchmarkSpec) -> Tuple[str, ...]:
    """The monotone edit kinds a random script may use against ``spec``."""
    kinds: List[str] = ["add-variant", "add-dispatch", "add-guarded-module"]
    if spec.plugins is not None:
        kinds.append("add-plugin")
    if spec.services is not None:
        kinds.append("add-service")
    return tuple(kinds)


def random_edit_script(rng: random.Random, profile: FuzzProfile,
                       spec: BenchmarkSpec) -> EditScriptSpec:
    """A random monotone edit script over ``spec``."""
    kinds = applicable_edit_kinds(spec)
    steps = tuple(
        EditStepSpec(kind=rng.choice(kinds), index=index)
        for index in range(_draw(rng, profile.edit_steps)))
    return EditScriptSpec(base=spec, steps=steps)


def iter_cases(seed: int, profile: FuzzProfile) -> Iterator[EditScriptSpec]:
    """An endless deterministic stream of cases for one seed."""
    rng = random.Random(seed)
    for case_index in range(10 ** 9):
        spec = random_spec(rng, profile, case_index)
        yield random_edit_script(rng, profile, spec)


def generate_cases(seed: int, count: int,
                   profile: FuzzProfile = QUICK_PROFILE) -> List[EditScriptSpec]:
    """The first ``count`` cases of the seed's deterministic stream."""
    stream = iter_cases(seed, profile)
    return [next(stream) for _ in range(count)]
