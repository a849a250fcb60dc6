"""Allocated-type saturation over an arena program decodes no method body.

The origin set of ``allocated-type`` (every allocation site of the
program) and of ``allocated-type-reachable`` (those of the reachable
methods) comes from the arena's allocation-site index, never from the
bodies: an attached program, one extended by a monotone delta and a daemon
session each solve under a threshold without one
:meth:`ProgramArena.method_blocks` call, and land on the plain program's
origins, counters and reachable set, handing out no method view but the
roots'.  An index that is broken raises.
"""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel import AllocatedTypeSaturation
from repro.core.kernel.saturation import reachable_allocated_types
from repro.ir.arena import ArenaProgram, freeze, open_program
from repro.ir.arena.program import ProgramArena
from repro.service import SessionManager
from repro.workloads.edits import EditStepSpec, build_edit_delta
from repro.workloads.generator import (
    BenchmarkSpec,
    GuardedModuleSpec,
    HierarchySpec,
    generate_benchmark,
)

SPEC = BenchmarkSpec(
    name="site-index", suite="test", core_methods=25,
    guarded_modules=(GuardedModuleSpec("boolean_flag", 8),),
    hierarchies=(HierarchySpec(depth=2, fanout=5, call_sites=4,
                               guarded_methods=12),))

POLICIES = ("allocated-type", "allocated-type-reachable")
THRESHOLD = 4


@pytest.fixture
def decoded(monkeypatch):
    """The qualified names of every body an attached arena decodes."""
    names = []
    method_blocks = ProgramArena.method_blocks

    def counting(arena, mid):
        names.append(arena.qualified_name(mid))
        return method_blocks(arena, mid)

    monkeypatch.setattr(ProgramArena, "method_blocks", counting)
    return names


@pytest.fixture
def policies(monkeypatch):
    """Every saturation policy a solve builds, in construction order."""
    built = []
    init = AllocatedTypeSaturation.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(AllocatedTypeSaturation, "__init__", recording)
    return built


def _config(policy):
    return AnalysisConfig.skipflow().with_saturation_policy(policy, THRESHOLD)


def _solve(program, policy, policies):
    result = SkipFlowAnalysis(program, _config(policy)).run()
    return result, policies[-1].origins


def _variant_delta():
    """An ``add-variant`` edit: its ``apply`` method holds a ``new`` site."""
    return build_edit_delta(SPEC, EditStepSpec("add-variant", 0))


@pytest.mark.parametrize("policy", POLICIES)
def test_an_attached_program_solves_without_decoding(policy, decoded,
                                                     policies):
    plain = generate_benchmark(SPEC)
    attached = open_program(freeze(plain))
    arena, origins = _solve(attached, policy, policies)
    assert decoded == []
    reference, reference_origins = _solve(plain, policy, policies)
    assert reference.stats.saturated_flows > 0
    assert origins == reference_origins
    assert arena.stats == reference.stats
    assert arena.reachable_methods == reference.reachable_methods


@pytest.mark.parametrize("policy", POLICIES)
def test_an_extended_program_solves_without_decoding(policy, decoded,
                                                     policies):
    plain = generate_benchmark(SPEC)
    attached = open_program(freeze(plain))
    attached.allocation_site_index  # memoized before the delta lands
    for program in (plain, attached):
        _variant_delta().apply_to(program, require_monotone=True)
    apply = "Site_indexEditInject0.apply"
    assert "Site_indexEditVariant0" in attached.allocation_site_index[apply]
    arena, origins = _solve(attached, policy, policies)
    assert decoded == []
    reference, reference_origins = _solve(plain, policy, policies)
    assert "Site_indexEditVariant0" in origins
    assert origins == reference_origins
    assert arena.stats == reference.stats
    assert arena.reachable_methods == reference.reachable_methods


@pytest.mark.parametrize("policy", POLICIES)
def test_origins_build_no_method_view_but_the_roots(policy, policies):
    """The stub scan tests every declared method for membership, which must
    not hand out a view per method."""
    attached = open_program(freeze(generate_benchmark(SPEC)))
    _solve(attached, policy, policies)
    assert sorted(attached.methods.materialized()) == sorted(
        attached.entry_points)
    assert "Main.main" in attached.methods
    assert "Main.nothing" not in attached.methods
    assert 7 not in attached.methods


def test_the_index_lists_every_methods_allocation_sites(decoded):
    plain = generate_benchmark(SPEC)
    attached = open_program(freeze(plain))
    assert attached._site_index is None
    index = attached.allocation_site_index
    assert len(index) == attached.arena.num_methods
    for name in plain.methods:
        assert set(index[name]) == reachable_allocated_types(
            plain, reachable=(name,))
    assert decoded == []


def test_a_broken_index_raises_instead_of_decoding(decoded, monkeypatch):
    attached = open_program(freeze(generate_benchmark(SPEC)))

    def broken(program):
        raise AttributeError("no allocation-site index")

    monkeypatch.setattr(ArenaProgram, "allocation_site_index",
                        property(broken))
    for policy in POLICIES:
        with pytest.raises(AttributeError, match="no allocation-site index"):
            SkipFlowAnalysis(attached, _config(policy)).run()
    assert decoded == []


def test_a_daemon_session_with_a_threshold_decodes_no_body(tmp_path,
                                                           decoded):
    manager = SessionManager(spill_dir=tmp_path / "spill")
    manager.open("s", benchmark="wide-flat-64")
    for policy in POLICIES:
        options = {"saturation_policy": policy,
                   "saturation_threshold": THRESHOLD}
        cold = manager.analyze("s", "skipflow", options)
        assert cold["mode"] == "cold"
    manager.update("s", edit={"kind": "add-variant", "index": 0})
    for policy in POLICIES:
        options = {"saturation_policy": policy,
                   "saturation_threshold": THRESHOLD}
        warm = manager.analyze("s", "skipflow", options)
        assert warm["mode"] == "warm"
    assert decoded == []
