"""Property tests: each integer worklist mirrors its object counterpart.

The arena kernel re-implements every scheduling policy over plain fids
(``_FifoFids``/``_DegreeFids`` in :mod:`repro.core.kernel.arena_kernel`);
the bit-identity of the whole kernel rests on each mirror popping fids in *exactly* the order its object
counterpart pops flows.  These tests check that contract directly: random
flow graphs, random interleavings of pushes and pops (respecting the
solver's at-most-once-pending dedup bit), and a pop-by-pop comparison —
far more schedules than the end-to-end grid can reach.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.kernel.arena_kernel import (  # noqa: E402
    _DegreeFids,
    _FifoFids,
)
from repro.core.kernel.scheduling import (  # noqa: E402
    DegreeScheduling,
    FifoScheduling,
)

PAIRS = [
    ("fifo", FifoScheduling, _FifoFids),
    ("degree", DegreeScheduling, _DegreeFids),
]


class _FakeFlow:
    """Just enough of a flow for the object policies: uid + edge lists."""

    def __init__(self, uid: int) -> None:
        self.uid = uid
        self.uses: List["_FakeFlow"] = []
        self.observers: List["_FakeFlow"] = []
        self.predicate_targets: List["_FakeFlow"] = []


class _FakeSolver:
    """The hook the degree mirror calls back into the arena solver."""

    def __init__(self, flows: List[_FakeFlow]) -> None:
        self._flows: Dict[int, _FakeFlow] = {flow.uid: flow for flow in flows}

    def _degree(self, fid: int) -> int:
        flow = self._flows[fid]
        return (len(flow.uses) + len(flow.observers)
                + len(flow.predicate_targets))


def _build_graph(n: int, edges: List[int], extras: List[int]):
    """A deterministic random graph from drawn integers.

    ``edges`` seeds the use edges (including self loops and cycles);
    ``extras`` pads observers/predicate_targets so out-degrees differ from
    use-edge counts (degree keys must see the *total* fan-out).
    """
    flows = [_FakeFlow(uid) for uid in range(n)]
    for position, raw in enumerate(edges):
        source = flows[position % n]
        source.uses.append(flows[raw % n])
    for position, raw in enumerate(extras):
        flow = flows[position % n]
        if raw % 2:
            flow.observers.append(flows[raw % n])
        else:
            flow.predicate_targets.append(flows[raw % n])
    return flows


@st.composite
def _scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(st.lists(st.integers(min_value=0, max_value=10 * n),
                          max_size=4 * n))
    extras = draw(st.lists(st.integers(min_value=0, max_value=10 * n),
                           max_size=2 * n))
    # The operation tape: each entry either pushes a specific flow or pops.
    ops = draw(st.lists(
        st.one_of(st.integers(min_value=0, max_value=n - 1), st.none()),
        min_size=1, max_size=6 * n))
    return n, edges, extras, ops


@pytest.mark.parametrize("name,object_policy,fid_mirror", PAIRS,
                         ids=[pair[0] for pair in PAIRS])
class TestMirrorsPopInLockstep:
    @settings(max_examples=60, deadline=None)
    @given(scenario=_scenarios())
    def test_random_interleavings(self, name, object_policy, fid_mirror,
                                  scenario):
        n, edges, extras, ops = scenario
        flows = _build_graph(n, edges, extras)
        solver = _FakeSolver(flows)
        reference = object_policy()
        mirror = fid_mirror(solver)

        pending = set()
        for op in ops:
            if op is None or op in pending:
                # A pop — or a push of an already-pending flow, which the
                # solver's dedup bit would suppress; treat it as a pop too
                # so the tape stays productive.
                if not pending:
                    continue
                assert len(mirror) == len(reference)
                flow = reference.pop()
                fid = mirror.pop()
                assert fid == flow.uid, (
                    f"{name}: mirror popped fid {fid}, object policy "
                    f"popped uid {flow.uid}")
                pending.discard(flow.uid)
            else:
                pending.add(op)
                reference.push(flows[op])
                mirror.push(op)

        # Drain: the remaining pops must also agree, in full.
        while pending:
            assert len(mirror) == len(reference) == len(pending)
            flow = reference.pop()
            fid = mirror.pop()
            assert fid == flow.uid
            pending.discard(flow.uid)
        assert len(mirror) == len(reference) == 0

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=10),
           edges=st.lists(st.integers(min_value=0, max_value=60),
                          max_size=30))
    def test_push_all_pop_all(self, name, object_policy, fid_mirror,
                              n, edges):
        """One full round: push every flow, then drain."""
        flows = _build_graph(n, edges, [])
        solver = _FakeSolver(flows)
        reference = object_policy()
        mirror = fid_mirror(solver)
        for flow in flows:
            reference.push(flow)
            mirror.push(flow.uid)
        popped = [(mirror.pop(), reference.pop().uid) for _ in flows]
        assert [fid for fid, _ in popped] == [uid for _, uid in popped]

    @settings(max_examples=30, deadline=None)
    @given(scenario=_scenarios(),
           growth=st.lists(st.integers(min_value=0, max_value=200),
                           max_size=20))
    def test_edges_added_while_pending(self, name, object_policy, fid_mirror,
                                       scenario, growth):
        """Linking grows fan-out while flows wait in the worklist; both
        sides must keep the priority they computed at push time."""
        n, edges, extras, _ = scenario
        flows = _build_graph(n, edges, extras)
        solver = _FakeSolver(flows)
        reference = object_policy()
        mirror = fid_mirror(solver)
        for flow in flows:
            reference.push(flow)
            mirror.push(flow.uid)
        for position, raw in enumerate(growth):
            flows[raw % n].uses.append(flows[position % n])
        popped = [(mirror.pop(), reference.pop().uid) for _ in flows]
        assert [fid for fid, _ in popped] == [uid for _, uid in popped]
        assert len(mirror) == len(reference) == 0
