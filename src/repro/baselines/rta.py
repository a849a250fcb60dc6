"""Rapid Type Analysis (RTA), Bacon & Sweeney 1996.

RTA refines CHA by resolving virtual calls only against receiver types that
are actually instantiated somewhere in the reachable part of the program.
Because instantiation discovered later can add targets to already-processed
call sites, the analysis iterates to a fixed point.  A root's callers are
outside the program, so the instantiable subtypes of its declared
reference parameters (and of its class, for an instance root) count as
instantiated from the start, as SkipFlow's conservative root seeds do.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Set, Tuple

from repro.baselines.cha import CallGraphResult, ClassHierarchyAnalysis, _allocated_types
from repro.core.kernel.saturation import reachable_allocated_types
from repro.ir.instructions import Invoke, InvokeKind
from repro.ir.program import Program
from repro.ir.types import OBJECT_TYPE_NAME


class RapidTypeAnalysis(ClassHierarchyAnalysis):
    """Call-graph construction restricted to instantiated receiver types."""

    algorithm_name = "RTA"

    def __init__(self, program: Program):
        super().__init__(program)
        self._instantiated: Set[str] = set()

    # ------------------------------------------------------------------ #
    def run(self, roots: Optional[Iterable[str]] = None) -> CallGraphResult:
        root_names = list(roots) if roots is not None else list(self.program.entry_points)
        if not root_names:
            raise ValueError("no root methods: provide roots or program entry points")
        result = CallGraphResult(algorithm=self.algorithm_name)
        self._instantiated = set()
        #: Virtual call sites seen so far: (caller, invoke) pairs to re-resolve
        #: whenever a new type becomes instantiated.
        pending_sites: List[Tuple[str, Invoke]] = []
        worklist: Deque[str] = deque()
        seeded = reachable_allocated_types(self.program, reachable=(),
                                           roots=tuple(root_names))
        self._instantiated.update(seeded)
        result.instantiated_types.update(seeded)
        for root in root_names:
            self._mark_reachable(root, result, worklist)

        while worklist:
            qualified = worklist.popleft()
            method = self.program.methods.get(qualified)
            if method is None:
                continue
            newly_allocated = _allocated_types(method) - self._instantiated
            if newly_allocated:
                self._instantiated.update(newly_allocated)
                result.instantiated_types.update(newly_allocated)
                # Re-resolve every known virtual call site against the new types.
                for caller, invoke in pending_sites:
                    for callee in self._resolve_with_instantiated(invoke, newly_allocated):
                        result.call_edges.add((caller, callee))
                        self._mark_reachable(callee, result, worklist)
            caller = method.qualified_name
            for statement in method.iter_statements():
                if not isinstance(statement, Invoke):
                    continue
                if statement.kind is InvokeKind.STATIC:
                    targets = super().resolve_targets(statement)
                else:
                    pending_sites.append((caller, statement))
                    targets = self._resolve_with_instantiated(statement, self._instantiated)
                for callee in targets:
                    result.call_edges.add((caller, callee))
                    self._mark_reachable(callee, result, worklist)
        return result

    # ------------------------------------------------------------------ #
    def _resolve_with_instantiated(self, invoke: Invoke,
                                   candidate_types: Iterable[str]) -> List[str]:
        declared = invoke.receiver.declared_type if invoke.receiver is not None else None
        if declared is None or declared not in self.hierarchy:
            declared = OBJECT_TYPE_NAME
        receivers = [
            type_name
            for type_name in candidate_types
            if self.hierarchy.is_subtype(type_name, declared)
        ]
        signatures = self.hierarchy.resolve_all(receivers, invoke.method_name)
        return sorted(signature.qualified_name for signature in signatures)
