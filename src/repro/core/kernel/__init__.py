"""The solver kernel: the scheduling and saturation policies of a solve.

:class:`~repro.core.solver.SkipFlowSolver` used to be a monolith in which
worklist order, the saturation cutoff, and invoke/field linking were
interleaved in one class.  This package splits the *policy* decisions out
of the *propagation core* so they can be swapped without touching the
solver:

* :mod:`repro.core.kernel.scheduling` — who owns the worklist and in what
  order pending flows are processed (``fifo``, ``degree``);
* :mod:`repro.core.kernel.saturation` — when a megamorphic flow collapses
  and which top element it collapses to (``off``, ``closed-world``,
  ``allocated-type``, ``allocated-type-reachable``);
* :mod:`repro.core.kernel.policy` — :class:`SolverPolicy`, the hashable
  bundle of both halves plus the threshold that travels through
  ``AnalysisConfig``, the session API, the engine's cache keys, and the
  CLI.

Why every policy preserves the termination argument
---------------------------------------------------
The solver's proof (Appendix C) needs three monotonicity legs: value states
only move up the finite lattice ``L``, flows only switch from disabled to
enabled, and edges are only added.  Policies cannot touch any of them —

* a scheduling policy only permutes the order in which already-scheduled
  flows are popped; as long as it is *fair* (every pushed flow is
  eventually popped — all built-ins drain their containers completely),
  the chaotic-iteration theorem gives the same least fixed point, in
  finitely many steps, for every order;
* a saturation policy only ever *raises* a state (the sentinel is joined
  over the state that triggered the collapse) and then skips joins that
  would be no-ops against that top, so it can shorten the iteration but
  never extend or redirect it.

The propagation/linking core (delivery, predicate enabling, invoke and
field linking) stays in the solver and is identical under every policy —
which is what the policy-equivalence tests assert: the same reachable set,
call edges, and final value states under every scheduling policy, and with
``fifo`` + ``off`` the seed's exact step counts.
"""

from repro.core.kernel.policy import DEFAULT_POLICY, SolverPolicy
from repro.core.kernel.saturation import (
    AllocatedTypeSaturation,
    ClosedWorldSaturation,
    ReachableAllocatedSaturation,
    allocated_types,
    available_saturation_policies,
    make_saturation_policy,
    reachable_allocated_types,
)
from repro.core.kernel.scheduling import (
    DegreeScheduling,
    FifoScheduling,
    available_scheduling_policies,
    make_scheduling_policy,
)

__all__ = [
    "DEFAULT_POLICY",
    "AllocatedTypeSaturation",
    "ClosedWorldSaturation",
    "DegreeScheduling",
    "FifoScheduling",
    "ReachableAllocatedSaturation",
    "SolverPolicy",
    "allocated_types",
    "available_saturation_policies",
    "available_scheduling_policies",
    "make_saturation_policy",
    "make_scheduling_policy",
    "reachable_allocated_types",
]
