"""The solver kernel: the saturation policies and the arena propagation kernel.

The package splits the *policy* decision out of the *propagation core*, so
a cutoff can be swapped without touching the solve:

* :mod:`repro.core.kernel.saturation` — when a megamorphic flow collapses
  and which top element it collapses to (``off``, ``allocated-type`` —
  the sentinel a bare threshold engages — and
  ``allocated-type-reachable``), named by
  ``AnalysisConfig.saturation_policy`` with its
  ``saturation_threshold``;
* :mod:`repro.core.kernel.arena_kernel` — the propagation core over an
  arena's integer flow ids.

The worklist order is not a policy: the kernel drains a plain ``deque``
oldest-first, the seed solver's order.  The fixpoint is the same under any
fair order; a measured ``degree`` order (hub flows first) saved 2–3% of
steps but cost 10–26% of wall time, so it was deleted.

Why every saturation policy preserves the termination argument
--------------------------------------------------------------
The solver's proof (Appendix C) needs three monotonicity legs: value states
only move up the finite lattice ``L``, flows only switch from disabled to
enabled, and edges are only added.  A saturation policy touches none of
them: it only ever *raises* a state (the sentinel is joined over the state
that triggered the collapse) and then skips joins that would be no-ops
against that top, so it can shorten the iteration but never extend or
redirect it.

The propagation/linking core (delivery, predicate enabling, invoke and
field linking) stays in the solver and is identical under every policy;
with ``off`` the kernel reproduces the seed's exact step counts.
"""

from repro.core.kernel.saturation import (
    AllocatedTypeSaturation,
    allocated_types,
    available_saturation_policies,
    make_saturation_policy,
    reachable_allocated_types,
)

__all__ = [
    "AllocatedTypeSaturation",
    "allocated_types",
    "available_saturation_policies",
    "make_saturation_policy",
    "reachable_allocated_types",
]
