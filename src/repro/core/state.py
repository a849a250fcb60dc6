"""SolverState: a fixpoint as an object graph, and the solver-state errors.

The arena kernel (:mod:`repro.core.kernel.arena_kernel`) keeps its fixpoint
in flat tables, :class:`~repro.core.kernel.arena_kernel.ArenaSolverState`:
the only state a solve resumes, saves, parks or restores.  A
:class:`SolverState` is the same fixpoint inflated into
:class:`~repro.core.flows.Flow` objects
(:meth:`ArenaSolverState.inflate <repro.core.kernel.arena_kernel.
ArenaSolverState.inflate>`), for the consumers that walk flows — the
audits, ``repro pvpg`` and the per-method summaries.  It holds:

* ``pvpg`` — the program PVPG: every built method graph, the field flows,
  ``pred_on``, and through them every flow's ``state`` / ``input_state`` /
  ``enabled`` / ``saturated`` bits, worklist bits and ordered edge sets;
* ``reachable`` / ``stub_methods`` — the reachability frontier;
* ``steps`` / ``joins`` / ``transfers`` / ``saturated_flows`` — the
  cumulative effort counters;
* ``seeded_roots`` / ``stub_links`` — the conservative injections the solve
  performed (root parameter seeds and stub-callee effects);
* ``config`` — the :class:`~repro.core.analysis.AnalysisConfig` the state
  was solved under.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.flows import InvokeFlow
from repro.core.pvpg import ProgramPVPG
from repro.ir.types import MethodSignature


class SolverStateError(ValueError):
    """A solver state that cannot be resumed as requested.

    Raised for configuration mismatches, snapshot-format mismatches, and
    non-monotone program changes.  Callers that can fall back (the session
    API, the CLI) catch this and run cold, loudly.
    """


class SnapshotMismatchError(SolverStateError):
    """A well-formed snapshot that does not match the program.

    Raised by :meth:`~repro.core.kernel.arena_kernel.ArenaSolverState.
    from_bytes` when the program it is restored over does not have the
    arena and fingerprint the tables were written against.  Like a refused
    resume, it means "solve cold", not "the file is bad": the CLI falls
    back with a warning.
    """


class SolverState:
    """A fixpoint as an object graph (see the module docstring)."""

    def __init__(self, config: Optional[object] = None) -> None:
        self.pvpg = ProgramPVPG()
        self.reachable: set = set()
        self.stub_methods: set = set()
        self.steps = 0
        self.joins = 0
        self.transfers = 0
        self.saturated_flows = 0
        #: The AnalysisConfig the fixpoint was solved under.
        self.config = config
        #: Roots whose parameter flows were conservatively seeded, in order.
        self.seeded_roots: List[str] = []
        #: (invoke flow, callee signature) pairs whose stub effects were
        #: injected.
        self.stub_links: List[Tuple[InvokeFlow, MethodSignature]] = []
        #: Completed solves over the tables this state was inflated from.
        self.solve_count = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, int]:
        """The cumulative effort counters (diff around a solve for deltas)."""
        return {
            "steps": self.steps,
            "joins": self.joins,
            "transfers": self.transfers,
            "saturated_flows": self.saturated_flows,
        }
