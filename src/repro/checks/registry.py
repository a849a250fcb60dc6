"""The check registry: named, discoverable diagnostics passes.

Mirrors the analyzer registry (:mod:`repro.api.registry`): checks are
registered under normalized names, looked up with a helpful error listing
what *is* available, and enumerated in a deterministic order.  Two kinds
exist:

* ``lint`` checks inspect the input **program** (and optionally a pending
  :class:`~repro.ir.delta.ProgramDelta`) — they need no analysis result;
* ``audit`` checks inspect **analysis artifacts** — the final solver
  state of a solve (either kernel's), the round trip of the arena
  kernel's tables, and its relation to the owning session's warm barrier.

Both kinds consume one :class:`CheckContext` and return
:class:`~repro.checks.diagnostics.Diagnostic` lists; a check whose inputs
are absent from the context (e.g. an audit with no solver state) returns
no findings rather than failing, so ``run_checks`` can always run the
whole registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.checks.diagnostics import Baseline, Diagnostic, sort_diagnostics

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids import cycles
    from repro.core.kernel.arena_kernel import ArenaSolverState
    from repro.core.state import SolverState
    from repro.ir.delta import ProgramDelta
    from repro.ir.program import Program


class UnknownCheckError(KeyError):
    """Raised when a check name is not registered."""


#: The two check kinds (see the module docstring).
CHECK_KINDS = ("lint", "audit")


@dataclass
class CheckContext:
    """Everything a check may inspect; fields are optional by kind.

    ``program`` is always required.  ``roots`` are the analysis roots the
    lint reachability pass starts from (defaults to the program's entry
    points).  ``state`` is the post-solve artifact audits verify (an
    object ``SolverState`` or an ``ArenaSolverState``); ``snapshot``
    optionally carries serialized arena tables to verify instead of
    round-tripping ``state`` in memory (the rehydration path).
    ``warm_barrier`` is the owning session's barrier generation for the
    warm-monotonicity audit.  ``delta`` is a pending edit script for the
    delta-risk lint.
    """

    program: "Program"
    roots: Tuple[str, ...] = ()
    state: Optional[Union["SolverState", "ArenaSolverState"]] = None
    snapshot: Optional[bytes] = None
    warm_barrier: int = 0
    delta: Optional["ProgramDelta"] = None


@dataclass(frozen=True)
class Check:
    """One registered diagnostics pass.

    ``ids`` lists every stable diagnostic id the pass can emit — the
    catalog in ``docs/checks.md`` is generated from exactly this field, so
    a check that grows a new finding must declare its id here.
    """

    name: str
    kind: str
    ids: Tuple[str, ...]
    description: str
    run: Callable[[CheckContext], List[Diagnostic]] = field(compare=False)

    def __post_init__(self) -> None:
        if self.kind not in CHECK_KINDS:
            raise ValueError(
                f"check {self.name!r} has unknown kind {self.kind!r}; "
                f"expected one of {CHECK_KINDS}")


_REGISTRY: Dict[str, Check] = {}


def _normalize(name: str) -> str:
    return name.strip().lower()


def register_check(check: Check, *, replace: bool = False) -> Check:
    """Register a check under its normalized name.

    Re-registering an existing name raises unless ``replace`` is given —
    the same contract as :func:`repro.api.registry.register_analyzer`.
    """
    key = _normalize(check.name)
    if not replace and key in _REGISTRY:
        raise ValueError(
            f"check {check.name!r} is already registered; "
            f"pass replace=True to override")
    _REGISTRY[key] = check
    return check


def unregister_check(name: str) -> None:
    key = _normalize(name)
    if key not in _REGISTRY:
        raise UnknownCheckError(name)
    del _REGISTRY[key]


def get_check(name: str) -> Check:
    """Look up one check by name; the error lists what is available."""
    key = _normalize(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        available = ", ".join(check.name for check in available_checks())
        raise UnknownCheckError(
            f"unknown check {name!r}; available: {available}") from None


def available_checks(kind: Optional[str] = None) -> List[Check]:
    """Registered checks, lint first then audit, each name-sorted."""
    checks = [check for check in _REGISTRY.values()
              if kind is None or check.kind == kind]
    return sorted(checks, key=lambda check: (CHECK_KINDS.index(check.kind),
                                             check.name))


def run_checks(context: CheckContext, *,
               names: Optional[Sequence[str]] = None,
               kind: Optional[str] = None,
               baseline: Optional[Baseline] = None) -> List[Diagnostic]:
    """Run checks over one context and collect their findings.

    ``names`` selects specific checks (any kind); otherwise every
    registered check of ``kind`` (or all of them) runs.  With a
    ``baseline``, suppressed findings are dropped.  The result is in the
    deterministic report order of :func:`sort_diagnostics`.
    """
    if names is not None:
        selected = [get_check(name) for name in names]
        if kind is not None:
            selected = [check for check in selected if check.kind == kind]
    else:
        selected = available_checks(kind)
    diagnostics: List[Diagnostic] = []
    for check in selected:
        diagnostics.extend(check.run(context))
    if baseline is not None:
        diagnostics, _ = baseline.apply(diagnostics)
    return sort_diagnostics(diagnostics)
