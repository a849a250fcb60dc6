"""The :class:`SolverPolicy`: one value naming a complete solver-kernel setup.

A policy bundles the three knobs the solver kernel exposes — the
worklist's :mod:`scheduling <repro.core.kernel.scheduling>` policy, the
megamorphic-flow :mod:`saturation <repro.core.kernel.saturation>` policy,
and the saturation threshold — so that one hashable value can travel
through :class:`~repro.core.analysis.AnalysisConfig`, the
:mod:`repro.api` session (``session.run(name, policy=...)``), the benchmark
engine's config hashing, and the CLI.

Validation happens at construction: policy names must be built-ins and the
saturation half must be coherent (``off`` means no threshold, any other
cutoff needs one), so a typo fails where the policy is written down rather
than deep inside a solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.kernel.saturation import OFF, available_saturation_policies
from repro.core.kernel.scheduling import available_scheduling_policies


@dataclass(frozen=True)
class SolverPolicy:
    """A complete, validated solver-kernel configuration.

    ``scheduling``
        Name of the worklist policy (``fifo`` or ``degree``).  Every
        scheduling policy reaches the same fixed point; only the solver-effort counters
        (steps, joins, transfers) differ.
    ``saturation`` / ``saturation_threshold``
        Name of the cutoff policy and the type-set width that triggers it.
        ``("off", None)`` — the default — is the paper's exact semantics;
        any other policy requires a threshold of at least 1.
    """

    scheduling: str = "fifo"
    saturation: str = OFF
    saturation_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        schedulings = available_scheduling_policies()
        if self.scheduling not in schedulings:
            raise ValueError(
                f"unknown scheduling policy {self.scheduling!r}; available: "
                f"{', '.join(schedulings)}")
        saturations = available_saturation_policies()
        if self.saturation not in saturations:
            raise ValueError(
                f"unknown saturation policy {self.saturation!r}; available: "
                f"{', '.join(saturations)}")
        if self.saturation == OFF:
            if self.saturation_threshold is not None:
                raise ValueError(
                    f"saturation policy {OFF!r} takes no threshold, got "
                    f"{self.saturation_threshold}")
        else:
            if self.saturation_threshold is None:
                raise ValueError(
                    f"saturation policy {self.saturation!r} needs a "
                    f"saturation_threshold")
            if self.saturation_threshold < 1:
                raise ValueError(
                    f"saturation threshold must be >= 1, got "
                    f"{self.saturation_threshold}")

    @property
    def is_default(self) -> bool:
        """Whether this is the bit-identical seed setup (``fifo`` + ``off``)."""
        return self == DEFAULT_POLICY

    @property
    def label(self) -> str:
        """A compact display name, e.g. ``fifo/off`` or ``degree/allocated-type@16``."""
        if self.saturation == OFF:
            return f"{self.scheduling}/{OFF}"
        return f"{self.scheduling}/{self.saturation}@{self.saturation_threshold}"

    def with_scheduling(self, scheduling: str) -> "SolverPolicy":
        return replace(self, scheduling=scheduling)

    def with_saturation(self, saturation: str,
                        threshold: Optional[int] = None) -> "SolverPolicy":
        """This policy with a different cutoff; ``off`` drops the threshold."""
        if saturation == OFF:
            return replace(self, saturation=OFF, saturation_threshold=None)
        return replace(
            self, saturation=saturation,
            saturation_threshold=(threshold if threshold is not None
                                  else self.saturation_threshold))


#: The seed-identical kernel setup every configuration starts from.
DEFAULT_POLICY = SolverPolicy()
