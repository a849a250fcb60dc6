"""Errors of predicated value propagation graph construction (Appendix B.4).

The construction itself is one sequential pass per method, blocks in
reverse postorder, that writes each flow and edge straight into the arena's
rows: the PVPG builder of :mod:`repro.ir.arena.lowering`.  A method body it
cannot translate raises :class:`PVPGBuildError`, naming the method.
"""

from __future__ import annotations


class PVPGBuildError(Exception):
    """Raised when a method body cannot be translated into a PVPG."""
