"""Daemon smoke for stored base fixpoints: reuse, and refusal of a wrong table.

Serves a :class:`~repro.service.SessionManager` over HTTP and drives it
with the stdlib client:

1. open ``wide-flat-64``, analyze ``skipflow`` (``cold``: the base's
   fixpoint is solved and stored), close it;
2. reopen it and analyze again: the stored table must load — mode
   ``stored``, 0 steps paid, the same reachable set;
3. overwrite the table file with another spec's tables: a fresh session
   must refuse them — mode ``cold-fallback`` with a reason — and still
   serve the same reachable set.

Exits 1 with a ``FAIL:`` line when any of it does not hold.  Run it from
the repository root::

    python benchmarks/stored_fixpoint_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.service import (
    ServiceClient,
    ServiceClientError,
    SessionManager,
    serving,
)

BENCHMARK = "wide-flat-64"
OTHER = "wide-mid-144"


def _reachable(response) -> frozenset:
    return frozenset(response["report"]["call_graph"]["reachable_methods"])


def _tables(spill: str) -> set:
    return set((Path(spill) / "fixpoints").glob("*.state"))


def run(client: ServiceClient, spill: str) -> str:
    """The smoke's checks; returns a failure message, or ``""``."""
    client.open("first", benchmark=BENCHMARK)
    cold = client.analyze("first", "skipflow")
    client.close("first")
    if cold["mode"] != "cold":
        return f"the first solve of the base was {cold['mode']}, not cold"
    (table,) = _tables(spill)

    client.open("second", benchmark=BENCHMARK)
    stored = client.analyze("second", "skipflow")
    client.close("second")
    expected = ("stored", 0, _reachable(cold))
    served = (stored["mode"], stored["steps_paid"], _reachable(stored))
    if served != expected:
        return (f"reopening the base served mode {served[0]}, "
                f"{served[1]} steps "
                f"(expected stored, 0 steps, the cold reachable set)")

    client.open("other", benchmark=OTHER)
    client.analyze("other", "skipflow")
    client.close("other")
    (foreign,) = _tables(spill) - {table}
    table.write_bytes(foreign.read_bytes())
    client.open("third", benchmark=BENCHMARK)
    try:
        planted = client.analyze("third", "skipflow")
    except ServiceClientError as error:
        return f"the planted table was not refused: {error}"
    if planted["mode"] != "cold-fallback" or not planted["fallback_reasons"]:
        return (f"the planted table was not refused: mode "
                f"{planted['mode']}, reasons {planted['fallback_reasons']}")
    if _reachable(planted) != _reachable(cold):
        return "the refused table's fallback served another reachable set"

    metrics = client.metrics()
    counts = (metrics["analyze_modes"]["stored"],
              metrics["requests"]["stored_tables_written"],
              metrics["requests"]["stored_table_refusals"])
    if counts != (1, 3, 1):
        return (f"/v1/metrics counted (stored, tables written, refusals) "
                f"= {counts}, expected (1, 3, 1)")
    print(f"stored fixpoint smoke ok: cold {cold['steps_paid']} steps, "
          f"reopened stored with 0 steps; the planted table was refused: "
          f"{planted['fallback_reasons'][0]}")
    return ""


def main() -> int:
    with tempfile.TemporaryDirectory() as spill, \
            serving(SessionManager(spill_dir=spill)) as server:
        failure = run(ServiceClient.for_address(*server.server_address),
                      spill)
    if failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
