"""Versioned benchmark trajectories: ``BENCH_<n>.json`` files plus a trend.

A *trajectory* records one benchmark run as rows of
(spec × policy × kernel) cells — solver steps, joins, and wall time — so
that successive runs of the same study become a numbered series the repo
can keep forever: ``BENCH_1.json`` is the first recorded run,
``BENCH_2.json`` the next, and so on.  The files are written by the study
runners (``benchmarks/run_policy_study.py`` and
``benchmarks/run_incremental_study.py`` given ``--bench-dir``) and read back by :func:`format_trend`, a tiny renderer that lines
the series up per cell and shows how the headline metric moved.

The payload is versioned (``trajectory_version``) independently of the
engine's code version: a trajectory is an *observation log*, not a cache —
old entries stay meaningful after the code changes, which is exactly what
makes the trend interesting.  Foreign-version files are skipped by
:func:`load_history`, never deleted.

Schema (version 1)::

    {
      "trajectory_version": 1,
      "study":    "arena-cold-solve",          # which runner wrote it
      "headline": {"name": "...", "value": x}, # the study's one number
      "rows": [
        {"spec": ..., "policy": ..., "kernel": ...,
         "steps": n, "joins": n, "wall_time_seconds": s,
         "layers": {"freeze_ms": x, ...}},      # optional per-layer figures
        ...
      ],
      ...                                      # runners may add context
    }
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Bumped when the row shape or required keys change; ``load_history``
#: skips files carrying any other version.
TRAJECTORY_VERSION = 1

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")

#: Keys every row must carry (the spec × policy × kernel cell identity
#: plus the three measurements the trend renderer lines up).
ROW_KEYS = ("spec", "policy", "kernel", "steps", "joins",
            "wall_time_seconds")


@dataclass(frozen=True)
class TrajectoryRow:
    """One (spec, policy, kernel) cell of a recorded benchmark run."""

    spec: str
    policy: str
    kernel: str
    steps: int
    joins: int
    wall_time_seconds: float
    #: Optional named per-layer figures of the cell (times in ms, ratios),
    #: as ``(name, value)`` pairs; written as a ``layers`` object.
    layers: Tuple[Tuple[str, float], ...] = ()

    def as_dict(self) -> Dict[str, object]:
        row = asdict(self)
        row["layers"] = dict(self.layers)
        if not self.layers:
            del row["layers"]
        return row


class TrajectoryError(ValueError):
    """A payload that is not (or no longer) a readable trajectory."""


# ---------------------------------------------------------------------- #
# Naming
# ---------------------------------------------------------------------- #
def bench_path(directory, index: int) -> Path:
    """The path of trajectory ``index`` under ``directory``."""
    return Path(directory) / f"BENCH_{index}.json"


def existing_indices(directory) -> List[int]:
    """The recorded trajectory numbers under ``directory``, ascending."""
    root = Path(directory)
    if not root.is_dir():
        return []
    indices = []
    for path in root.iterdir():
        match = _BENCH_NAME.match(path.name)
        if match:
            indices.append(int(match.group(1)))
    return sorted(indices)


def next_index(directory) -> int:
    """The number the *next* trajectory should get (1 for an empty dir)."""
    taken = existing_indices(directory)
    return (taken[-1] + 1) if taken else 1


# ---------------------------------------------------------------------- #
# Write / read
# ---------------------------------------------------------------------- #
def write_trajectory(directory, *, study: str,
                     rows: Sequence[TrajectoryRow],
                     headline: Tuple[str, float],
                     extra: Optional[Dict[str, object]] = None,
                     index: Optional[int] = None) -> Path:
    """Persist one run as the next ``BENCH_<n>.json`` under ``directory``.

    ``headline`` is the study's one number — the value the trend renderer
    tracks across runs.
    ``extra`` lands verbatim in the payload for human context (config
    labels, host notes); it is never interpreted.  Pass ``index`` to
    overwrite a specific slot (the CI smoke pins index 1 so reruns do not
    accumulate); by default the run gets a fresh number.
    """
    if not rows:
        raise TrajectoryError("a trajectory needs at least one row")
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    slot = next_index(root) if index is None else index
    name, value = headline
    payload: Dict[str, object] = dict(extra or {})
    payload.update({
        "trajectory_version": TRAJECTORY_VERSION,
        "study": study,
        "headline": {"name": name, "value": value},
        "rows": [row.as_dict() for row in rows],
    })
    target = bench_path(root, slot)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def parse_trajectory(payload: Dict[str, object]) -> List[TrajectoryRow]:
    """Validate a loaded payload and return its rows.

    Raises :class:`TrajectoryError` on a foreign version or malformed rows
    — the strict counterpart of :func:`load_history`'s skip-and-continue.
    """
    version = payload.get("trajectory_version")
    if version != TRAJECTORY_VERSION:
        raise TrajectoryError(
            f"unsupported trajectory version {version!r} "
            f"(expected {TRAJECTORY_VERSION})")
    raw_rows = payload.get("rows")
    if not isinstance(raw_rows, list) or not raw_rows:
        raise TrajectoryError("trajectory has no rows")
    rows = []
    for position, raw in enumerate(raw_rows):
        if not isinstance(raw, dict):
            raise TrajectoryError(f"row {position} is not an object")
        missing = [key for key in ROW_KEYS if key not in raw]
        if missing:
            raise TrajectoryError(
                f"row {position} is missing {', '.join(missing)}")
        rows.append(TrajectoryRow(
            spec=str(raw["spec"]), policy=str(raw["policy"]),
            kernel=str(raw["kernel"]), steps=int(raw["steps"]),
            joins=int(raw["joins"]),
            wall_time_seconds=float(raw["wall_time_seconds"]),
            layers=tuple((str(name), float(value))
                         for name, value in dict(raw.get("layers", {})).items())))
    return rows


def load_history(directory) -> List[Tuple[int, Dict[str, object]]]:
    """Every readable trajectory under ``directory`` as (index, payload).

    Unreadable JSON and foreign-version payloads are skipped, not raised:
    the trend keeps rendering around one bad file.
    """
    history = []
    for index in existing_indices(directory):
        try:
            payload = json.loads(bench_path(directory, index).read_text())
            parse_trajectory(payload)
        except (OSError, ValueError):
            continue
        history.append((index, payload))
    return history


# ---------------------------------------------------------------------- #
# Trend rendering
# ---------------------------------------------------------------------- #
def format_trend(history: Sequence[Tuple[int, Dict[str, object]]]) -> str:
    """A compact text trend over recorded trajectories.

    One line per run shows the headline metric; below it, each
    (spec, policy, kernel) cell present in *every* run gets a wall-time
    series, so a regression is visible as a rising tail, followed by one
    series per layer figure the cell carries in every run.  Cells that come
    and go between runs are left out of the per-cell block (their series
    would not be comparable) but still counted in the row totals.
    """
    if not history:
        return "trajectory trend: no recorded runs"
    lines = ["trajectory trend:"]
    for index, payload in history:
        headline = payload.get("headline", {})
        rows = parse_trajectory(payload)
        lines.append(
            f"  BENCH_{index}: {payload.get('study', '?')} — "
            f"{headline.get('name', 'headline')} = "
            f"{_fmt(headline.get('value'))} ({len(rows)} rows)")

    def cell_key(row: TrajectoryRow) -> Tuple[str, str, str]:
        return (row.spec, row.policy, row.kernel)

    per_run = [
        {cell_key(row): row for row in parse_trajectory(payload)}
        for _, payload in history]
    shared = set(per_run[0])
    for cells in per_run[1:]:
        shared &= set(cells)
    if shared and len(history) > 1:
        lines.append("  wall-time series (seconds, oldest → newest):")
        for key in sorted(shared):
            spec, policy, kernel = key
            series = " → ".join(
                f"{cells[key].wall_time_seconds:.3f}" for cells in per_run)
            lines.append(f"    {spec} | {policy} | {kernel}: {series}")
            for name in dict(per_run[0][key].layers):
                values = [dict(cells[key].layers).get(name) for cells in per_run]
                if None not in values:
                    lines.append(f"      {name}: "
                                 + " → ".join(f"{value:.2f}" for value in values))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_directory(directory) -> str:
    """Load ``directory``'s trajectories and render the trend (CLI helper)."""
    return format_trend(load_history(directory))


if __name__ == "__main__":  # pragma: no cover — thin CLI shim
    import sys
    print(render_directory(sys.argv[1] if len(sys.argv) > 1 else "."))
