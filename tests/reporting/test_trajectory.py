"""BENCH_<n>.json trajectories: numbering, schema, and the trend renderer."""

import json

import pytest

from repro.reporting.trajectory import (
    TRAJECTORY_VERSION,
    TrajectoryError,
    TrajectoryRow,
    bench_path,
    existing_indices,
    format_trend,
    load_history,
    next_index,
    parse_trajectory,
    render_directory,
    write_trajectory,
)


def _row(spec="pmd", policy="skipflow", kernel="object",
         steps=100, joins=10, wall=0.5):
    return TrajectoryRow(spec=spec, policy=policy, kernel=kernel,
                         steps=steps, joins=joins, wall_time_seconds=wall)


def _write(directory, *, wall=0.5, speedup=2.0, index=None,
           rows=None, study="arena-cold-solve"):
    return write_trajectory(
        directory, study=study,
        rows=rows if rows is not None else [_row(wall=wall)],
        headline=("arena_cold_solve_speedup_x", speedup), index=index)


class TestNumbering:
    def test_first_run_gets_bench_1(self, tmp_path):
        assert next_index(tmp_path) == 1
        target = _write(tmp_path)
        assert target == bench_path(tmp_path, 1)
        assert target.name == "BENCH_1.json"

    def test_runs_accumulate_in_order(self, tmp_path):
        for expected in (1, 2, 3):
            assert _write(tmp_path).name == f"BENCH_{expected}.json"
        assert existing_indices(tmp_path) == [1, 2, 3]

    def test_numbering_survives_gaps(self, tmp_path):
        _write(tmp_path, index=1)
        _write(tmp_path, index=7)
        # Next slot continues after the highest, not the count.
        assert next_index(tmp_path) == 8

    def test_pinned_index_overwrites_in_place(self, tmp_path):
        _write(tmp_path, speedup=1.0, index=1)
        _write(tmp_path, speedup=3.0, index=1)
        history = load_history(tmp_path)
        assert len(history) == 1
        assert history[0][1]["headline"]["value"] == 3.0

    def test_missing_directory_is_an_empty_history(self, tmp_path):
        assert existing_indices(tmp_path / "nope") == []
        assert load_history(tmp_path / "nope") == []


class TestSchema:
    def test_payload_round_trips_through_parse(self, tmp_path):
        rows = [_row(), _row(kernel="arena", steps=100, wall=0.2)]
        target = _write(tmp_path, rows=rows)
        payload = json.loads(target.read_text())
        assert payload["trajectory_version"] == TRAJECTORY_VERSION
        assert payload["study"] == "arena-cold-solve"
        assert parse_trajectory(payload) == rows

    def test_layer_figures_round_trip_and_stay_optional(self, tmp_path):
        # Payload keys are written sorted, so the pairs come back sorted.
        layers = (("freeze_ms", 50.0), ("freeze_over_generate", 4.0),
                  ("generate_ms", 12.5))
        rows = [_row(), TrajectoryRow(spec="pmd", policy="skipflow",
                                      kernel="arena", steps=100, joins=10,
                                      wall_time_seconds=0.2, layers=layers)]
        payload = json.loads(_write(tmp_path, rows=rows).read_text())
        assert "layers" not in payload["rows"][0]
        assert payload["rows"][1]["layers"] == dict(layers)
        assert parse_trajectory(payload) == rows

    def test_empty_rows_are_rejected_at_write(self, tmp_path):
        with pytest.raises(TrajectoryError):
            _write(tmp_path, rows=[])

    def test_foreign_version_is_rejected(self):
        with pytest.raises(TrajectoryError, match="version"):
            parse_trajectory({"trajectory_version": TRAJECTORY_VERSION + 1,
                              "rows": [_row().as_dict()]})

    def test_missing_row_keys_are_rejected(self):
        incomplete = _row().as_dict()
        del incomplete["joins"]
        with pytest.raises(TrajectoryError, match="joins"):
            parse_trajectory({"trajectory_version": TRAJECTORY_VERSION,
                              "rows": [incomplete]})

    def test_non_object_row_is_rejected(self):
        with pytest.raises(TrajectoryError, match="row 0"):
            parse_trajectory({"trajectory_version": TRAJECTORY_VERSION,
                              "rows": ["not a row"]})


class TestLoadHistory:
    def test_skips_unreadable_and_foreign_files(self, tmp_path):
        _write(tmp_path, index=1)
        bench_path(tmp_path, 2).write_text("{ not json")
        foreign = {"trajectory_version": TRAJECTORY_VERSION + 5,
                   "rows": [_row().as_dict()]}
        bench_path(tmp_path, 3).write_text(json.dumps(foreign))
        _write(tmp_path, index=4)
        indices = [index for index, _ in load_history(tmp_path)]
        assert indices == [1, 4]
        # Skipped files stay on disk — the history is an observation log.
        assert bench_path(tmp_path, 3).exists()


class TestTrend:
    def test_empty_history_renders_a_stub(self):
        assert "no recorded runs" in format_trend([])

    def test_single_run_shows_headline_only(self, tmp_path):
        _write(tmp_path, speedup=2.32)
        trend = render_directory(tmp_path)
        assert "BENCH_1: arena-cold-solve" in trend
        assert "arena_cold_solve_speedup_x = 2.32" in trend
        # No series block with one run — nothing to line up yet.
        assert "wall-time series" not in trend

    def test_multi_run_series_covers_shared_cells_only(self, tmp_path):
        _write(tmp_path, rows=[_row(wall=0.5),
                               _row(kernel="arena", wall=0.2)])
        _write(tmp_path, rows=[_row(wall=0.4),
                               _row(spec="luindex", wall=9.9)])
        trend = render_directory(tmp_path)
        assert "wall-time series" in trend
        assert "pmd | skipflow | object: 0.500 → 0.400" in trend
        # The arena and luindex cells appear in only one run each, so the
        # shared-cell series block holds exactly the one comparable cell.
        series = [line for line in trend.splitlines() if " | " in line]
        assert len(series) == 1
        assert "luindex" not in trend

    def test_layer_figures_get_their_own_series(self, tmp_path):
        for ratio in (9.0, 4.5):
            _write(tmp_path, rows=[TrajectoryRow(
                spec="pmd", policy="skipflow", kernel="arena", steps=100,
                joins=10, wall_time_seconds=0.2,
                layers=(("freeze_over_generate", ratio),))])
        trend = render_directory(tmp_path)
        assert "      freeze_over_generate: 9.00 → 4.50" in trend
