"""The N-way configuration matrix driver and its cache reuse."""

import pytest

from repro.core.analysis import AnalysisConfig
from repro.engine import MatrixRow, ResultCache, run_config_matrix, run_specs
from repro.reporting.table import format_matrix_table, matrix_table_rows
from repro.workloads.generator import spec_from_reduction

SPECS = [
    spec_from_reduction(name="matrix-mid", suite="test",
                        total_methods=90, reduction_percent=10.0),
    spec_from_reduction(name="matrix-small", suite="test",
                        total_methods=60, reduction_percent=15.0),
]


def _three_configs():
    return (
        [AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow(),
         AnalysisConfig.skipflow().with_saturation_threshold(4)],
        ("pta", "skipflow", "skipflow-sat4"),
    )


def _stable(row: MatrixRow) -> dict:
    return {key: value for key, value in row.as_dict().items()
            if "time" not in key}


class TestMatrixRows:
    def test_rows_follow_input_order_with_named_columns(self):
        configs, names = _three_configs()
        rows = run_config_matrix(SPECS, configs, names=names, jobs=4)
        assert [row.benchmark for row in rows] == [spec.name for spec in SPECS]
        assert all(row.names == names for row in rows)

    def test_columns_match_the_pairwise_runner(self):
        configs, names = _three_configs()
        rows = run_config_matrix(SPECS, configs, names=names)
        pairwise = run_specs(SPECS)
        for row, comparison in zip(rows, pairwise):
            assert row.report("pta").metrics == comparison.report("PTA").metrics
            assert row.report("skipflow").metrics == \
                comparison.report("SkipFlow").metrics
            assert row.metric("reachable_methods", "skipflow") == \
                comparison.metric("reachable_methods", "SkipFlow")

    def test_reference_column_normalization(self):
        configs, names = _three_configs()
        row = run_config_matrix(SPECS[:1], configs, names=names)[0]
        assert row.normalized("reachable_methods", "pta") == 1.0
        assert 0.0 < row.normalized("reachable_methods", "skipflow") < 1.0
        assert row.reduction_percent("reachable_methods", "skipflow") > 0.0
        with pytest.raises(KeyError):
            row.report("rta")

    def test_parallel_matches_serial(self):
        configs, names = _three_configs()
        serial = run_config_matrix(SPECS, configs, names=names, jobs=1)
        parallel = run_config_matrix(SPECS, configs, names=names, jobs=4)
        assert [_stable(row) for row in serial] == [_stable(row) for row in parallel]


class TestMatrixValidation:
    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_config_matrix(SPECS, [AnalysisConfig.skipflow(),
                                      AnalysisConfig.skipflow()])

    def test_name_count_must_match_config_count(self):
        with pytest.raises(ValueError, match="names"):
            run_config_matrix(SPECS, [AnalysisConfig.skipflow()],
                              names=("a", "b"))

    def test_at_least_one_config_required(self):
        with pytest.raises(ValueError, match="at least one"):
            run_config_matrix(SPECS, [])


class TestMatrixCaching:
    def test_matrix_reuses_halves_cached_by_pairwise_runs(self, tmp_path):
        """Every shared half is solved once across pairwise and N-way runs."""
        configs, names = _three_configs()
        warmup_cache = ResultCache(tmp_path)
        run_specs(SPECS, cache=warmup_cache)  # caches pta + skipflow halves

        matrix_cache = ResultCache(tmp_path)
        rows = run_config_matrix(SPECS, configs, names=names,
                                 cache=matrix_cache)
        # pta and skipflow halves hit; only the saturated column computes.
        assert matrix_cache.hits == 2 * len(SPECS)
        assert matrix_cache.misses == len(SPECS)
        for row in rows:
            assert row.run("pta").from_cache
            assert row.run("skipflow").from_cache
            assert not row.run("skipflow-sat4").from_cache
            assert not row.from_cache

        # A second matrix run is served entirely from the cache.
        rerun_cache = ResultCache(tmp_path)
        rerun = run_config_matrix(SPECS, configs, names=names,
                                  cache=rerun_cache)
        assert rerun_cache.hits == 3 * len(SPECS) and rerun_cache.misses == 0
        assert all(row.from_cache for row in rerun)
        assert [_stable(row) for row in rows] == [_stable(row) for row in rerun]

    def test_progress_called_once_per_row(self):
        configs, names = _three_configs()
        seen = []
        run_config_matrix(SPECS, configs, names=names,
                          progress=lambda spec, row: seen.append(spec.name))
        assert sorted(seen) == sorted(spec.name for spec in SPECS)


class TestMatrixReporting:
    def test_table_has_one_line_per_configuration(self):
        configs, names = _three_configs()
        rows = run_config_matrix(SPECS, configs, names=names)
        structured = matrix_table_rows(rows)
        assert len(structured) == len(SPECS) * len(configs)
        reference_rows = [r for r in structured if r["configuration"] == "pta"]
        assert all("(" not in r["reachable_methods"] for r in reference_rows)
        delta_rows = [r for r in structured if r["configuration"] != "pta"]
        assert all("%" in r["reachable_methods"] for r in delta_rows)

    def test_format_matrix_table_renders_all_columns(self):
        configs, names = _three_configs()
        rows = run_config_matrix(SPECS, configs, names=names)
        text = format_matrix_table(rows, title="3-way")
        assert text.startswith("3-way")
        for name in names:
            assert name in text
        for spec in SPECS:
            assert spec.name in text
