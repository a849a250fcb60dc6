"""Cache key stability and invalidation for the per-configuration cache."""

from repro.core.analysis import AnalysisConfig
from repro.engine.cache import ResultCache, compute_code_version, hash_dataclass
from repro.workloads.generator import spec_from_reduction


def _spec(name="cache-spec", total=80, reduction=10.0):
    return spec_from_reduction(name=name, suite="test",
                               total_methods=total, reduction_percent=reduction)


def _configs():
    return AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow()


class TestKeyStability:
    def test_same_inputs_same_key(self, tmp_path):
        baseline, _ = _configs()
        first = ResultCache(tmp_path / "a")
        second = ResultCache(tmp_path / "b")
        assert (first.config_key(_spec(), baseline)
                == second.config_key(_spec(), baseline))

    def test_key_is_filesystem_safe_hex(self, tmp_path):
        baseline, _ = _configs()
        key = ResultCache(tmp_path).config_key(_spec(), baseline)
        assert key == key.lower()
        int(key, 16)  # raises if not hex

    def test_hash_dataclass_is_deterministic(self):
        assert hash_dataclass(_spec()) == hash_dataclass(_spec())

    def test_code_version_is_memoized_and_stable(self):
        assert compute_code_version() == compute_code_version()


class TestKeyInvalidation:
    def test_different_spec_different_key(self, tmp_path):
        baseline, _ = _configs()
        cache = ResultCache(tmp_path)
        assert (cache.config_key(_spec(total=80), baseline)
                != cache.config_key(_spec(total=81), baseline))

    def test_config_switch_changes_key(self, tmp_path):
        _, skipflow = _configs()
        cache = ResultCache(tmp_path)
        exact = cache.config_key(_spec(), skipflow)
        saturated = cache.config_key(_spec(),
                                     skipflow.with_saturation_threshold(8))
        assert exact != saturated

    def test_configs_cached_independently(self, tmp_path):
        """The two halves of one comparison have distinct keys."""
        baseline, skipflow = _configs()
        cache = ResultCache(tmp_path)
        assert (cache.config_key(_spec(), baseline)
                != cache.config_key(_spec(), skipflow))

    def test_code_version_changes_key(self, tmp_path):
        baseline, _ = _configs()
        old = ResultCache(tmp_path, code_version="aaaa")
        new = ResultCache(tmp_path, code_version="bbbb")
        assert (old.config_key(_spec(), baseline)
                != new.config_key(_spec(), baseline))


class TestPinnedKeys:
    #: Keys under code version "pinned".  They move only when the spec or
    #: config dataclasses or the hashing change; each such move turns every
    #: existing cache entry into a miss, so it must be a deliberate one.
    PINNED = (
        (AnalysisConfig.baseline_pta(), "bca10eba57413506da0bc67d757a66e3"),
        (AnalysisConfig.skipflow(), "2ec9c0ee80384d3edd75a02d87197954"),
        (AnalysisConfig.skipflow().with_saturation_policy("allocated-type", 16),
         "356e2f7db44ada50990c8cafc76e6bbc"),
    )

    def test_keys_are_byte_for_byte_pinned(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="pinned")
        for config, key in self.PINNED:
            assert cache.config_key(_spec(), config) == key

    def test_store_backed_half_is_served_from_a_generated_halfs_entry(
            self, tmp_path):
        """The store (and so the kernel that runs) is not part of the key."""
        from repro.engine import ProgramStore, run_config_matrix
        from repro.engine.runner import _WORKER_PROGRAMS

        skipflow = AnalysisConfig.skipflow()
        _WORKER_PROGRAMS.clear()
        first = run_config_matrix([_spec()], [skipflow],
                                  cache=ResultCache(tmp_path / "cache"))
        cache = ResultCache(tmp_path / "cache")
        second = run_config_matrix(
            [_spec()], [skipflow], cache=cache,
            program_store=ProgramStore(tmp_path / "store"))
        _WORKER_PROGRAMS.clear()
        assert (cache.hits, cache.misses) == (1, 0)
        assert second[0].from_cache
        assert (second[0].runs[0].report.metrics
                == first[0].runs[0].report.metrics)


class TestEntries:
    def test_put_get_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("deadbeef") is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put("deadbeef", {"value": 42})
        assert cache.get("deadbeef") == {"value": 42}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_contains_does_not_touch_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert not cache.contains("deadbeef")
        cache.put("deadbeef", {})
        assert cache.contains("deadbeef")
        assert (cache.hits, cache.misses) == (0, 0)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("deadbeef").write_text("{not json")
        assert cache.get("deadbeef") is None
        assert cache.misses == 1

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa", {})
        cache.put("bb", {})
        assert cache.clear() == 2
        assert not cache.contains("aa")

    def test_entry_filenames_carry_the_code_version(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="cafe")
        assert cache.path_for("deadbeef").name == "cafe-deadbeef.json"
