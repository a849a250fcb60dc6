"""The seeded fuzz-case generator: determinism, validity, profile shapes."""

import random

from repro.fuzz.generator import (
    DEEP_PROFILE,
    FUZZ_GUARD_PATTERNS,
    QUICK_PROFILE,
    applicable_edit_kinds,
    generate_cases,
    get_profile,
    random_spec,
)
from repro.workloads.edits import build_edit_delta, edit_anchor
from repro.workloads.generator import generate_benchmark

import pytest


class TestDeterminism:
    def test_same_seed_same_cases(self):
        first = generate_cases(42, 8)
        second = generate_cases(42, 8)
        assert first == second

    def test_different_seeds_diverge(self):
        assert generate_cases(1, 8) != generate_cases(2, 8)

    def test_case_stream_is_prefix_stable(self):
        # Asking for more cases never changes the earlier ones.
        assert generate_cases(7, 4) == generate_cases(7, 12)[:4]


class TestSpecValidity:
    def test_every_quick_case_builds_and_edits_apply(self):
        for script in generate_cases(3, 10):
            program = generate_benchmark(script.base)
            assert len(program.methods) == script.base.expected_total_methods
            for step in script.steps:
                delta = build_edit_delta(script.base, step)
                delta.apply_to(program, require_monotone=True)

    def test_guard_patterns_exclude_never_returns(self):
        # never_returns spins forever at runtime; the oracle interprets
        # every case, so the fuzzer must not sample it.
        assert "never_returns" not in FUZZ_GUARD_PATTERNS
        rng = random.Random(0)
        for index in range(30):
            spec = random_spec(rng, QUICK_PROFILE, index)
            for module in spec.guarded_modules:
                assert module.pattern in FUZZ_GUARD_PATTERNS

    def test_edit_kinds_match_present_families(self):
        rng = random.Random(5)
        saw_plugin_kind = saw_no_plugin = False
        for index in range(40):
            spec = random_spec(rng, QUICK_PROFILE, index)
            kinds = applicable_edit_kinds(spec)
            if spec.plugins is None:
                assert "add-plugin" not in kinds
                saw_no_plugin = True
            else:
                assert "add-plugin" in kinds
                saw_plugin_kind = True
            if spec.services is None:
                assert "add-service" not in kinds
            else:
                assert "add-service" in kinds
        assert saw_plugin_kind and saw_no_plugin


class TestWideningRoots:
    def test_every_spec_may_draw_a_parameter_root(self):
        rng = random.Random(5)
        for index in range(10):
            spec = random_spec(rng, QUICK_PROFILE, index)
            assert "add-consumer" in applicable_edit_kinds(spec)

    def test_some_quick_cases_widen_a_rooted_parameter(self):
        """A consumer root, then a variant of its parameter type: the shape
        in which a resume that skips re-playing root seeds answers wrong."""
        def widens(script):
            kinds = [step.kind for step in script.steps]
            return ("add-consumer" in kinds and "add-variant"
                    in kinds[kinds.index("add-consumer") + 1:])

        assert any(widens(script) for script in generate_cases(11, 50))

    def test_the_consumer_root_takes_the_anchor_type(self):
        script = next(script for script in generate_cases(11, 50)
                      if "add-consumer" in [s.kind for s in script.steps])
        program = generate_benchmark(script.base)
        for step in script.steps:
            build_edit_delta(script.base, step).apply_to(
                program, require_monotone=True)
        (root,) = [name for name in program.entry_points
                   if name.endswith(".consume")]
        signature = program.methods[root].signature
        assert signature.is_static
        assert signature.param_types == (edit_anchor(script.base).root_class,)


class TestProfiles:
    def test_lookup(self):
        assert get_profile("quick") is QUICK_PROFILE
        assert get_profile("deep") is DEEP_PROFILE
        with pytest.raises(ValueError, match="unknown fuzz profile"):
            get_profile("nope")

    def test_deep_profile_scales_an_order_of_magnitude(self):
        quick = [s.base.expected_total_methods
                 for s in generate_cases(0, 10, QUICK_PROFILE)]
        deep = [s.base.expected_total_methods
                for s in generate_cases(0, 10, DEEP_PROFILE)]
        # The 10-100x claim, checked loosely on averages.
        assert sum(deep) / len(deep) > 5 * (sum(quick) / len(quick))
