"""Seed -> draw determinism of the workload pools."""

from collections import Counter
from itertools import islice

from bench import pools


def _names(passes, count=3):
    return [[spec.name for spec in order] for order in islice(passes, count)]


def test_same_seed_same_passes():
    first = _names(pools.seeded_passes(pools.image_pool(), 7, "image-fresh"))
    again = _names(pools.seeded_passes(pools.image_pool(), 7, "image-fresh"))
    assert first == again


def test_seeds_and_salts_reorder():
    base = _names(pools.seeded_passes(pools.image_pool(), 7, "image-fresh"))
    assert base != _names(pools.seeded_passes(pools.image_pool(), 8, "image-fresh"))
    assert base != _names(pools.seeded_passes(pools.image_pool(), 7, "other"))


def test_every_pass_is_the_whole_pool():
    pool = pools.matrix_halves()
    expected = Counter((spec.name, label) for spec, label in pool)
    for order in islice(pools.seeded_passes(pool, 3, "matrix-store"), 4):
        assert Counter((spec.name, label) for spec, label in order) == expected


def test_pool_sizes():
    assert len(pools.image_pool()) == 35
    assert len(pools.matrix_pool()) == 43
    assert len(pools.matrix_halves()) == 35 * 2 + 8 * 3
    assert len(pools.daemon_pool()) == 12
    assert [step["index"] for step in pools.edit_steps()] == list(range(pools.EDIT_ROUNDS))
