"""Tests for deterministic RNG derivation."""

import numpy as np
import pytest

from repro.utils.rng import derive_seed, make_rng, spawn


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_tag_order_matters(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")

    def test_different_seeds_differ(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_int_vs_string_tags_differ(self):
        assert derive_seed(0, 1) != derive_seed(0, "1")

    def test_result_is_valid_seed(self):
        s = derive_seed(123, "component", 5)
        assert 0 <= s < 2**31

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_a_value_error_naming_it(self, seed):
        with pytest.raises(ValueError, match=f"seed {seed} is outside"):
            derive_seed(seed, "x")

    def test_largest_seed_is_accepted(self):
        assert 0 <= derive_seed(2**64 - 1, "x") < 2**31


class TestSpawn:
    def test_spawned_streams_reproducible(self):
        a = spawn(7, "gen").normal(size=10)
        b = spawn(7, "gen").normal(size=10)
        assert np.array_equal(a, b)

    def test_spawned_streams_independent(self):
        a = spawn(7, "gen", 0).normal(size=10)
        b = spawn(7, "gen", 1).normal(size=10)
        assert not np.array_equal(a, b)


def test_make_rng_none_is_nondeterministic_type():
    assert isinstance(make_rng(None), np.random.Generator)
