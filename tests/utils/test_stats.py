"""Tests for the analytic unique-count estimator, including agreement
with Monte-Carlo simulation of the actual generator law."""

import numpy as np
import pytest

from repro.utils.stats import expected_unique_zipf


class TestExpectedUniqueZipf:
    def test_zero_draws(self):
        assert expected_unique_zipf(0, 100) == 0.0

    def test_below_draw_count_and_key_space(self):
        u = expected_unique_zipf(10_000, 1_000_000)
        assert 0 < u <= 10_000

    def test_monotone_in_key_space(self):
        a = expected_unique_zipf(1e6, 1e7)
        b = expected_unique_zipf(1e6, 1e9)
        assert b > a  # bigger key space -> less dedup

    def test_heavier_skew_fewer_uniques(self):
        mild = expected_unique_zipf(1e6, 1e8, exponent=1.01)
        heavy = expected_unique_zipf(1e6, 1e8, exponent=1.5)
        assert heavy < mild

    def test_small_key_space_exact_branch(self):
        # key_space < n_buckets exercises the exact enumeration path.
        u = expected_unique_zipf(1e6, 100, exponent=1.05)
        assert u == pytest.approx(100.0, rel=1e-3)

    def test_matches_monte_carlo_zipf(self):
        # Sample via the same inverse-CDF approximation as the generator.
        rng = np.random.default_rng(1)
        k, n, a = 50_000, 20_000, 1.3
        sims = []
        for _ in range(10):
            u = rng.random(n)
            ranks = np.minimum(
                k - 1, np.floor(np.clip(u, 1e-12, None) ** (-1.0 / (a - 1.0)))
            ).astype(np.int64)
            sims.append(np.unique(ranks).size)
        est = expected_unique_zipf(n, k, exponent=a)
        # The generator's truncated power-law differs slightly from the
        # exact Zipf pmf; agreement within ~15% is what we rely on.
        assert est == pytest.approx(np.mean(sims), rel=0.15)
