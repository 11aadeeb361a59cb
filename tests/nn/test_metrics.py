"""Tests for AUC and log-loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.metrics import auc


class TestAUC:
    def test_perfect_ranking(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_inverted_ranking(self):
        assert auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 10_000)
        scores = rng.random(10_000)
        assert auc(labels, scores) == pytest.approx(0.5, abs=0.02)

    def test_ties_average(self):
        assert auc([0, 1], [0.5, 0.5]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([1, 1], [0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc([], [])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            auc([0, 1], [0.5])

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 500)
        labels[0], labels[1] = 0, 1
        scores = rng.normal(size=500)
        assert auc(labels, scores) == pytest.approx(
            auc(labels, np.exp(scores)), abs=1e-12
        )

    @given(
        st.lists(st.booleans(), min_size=4, max_size=60),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_pairwise_definition(self, labels, seed):
        labels = np.array(labels, dtype=float)
        if labels.sum() == 0 or labels.sum() == labels.size:
            return
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=labels.size)
        pos = scores[labels > 0.5]
        neg = scores[labels < 0.5]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert auc(labels, scores) == pytest.approx(wins / (len(pos) * len(neg)))
