"""Analytic workload statistics.

The paper-scale timing reproduction needs the expected number of *unique*
parameters referenced by a batch — the "working parameters" of Algorithm 1
— without materializing 10^11-key batches.  For draws from a Zipf
popularity law this is

    E[U] = sum_r (1 - (1 - p_r)^n)

which we evaluate with log-spaced rank bucketing (exact at the bucket
representative, |error| < 1% for the smooth Zipf pmf).
"""

from __future__ import annotations

import numpy as np

__all__ = ["expected_unique_zipf"]


def _zipf_bucket_pmf(
    key_space: float, exponent: float, n_buckets: int = 4096
) -> tuple[np.ndarray, np.ndarray]:
    """(bucket sizes, representative probability per key in bucket)."""
    if key_space < n_buckets:
        ranks = np.arange(1.0, key_space + 1.0)
        p = ranks ** (-exponent)
        return np.ones_like(ranks), p / p.sum()
    edges = np.unique(
        np.round(np.logspace(0, np.log10(key_space), n_buckets + 1)).astype(np.int64)
    )
    sizes = np.diff(edges).astype(np.float64)
    mids = np.sqrt(edges[:-1].astype(np.float64) * edges[1:].astype(np.float64))
    p_unnorm = mids ** (-exponent)
    total = float((sizes * p_unnorm).sum())
    return sizes, p_unnorm / total


def expected_unique_zipf(
    n_draws: float, key_space: float, exponent: float = 1.05
) -> float:
    """E[#unique] for ``n_draws`` Zipf(``exponent``) draws over ``key_space``.

    Matches the empirical unique counts of
    :class:`~repro.data.generator.CTRDataGenerator` (same popularity law).
    """
    if n_draws < 0 or key_space <= 0:
        raise ValueError("invalid arguments")
    if n_draws == 0:
        return 0.0
    sizes, p = _zipf_bucket_pmf(key_space, exponent)
    # 1 - (1-p)^n per key, stably: -expm1(n * log1p(-p)).
    per_key = -np.expm1(n_draws * np.log1p(-np.minimum(p, 1 - 1e-12)))
    return float((sizes * per_key).sum())
