"""Evaluation metrics.

AUC (area under the ROC curve) is the paper's sole quality measure — CTR
revenue is so sensitive to it that a 0.1% drop is unacceptable (Section 2).
Implemented via the Mann–Whitney U statistic with average ranks for ties,
which is exact and O(n log n).
"""

from __future__ import annotations

import numpy as np

__all__ = ["auc"]


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Exact ROC AUC.

    Parameters
    ----------
    labels:
        Binary array (0/1).
    scores:
        Real-valued predictions; higher means more likely positive.
    """
    labels = np.asarray(labels, dtype=np.float64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same shape")
    if labels.size == 0:
        raise ValueError("cannot compute AUC of empty arrays")
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined with a single class")
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=np.float64)
    sorted_x = x[order]
    # Group boundaries of equal values.
    boundary = np.concatenate(([True], sorted_x[1:] != sorted_x[:-1]))
    group_id = np.cumsum(boundary) - 1
    first_idx = np.flatnonzero(boundary)
    counts = np.diff(np.concatenate((first_idx, [x.size])))
    avg = first_idx + (counts + 1) / 2.0  # average of 1-based positions
    ranks[order] = avg[group_id]
    return ranks
