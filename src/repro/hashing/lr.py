"""Sparse logistic regression — the paper's pre-DNN baseline model.

Binary features, one weight per feature, trained with Adagrad on the
logistic loss.  Vectorized over CSR batches via scatter-adds; the weight
vector is dense over the (scaled-down) feature space.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.nn.loss import bce_with_logits, sigmoid
from repro.nn.metrics import auc

__all__ = ["SparseLogisticRegression"]


class SparseLogisticRegression:
    """LR over binary sparse inputs (feature value is always 1)."""

    def __init__(
        self, n_features: int, *, lr: float = 0.1, eps: float = 1e-6
    ) -> None:
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.n_features = n_features
        self.lr = lr
        self.eps = eps
        self.w = np.zeros(n_features, dtype=np.float64)
        self.bias = 0.0
        self._acc = np.zeros(n_features, dtype=np.float64)
        self._acc_bias = 0.0

    # ------------------------------------------------------------------
    def decision_function(self, batch: Batch) -> np.ndarray:
        """Logits: sum of active-feature weights plus bias."""
        keys = batch.keys.astype(np.int64)
        if keys.size and keys.max() >= self.n_features:
            raise IndexError("feature id beyond n_features")
        rows = np.repeat(np.arange(batch.n_examples), batch.row_lengths())
        logits = np.full(batch.n_examples, self.bias, dtype=np.float64)
        np.add.at(logits, rows, self.w[keys])
        return logits

    def predict_proba(self, batch: Batch) -> np.ndarray:
        return sigmoid(self.decision_function(batch))

    def partial_fit(self, batch: Batch) -> float:
        """One Adagrad step on ``batch``; returns the loss."""
        logits = self.decision_function(batch)
        (loss,), _, grad_logit = bce_with_logits(logits, batch.labels)
        keys = batch.keys.astype(np.int64)
        rows = np.repeat(np.arange(batch.n_examples), batch.row_lengths())
        grad_w = np.zeros(self.n_features, dtype=np.float64)
        np.add.at(grad_w, keys, grad_logit[rows])
        grad_b = float(grad_logit.sum())
        self._acc += grad_w**2
        self._acc_bias += grad_b**2
        touched = grad_w != 0.0
        self.w[touched] -= (
            self.lr * grad_w[touched] / (np.sqrt(self._acc[touched]) + self.eps)
        )
        self.bias -= self.lr * grad_b / (np.sqrt(self._acc_bias) + self.eps)
        return loss

    def fit(self, batches: list[Batch], *, epochs: int = 1) -> list[float]:
        losses = []
        for _ in range(epochs):
            for b in batches:
                losses.append(self.partial_fit(b))
        return losses

    # ------------------------------------------------------------------
    def evaluate_auc(self, batch: Batch) -> float:
        return auc(batch.labels, self.predict_proba(batch))

    @property
    def n_nonzero_weights(self) -> int:
        """Paper Tables 1–2 '#Nonzero Weights' column."""
        return int(np.count_nonzero(self.w))
