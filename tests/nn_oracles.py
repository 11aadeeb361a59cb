"""Allocate-everything reference tower — test fixtures only.

The ``Dense`` / ``ReLU`` / embedding forward+backward exactly as they were
before the per-layer workspaces: every call allocates its result, the
float32 weights are cast implicitly by each matmul, and slot pooling goes
through ``np.bincount``.  ``tests/nn/test_tower_parity.py`` holds the
workspace tower to these bit for bit.
"""

from __future__ import annotations

import numpy as np


class OracleDense:
    def __init__(self, W: np.ndarray, b: np.ndarray) -> None:
        self.W = W.copy()
        self.b = b.copy()

    def forward(self, x):
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad_out):
        self.dW = self._x.T @ grad_out
        self.db = grad_out.sum(axis=0)
        return grad_out @ self.W.T


class OracleReLU:
    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out):
        return grad_out * self._mask


class OracleMLP:
    """Mirror of a :class:`repro.nn.layers.MLP`'s current parameters."""

    def __init__(self, mlp) -> None:
        dense = mlp.dense_layers()
        self.layers: list = []
        for i, layer in enumerate(dense):
            self.layers.append(OracleDense(layer.W, layer.b))
            if i < len(dense) - 1:
                self.layers.append(OracleReLU())

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x[:, 0]

    def backward(self, grad_logit):
        g = grad_logit[:, None]
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def gradients(self):
        return [
            g
            for layer in self.layers
            if isinstance(layer, OracleDense)
            for g in (layer.dW, layer.db)
        ]


def scatter_add(idx, vals, n_bins, dim):
    out = np.empty((n_bins, dim), dtype=np.float64)
    for d in range(dim):
        out[:, d] = np.bincount(idx, weights=vals[:, d], minlength=n_bins)
    return out


class OracleEmbedding:
    """Gather–pool forward / scatter backward over explicit index maps."""

    def __init__(self, n_slots: int, dim: int) -> None:
        self.n_slots = n_slots
        self.dim = dim

    def forward(self, batch, unique_keys, emb_values):
        flat_idx = unique_keys.searchsorted(batch.keys)
        lengths = batch.row_lengths()
        rows = np.repeat(np.arange(batch.n_examples), lengths)
        pos_in_row = np.arange(batch.n_nonzeros) - np.repeat(
            batch.offsets[:-1], lengths
        )
        ids_per_slot = np.repeat(lengths // self.n_slots, lengths)
        slots = (pos_in_row // np.maximum(ids_per_slot, 1)).astype(np.int64)
        n = batch.n_examples
        out = scatter_add(
            rows * self.n_slots + slots,
            emb_values[flat_idx],
            n * self.n_slots,
            self.dim,
        )
        self._cache = (flat_idx, rows, slots, unique_keys.size)
        return out.reshape(n, self.n_slots * self.dim)

    def backward(self, grad_features):
        flat_idx, rows, slots, n_unique = self._cache
        g3 = grad_features.reshape(-1, self.n_slots, self.dim)
        return scatter_add(flat_idx, g3[rows, slots], n_unique, self.dim)
