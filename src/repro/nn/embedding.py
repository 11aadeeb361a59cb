"""Sparse embedding layer.

Maps each example's sparse feature ids to embedding vectors pulled from the
parameter server and pools them per slot (sum pooling), producing the dense
input of the MLP tower (paper Figure 1).  The layer itself is stateless —
embedding values live in the PS; this module only does the gather/pool
forward and the scatter/accumulate backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.batching import Batch
from repro.errors import TierStateError
from repro.nn.layers import Workspace
from repro.utils.keys import as_keys

__all__ = ["EmbeddingLayer", "EmbeddingGradient"]


def _scatter_add(
    idx: np.ndarray, vals: np.ndarray, n_bins: int, dim: int
) -> np.ndarray:
    """``out[idx[i]] += vals[i]`` via one :func:`numpy.bincount` per column.

    Bit-identical to ``np.add.at(out, idx, vals)``: both accumulate
    sequentially in input order, so every bin sees the same additions in
    the same order and rounds identically — ``bincount`` just does it
    without the per-element buffered-ufunc dispatch.
    """
    out = np.empty((n_bins, dim), dtype=np.float64)
    for d in range(dim):
        out[:, d] = np.bincount(idx, weights=vals[:, d], minlength=n_bins)
    return out


@dataclass(frozen=True)
class EmbeddingGradient:
    """Sparse gradient: one row of ``grads`` per key in ``keys``."""

    keys: np.ndarray
    grads: np.ndarray

    def __post_init__(self) -> None:
        if self.keys.shape[0] != self.grads.shape[0]:
            raise ValueError("keys/grads length mismatch")


class EmbeddingLayer:
    """Gather–pool forward and scatter–accumulate backward.

    Parameters
    ----------
    n_slots:
        Number of feature slots; pooled slot embeddings are concatenated so
        the MLP input width is ``n_slots * dim``.
    dim:
        Embedding dimension per key.
    """

    def __init__(self, n_slots: int, dim: int) -> None:
        if n_slots <= 0 or dim <= 0:
            raise ValueError("n_slots and dim must be positive")
        self.n_slots = n_slots
        self.dim = dim
        self._cache: tuple | None = None
        self._gathered = Workspace()
        self._pooled = Workspace()

    @property
    def out_dim(self) -> int:
        return self.n_slots * self.dim

    # ------------------------------------------------------------------
    def _slot_of_positions(
        self, batch: Batch
    ) -> tuple[np.ndarray | None, int, int]:
        """``(bins, per_slot, n_examples)`` of the batch's flat keys.

        Rows must have a length divisible by ``n_slots`` (the generator's
        slot-major layout); slot of position ``j`` within a row of length
        ``L`` is ``j // (L / n_slots)``.  Uniform non-empty rows (the
        generator's layout) need no index at all: flat position ``p``
        pools into bin ``p // per_slot``, so ``bins`` is None and
        ``per_slot`` = ``L / n_slots``.  Otherwise ``per_slot`` is 0 and
        ``bins[p]`` = ``row * n_slots + slot``.
        """
        lengths = batch.row_lengths()
        if np.any(lengths % self.n_slots):
            raise ValueError(
                "every example's nonzero count must be divisible by n_slots"
            )
        n = batch.n_examples
        if n and lengths[0] and lengths.min() == lengths.max():
            return None, int(lengths[0]) // self.n_slots, n
        rows = np.repeat(np.arange(n), lengths)
        pos_in_row = np.arange(batch.n_nonzeros) - np.repeat(
            batch.offsets[:-1], lengths
        )
        ids_per_slot = np.repeat(lengths // self.n_slots, lengths)
        slots = pos_in_row // np.maximum(ids_per_slot, 1)
        return rows * self.n_slots + slots, 0, n

    def forward(
        self,
        batch: Batch,
        unique_keys: np.ndarray,
        emb_values: np.ndarray,
        *,
        flat_idx: np.ndarray | None = None,
        training: bool = True,
    ) -> np.ndarray:
        """Pooled embedding features, shape ``(n_examples, n_slots * dim)``.

        Parameters
        ----------
        batch:
            The examples.
        unique_keys:
            **Sorted** unique keys covering every key in ``batch``.
        emb_values:
            ``(len(unique_keys), dim)`` embedding table rows.
        flat_idx:
            Optional precomputed positions of ``batch.keys`` inside
            ``unique_keys`` (the plan builder's ``MinibatchPlan.emb_idx``,
            or the inverse of the dedup that produced ``unique_keys``);
            skips the per-minibatch ``searchsorted`` and its validation.
        training:
            Record the gather for :meth:`backward` and pool into the
            layer's workspace (the result is overwritten by the next
            training forward); ``False`` touches neither.
        """
        unique_keys = as_keys(unique_keys)
        if emb_values.shape != (unique_keys.size, self.dim):
            raise ValueError("emb_values shape mismatch")
        if flat_idx is None:
            flat_idx = unique_keys.searchsorted(batch.keys)
            if flat_idx.size and (
                flat_idx.max() >= unique_keys.size
                or np.any(unique_keys[flat_idx] != batch.keys)
            ):
                raise KeyError("batch references keys missing from unique_keys")
        bins, per_slot, n = self._slot_of_positions(batch)
        n_bins = n * self.n_slots
        gathered = out = None
        if training:
            self._cache = (flat_idx, bins, per_slot, unique_keys.size)
            gathered = self._gathered.rows(
                (flat_idx.size, self.dim), emb_values.dtype
            )
        gathered = np.take(emb_values, flat_idx, axis=0, out=gathered)
        if not per_slot:
            return _scatter_add(bins, gathered, n_bins, self.dim).reshape(
                n, self.out_dim
            )
        # Uniform rows: every (example, slot) bin is ``per_slot``
        # consecutive gathered rows, so pooling is ``0.0 + g[0] + g[1] +
        # ...`` per bin — bincount's accumulation order exactly.
        if training:
            out = self._pooled.rows((n_bins, self.dim))
        g3 = gathered.reshape(n_bins, per_slot, self.dim)
        out = np.add(g3[:, 0], 0.0, out=out, dtype=np.float64)
        for j in range(1, per_slot):
            out += g3[:, j]
        return out.reshape(n, self.out_dim)

    def backward(
        self, grad_features: np.ndarray, unique_keys: np.ndarray
    ) -> EmbeddingGradient:
        """Scatter the feature gradient back onto the unique keys."""
        if self._cache is None:
            raise TierStateError("backward called before forward")
        flat_idx, bins, per_slot, n_unique = self._cache
        if n_unique != unique_keys.shape[0]:
            raise ValueError("unique_keys changed between forward and backward")
        g2 = grad_features.reshape(-1, self.dim)
        if per_slot:
            spread = np.repeat(g2, per_slot, axis=0)
        else:
            spread = g2[bins]
        grads = _scatter_add(flat_idx, spread, n_unique, self.dim)
        return EmbeddingGradient(as_keys(unique_keys), grads)
