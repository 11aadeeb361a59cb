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


def _scatter_add(idx: np.ndarray, cols: np.ndarray, n_bins: int) -> np.ndarray:
    """``out[idx[p]] += cols[:, p]`` via one :func:`numpy.bincount` per row
    of ``cols`` (shape ``(dim, len(idx))``).

    Bit-identical to ``np.add.at(out, idx, cols.T)``: both accumulate
    sequentially in input order, so every bin sees the same additions in
    the same order and rounds identically — ``bincount`` just does it
    without the per-element buffered-ufunc dispatch.
    """
    out = np.empty((n_bins, cols.shape[0]), dtype=np.float64)
    for d, weights in enumerate(cols):
        out[:, d] = np.bincount(idx, weights=weights, minlength=n_bins)
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
        self._pooled = Workspace()

    @property
    def out_dim(self) -> int:
        return self.n_slots * self.dim

    # ------------------------------------------------------------------
    def _slot_of_positions(
        self, lengths: np.ndarray
    ) -> tuple[np.ndarray | None, int]:
        """``(bins, per_slot)`` of the flat keys of examples with
        ``lengths`` keys each.

        Rows must have a length divisible by ``n_slots`` (the generator's
        slot-major layout); slot of position ``j`` within a row of length
        ``L`` is ``j // (L / n_slots)``.  Uniform non-empty rows (the
        generator's layout) need no index at all: flat position ``p``
        pools into bin ``p // per_slot``, so ``bins`` is None and
        ``per_slot`` = ``L / n_slots``.  Otherwise ``per_slot`` is 0 and
        ``bins[p]`` = ``row * n_slots + slot``.
        """
        n = lengths.size
        uniform = bool(n) and lengths.min() == lengths.max()
        if np.any((lengths[:1] if uniform else lengths) % self.n_slots):
            raise ValueError(
                "every example's nonzero count must be divisible by n_slots"
            )
        if uniform and lengths[0]:
            return None, int(lengths[0]) // self.n_slots
        starts = np.cumsum(lengths) - lengths
        rows = np.repeat(np.arange(n), lengths)
        pos_in_row = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
        ids_per_slot = np.repeat(lengths // self.n_slots, lengths)
        slots = pos_in_row // np.maximum(ids_per_slot, 1)
        return rows * self.n_slots + slots, 0

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
            ``unique_keys`` (the inverse of the dedup that produced
            ``unique_keys``); skips the ``searchsorted`` and its
            validation.
        training:
            As for :meth:`pool`.
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
        return self.pool(
            emb_values, flat_idx, batch.row_lengths(), training=training
        )

    def pool(
        self,
        table: np.ndarray,
        rows: np.ndarray,
        lengths: np.ndarray,
        *,
        training: bool = True,
    ) -> np.ndarray:
        """Pooled features of examples with ``lengths`` flat keys each,
        whose embeddings are the first ``dim`` columns of ``table[rows]``.

        ``table`` may carry more columns (a parameter server's value rows:
        embedding, then optimizer state); the embedding columns of a row
        must be contiguous.  ``training`` records the layout for
        :meth:`backward` and pools into the layer's workspace (the result
        is overwritten by the next training pool); ``False`` touches
        neither.
        """
        bins, per_slot = self._slot_of_positions(lengths)
        n = lengths.size
        n_bins = n * self.n_slots
        if training:
            self._cache = (bins, per_slot)
        # Each row's embedding as one opaque element, so a gather moves
        # just those bytes and lands them contiguously.
        emb = table[:, : self.dim]
        keyed = emb.view(np.dtype((np.void, emb.itemsize * self.dim)))[:, 0]
        if not per_slot:
            gathered = keyed[rows].view(emb.dtype).reshape(-1, self.dim)
            return _scatter_add(bins, gathered.T, n_bins).reshape(
                n, self.out_dim
            )
        # Uniform rows: every (example, slot) bin is ``per_slot``
        # consecutive flat keys, so pooling is ``0.0 + g[0] + g[1] + ...``
        # per bin — bincount's accumulation order exactly.  Gathered
        # slot-major, each ``g[j]`` is one contiguous block.
        by_slot = np.ascontiguousarray(rows.reshape(n_bins, per_slot).T)
        g = keyed[by_slot].view(emb.dtype).reshape(per_slot, -1)
        out = self._pooled.rows((g.shape[1],)) if training else None
        out = np.add(g[0], 0.0, out=out, dtype=np.float64)
        for j in range(1, per_slot):
            out += g[j]
        return out.reshape(n, self.out_dim)

    def backward(
        self, grad_features: np.ndarray, key_idx: np.ndarray, n_keys: int
    ) -> np.ndarray:
        """The feature gradient scattered back onto the keys.

        Returns ``(n_keys, dim)`` float64: row ``k`` sums, in flat
        position order, the gradient of every flat key of the last
        training pool with ``key_idx[p] == k``.
        """
        if self._cache is None:
            raise TierStateError("backward called before forward")
        bins, per_slot = self._cache
        g2 = grad_features.reshape(-1, self.dim)
        if per_slot:
            spread = np.repeat(g2, per_slot, axis=0)
        else:
            spread = g2[bins]
        return _scatter_add(key_idx, spread.T, n_keys)
