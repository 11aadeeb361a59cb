"""The CTR prediction network (paper Figure 1).

``CTRModel`` ties the sparse embedding layer to the dense MLP tower and
exposes a ``train_minibatch`` that consumes a sync round's minibatches plus
the embedding values pulled from the parameter server, and emits each
worker's sparse gradient (one row per key of its shard) to push back —
the worker-side contract of Algorithm 1 lines 12–14.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.nn.embedding import EmbeddingLayer
from repro.nn.layers import MLP
from repro.nn.loss import bce_with_logits, sigmoid

__all__ = ["CTRModel", "MinibatchResult", "Shard"]


class Shard(NamedTuple):
    """One worker's minibatch as :meth:`CTRModel.train_minibatch` reads it."""

    batch: Batch
    #: sorted unique keys of ``batch`` — the rows of its sparse gradient
    keys: np.ndarray
    #: position in :attr:`keys` of each flat key of ``batch``
    key_idx: np.ndarray
    #: row of the value table holding each flat key's embedding
    rows: np.ndarray

    @classmethod
    def of(cls, batch: Batch) -> "Shard":
        """A shard whose value table holds its unique keys, in key order."""
        keys = batch.unique_keys()
        idx = keys.searchsorted(batch.keys)
        return cls(batch, keys, idx, idx)


@dataclass(frozen=True)
class MinibatchResult:
    """Outcome of one worker minibatch step."""

    loss: float
    #: one float64 row per key of the shard's :attr:`Shard.keys`
    sparse_grads: np.ndarray
    #: this worker's :meth:`~repro.nn.layers.MLP.gradients`
    _dense: Callable[[], list[np.ndarray]]

    @property
    def dense_grads(self) -> list[np.ndarray]:
        """``[dW, db]`` per dense layer, float64, computed on access into
        one buffer per layer of the tower: valid until the next access
        (any worker's) or the next training step."""
        return self._dense()


class CTRModel:
    """Embedding + MLP CTR network with explicit fwd/bwd plumbing.

    The sparse embedding table is *not* owned by the model — values are
    provided per step by the caller (the round array the HBM-PS stages),
    and gradients are handed back for the push.  The dense tower is owned
    locally and synchronized across workers by the all-reduce, as in
    Appendix C.4.
    """

    def __init__(self, spec: ModelSpec, *, seed: int = 0) -> None:
        self.spec = spec
        self.embedding = EmbeddingLayer(spec.n_slots, spec.embedding_dim)
        self.mlp = MLP(self.embedding.out_dim, spec.hidden_layers, seed=seed)

    # ------------------------------------------------------------------
    def forward(
        self,
        batch: Batch,
        unique_keys: np.ndarray,
        emb_values: np.ndarray,
        *,
        flat_idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """Logits for ``batch`` — a pure function of the inputs and the
        current parameters (no workspace, nothing recorded).  The tower
        streams row blocks of a multiple of 4 rows through two per-call
        buffers (see :class:`~repro.nn.layers.MLP`)."""
        feats = self.embedding.forward(
            batch, unique_keys, emb_values, flat_idx=flat_idx, training=False
        )
        return self.mlp.forward(feats, training=False)

    def predict_proba(
        self, batch: Batch, unique_keys: np.ndarray, emb_values: np.ndarray,
        *, flat_idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """Click probabilities for ``batch`` (no gradient bookkeeping).

        Memory is bounded by the row block, not the batch: beyond the
        pooled features and the ``(n,)`` result the tower holds two
        buffers of ``block × widest layer`` float64, the block being the
        largest multiple of 4 rows whose widest layer output fits
        :data:`~repro.nn.layers.INFER_BLOCK_BYTES`, and keeps nothing
        past the call.  Blocks start at multiples of 4 rows, where
        OpenBLAS computes a row independently of its neighbours, so the
        result equals a single pass over all rows bit for bit.
        """
        return sigmoid(self.forward(batch, unique_keys, emb_values, flat_idx=flat_idx))

    def train_minibatch(
        self, table: np.ndarray, shards: Sequence[Shard]
    ) -> list[MinibatchResult]:
        """One forward/backward over every (non-empty) shard at once.

        Algorithm 1 lines 12–14 for all of a sync round's workers: one
        gather from ``table`` (see :meth:`EmbeddingLayer.pool`), one pass
        through the tower, one loss, one scatter.  Each shard is still its
        own minibatch — its loss is the mean over its examples, its
        gradient is divided by its own size, its dense gradients come from
        its rows alone and its sparse gradient has one row per key of its
        ``Shard.keys`` — so a result is bit-identical to a call with that
        shard alone wherever
        the BLAS computes a row of a product independently of the rows
        around it (OpenBLAS 0.3.31 does for the workloads' towers when
        every shard's example count is a multiple of 4).  Results are
        returned in shard order; read their dense gradients one worker
        at a time, before the next call (see
        :attr:`MinibatchResult.dense_grads`).
        """
        if not shards:
            return []
        bounds = np.cumsum([0] + [s.batch.n_examples for s in shards])
        key_lo = np.cumsum([0] + [s.keys.size for s in shards])
        feats = self.embedding.pool(
            table,
            np.concatenate([s.rows for s in shards]),
            np.concatenate([s.batch.row_lengths() for s in shards]),
        )
        logits = self.mlp.forward(feats)
        losses, _, grad_logit = bce_with_logits(
            logits, np.concatenate([s.batch.labels for s in shards]), bounds
        )
        grad_feats = self.mlp.backward(grad_logit, bounds)
        sparse = self.embedding.backward(
            grad_feats,
            np.concatenate([s.key_idx + lo for s, lo in zip(shards, key_lo)]),
            int(key_lo[-1]),
        )
        return [
            MinibatchResult(loss, sparse[lo:hi], partial(self.mlp.gradients, w))
            for w, (loss, lo, hi) in enumerate(
                zip(losses, key_lo[:-1], key_lo[1:])
            )
        ]

    # ------------------------------------------------------------------
    def dense_state(self) -> list[np.ndarray]:
        return self.mlp.get_state()
