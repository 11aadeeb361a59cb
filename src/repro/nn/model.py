"""The CTR prediction network (paper Figure 1).

``CTRModel`` ties the sparse embedding layer to the dense MLP tower and
exposes a ``train_minibatch`` that consumes a sync round's minibatches plus
the embedding values pulled from the parameter server, and emits each
worker's sparse gradient to push back — the worker-side contract of
Algorithm 1 lines 12–14.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.nn.embedding import EmbeddingGradient, EmbeddingLayer
from repro.nn.layers import MLP
from repro.nn.loss import bce_with_logits, sigmoid
from repro.utils.keys import as_keys

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
    sparse_grad: EmbeddingGradient
    #: ``[dW, db]`` per dense layer, float64 — views of the tower's
    #: workspaces, overwritten by the next training step
    dense_grads: list[np.ndarray]
    n_examples: int


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
        current parameters (no workspace, nothing recorded)."""
        feats = self.embedding.forward(
            batch, unique_keys, emb_values, flat_idx=flat_idx, training=False
        )
        return self.mlp.forward(feats, training=False)

    def predict_proba(
        self, batch: Batch, unique_keys: np.ndarray, emb_values: np.ndarray,
        *, flat_idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """Click probabilities for ``batch`` (no gradient bookkeeping)."""
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
        its rows alone and its sparse gradient covers its own keys — so a
        result is bit-identical to a call with that shard alone wherever
        the BLAS computes a row of a product independently of the rows
        around it (OpenBLAS 0.3.31 does for the workloads' towers when
        every shard's example count is a multiple of 4).  Results are
        returned in shard order; their dense gradients are workspace
        views, overwritten by the next call.
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
            MinibatchResult(
                loss,
                EmbeddingGradient(as_keys(s.keys), sparse[lo:hi]),
                self.mlp.gradients(w),
                s.batch.n_examples,
            )
            for w, (s, loss, lo, hi) in enumerate(
                zip(shards, losses, key_lo[:-1], key_lo[1:])
            )
        ]

    # ------------------------------------------------------------------
    @property
    def n_dense_params(self) -> int:
        return self.mlp.n_params

    def dense_state(self) -> list[np.ndarray]:
        return self.mlp.get_state()

    def load_dense_state(self, state: list[np.ndarray]) -> None:
        self.mlp.set_state(state)
