"""The CTR prediction network (paper Figure 1).

``CTRModel`` ties the sparse embedding layer to the dense MLP tower and
exposes a ``train_minibatch`` that consumes a minibatch plus the embedding
values pulled from the parameter server, and emits the sparse gradient to
push back — exactly the worker-side contract of Algorithm 1 lines 12–14.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.nn.embedding import EmbeddingGradient, EmbeddingLayer
from repro.nn.layers import MLP
from repro.nn.loss import bce_with_logits, sigmoid

__all__ = ["CTRModel", "MinibatchResult"]


@dataclass(frozen=True)
class MinibatchResult:
    """Outcome of one worker minibatch step."""

    loss: float
    probs: np.ndarray
    sparse_grad: EmbeddingGradient
    n_examples: int


class CTRModel:
    """Embedding + MLP CTR network with explicit fwd/bwd plumbing.

    The sparse embedding table is *not* owned by the model — values are
    provided per-minibatch by the caller (the HBM-PS pull), and gradients
    are handed back for the push.  The dense tower is owned locally and
    synchronized across workers by the all-reduce, as in Appendix C.4.
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
        training: bool = False,
    ) -> np.ndarray:
        """Logits for ``batch``.

        ``training=True`` records what the backward pass needs and
        computes in the layers' workspaces (see
        :class:`~repro.nn.layers.Dense`); the default is a pure function
        of the inputs and the current parameters.
        """
        feats = self.embedding.forward(
            batch, unique_keys, emb_values, flat_idx=flat_idx, training=training
        )
        return self.mlp.forward(feats, training=training)

    def predict_proba(
        self, batch: Batch, unique_keys: np.ndarray, emb_values: np.ndarray,
        *, flat_idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """Click probabilities for ``batch`` (no gradient bookkeeping)."""
        return sigmoid(self.forward(batch, unique_keys, emb_values, flat_idx=flat_idx))

    def train_minibatch(
        self,
        batch: Batch,
        unique_keys: np.ndarray,
        emb_values: np.ndarray,
        *,
        flat_idx: np.ndarray | None = None,
    ) -> MinibatchResult:
        """One forward/backward pass.

        Dense gradients are left in the layers (read via
        ``self.mlp.gradients()``); the sparse gradient is returned for the
        HBM-PS push.
        """
        logits = self.forward(
            batch, unique_keys, emb_values, flat_idx=flat_idx, training=True
        )
        loss, probs, grad_logit = bce_with_logits(logits, batch.labels)
        grad_feats = self.mlp.backward(grad_logit)
        sparse_grad = self.embedding.backward(grad_feats, unique_keys)
        return MinibatchResult(loss, probs, sparse_grad, batch.n_examples)

    # ------------------------------------------------------------------
    @property
    def n_dense_params(self) -> int:
        return self.mlp.n_params

    def dense_state(self) -> list[np.ndarray]:
        return self.mlp.get_state()

    def load_dense_state(self, state: list[np.ndarray]) -> None:
        self.mlp.set_state(state)
