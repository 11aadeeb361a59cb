"""Compact DNN trainer for the hashing study (paper Tables 1–2).

``Hash+DNN`` and ``Baseline DNN`` rows both train the standard
embedding-plus-MLP CTR network; the only difference is whether the input
batches went through :class:`~repro.hashing.op_osrp.OPOSRPHasher`.  This
trainer runs that network over in-memory batch lists with one flat
store (:class:`~repro.store.flat.FlatStore`) — no parameter-server
machinery, as in the 2015 study.
"""

from __future__ import annotations

import numpy as np

from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.nn.metrics import auc
from repro.nn.model import CTRModel, Shard
from repro.nn.optim import DenseAdagrad, SparseAdagrad
from repro.store.flat import FlatStore
from repro.utils.keys import KEY_DOMAIN_CAP, check_key_cap

__all__ = ["SimpleDNN"]

#: The study's network: embedding width and hidden-layer widths.
EMBEDDING_DIM = 8
HIDDEN_LAYERS = (32, 16)


class SimpleDNN:
    """Single-store embedding+MLP trainer over explicit batch lists.

    Hashed data has no slot structure, so ``n_slots=1`` (sum-pool all
    active features) is the default.  Keys must lie below
    :data:`~repro.utils.keys.KEY_DOMAIN_CAP`, the store index's domain.
    Both sides step with the Adagrad pair of :mod:`repro.nn.optim`.
    """

    def __init__(self, *, n_slots: int = 1, seed: int = 0) -> None:
        spec = ModelSpec(
            name="simple-dnn",
            nonzeros_per_example=1,
            n_sparse=KEY_DOMAIN_CAP,
            n_dense=sum(HIDDEN_LAYERS),
            size_gb=0.0,
            mpi_nodes=1,
            embedding_dim=EMBEDDING_DIM,
            hidden_layers=HIDDEN_LAYERS,
            n_slots=n_slots,
        )
        self.model = CTRModel(spec, seed=seed)
        self.sparse_opt = SparseAdagrad(EMBEDDING_DIM)
        self.dense_opt = DenseAdagrad()
        self.seed = seed
        self._store = FlatStore(self.sparse_opt.value_dim)

    # ------------------------------------------------------------------
    def _fetch(self, keys: np.ndarray) -> np.ndarray:
        return self._store.get_or_init(
            keys, lambda k: self.sparse_opt.init_for_keys(k, seed=self.seed)
        )

    # ------------------------------------------------------------------
    def train_batch(self, batch: Batch) -> float:
        shard = Shard.of(batch)
        keys = shard.keys
        if keys.size == 0:
            return float("nan")
        values = self._fetch(keys)
        (result,) = self.model.train_minibatch(values, [shard])
        self._store.put_batch(
            keys, self.sparse_opt.apply(values, result.sparse_grads)
        )
        self.dense_opt.step(
            self.model.mlp.parameters(),
            [g.astype(np.float32) for g in result.dense_grads],
        )
        return result.loss

    def fit(self, batches: list[Batch], *, epochs: int = 1) -> list[float]:
        """Train ``epochs`` passes over ``batches``; per-batch losses.

        Every batch's keys are checked against the store's key domain
        first, so a key past it (:class:`~repro.errors.KeyDomainError`)
        leaves the model untrained rather than half trained.
        """
        for b in batches:
            if b.keys.size:
                check_key_cap(int(b.keys.max()), "SimpleDNN.fit batch")
        losses = []
        for _ in range(epochs):
            for b in batches:
                losses.append(self.train_batch(b))
        return losses

    # ------------------------------------------------------------------
    def predict_proba(self, batch: Batch) -> np.ndarray:
        keys = batch.unique_keys()
        emb = self.sparse_opt.embedding(self._fetch(keys))
        return self.model.predict_proba(batch, keys, emb)

    def evaluate_auc(self, batch: Batch) -> float:
        return auc(batch.labels, self.predict_proba(batch))

    @property
    def n_embedding_params(self) -> int:
        """Distinct sparse features seen (Tables 1–2 size proxy)."""
        return len(self._store)
