"""Compact DNN trainer for the hashing study (paper Tables 1–2).

``Hash+DNN`` and ``Baseline DNN`` rows both train the standard
embedding-plus-MLP CTR network; the only difference is whether the input
batches went through :class:`~repro.hashing.op_osrp.OPOSRPHasher`.  This
trainer runs that network over in-memory batch lists with a flat
dictionary store — no parameter-server machinery, as in the 2015 study.
"""

from __future__ import annotations

import numpy as np

from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.nn.metrics import auc
from repro.nn.model import CTRModel, Shard
from repro.nn.optim import DenseAdagrad, SparseAdagrad
from repro.utils.keys import as_keys

__all__ = ["SimpleDNN"]


class SimpleDNN:
    """Single-store embedding+MLP trainer over explicit batch lists.

    Hashed data has no slot structure, so ``n_slots=1`` (sum-pool all
    active features) is the default.
    """

    def __init__(
        self,
        embedding_dim: int = 8,
        hidden_layers: tuple[int, ...] = (32, 16),
        *,
        n_slots: int = 1,
        lr: float = 0.05,
        seed: int = 0,
    ) -> None:
        spec = ModelSpec(
            name="simple-dnn",
            nonzeros_per_example=1,
            n_sparse=2**62,
            n_dense=sum(hidden_layers),
            size_gb=0.0,
            mpi_nodes=1,
            embedding_dim=embedding_dim,
            hidden_layers=hidden_layers,
            n_slots=n_slots,
        )
        self.model = CTRModel(spec, seed=seed)
        self.sparse_opt = SparseAdagrad(embedding_dim, lr=lr)
        self.dense_opt = DenseAdagrad(lr=lr)
        self.seed = seed
        self._store: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _fetch(self, keys: np.ndarray) -> np.ndarray:
        keys = as_keys(keys)
        out = np.zeros((keys.size, self.sparse_opt.value_dim), dtype=np.float32)
        miss = [i for i, k in enumerate(keys) if int(k) not in self._store]
        for i, k in enumerate(keys):
            v = self._store.get(int(k))
            if v is not None:
                out[i] = v
        if miss:
            idx = np.asarray(miss)
            fresh = self.sparse_opt.init_for_keys(keys[idx], seed=self.seed)
            out[idx] = fresh
            for j, i in enumerate(idx):
                self._store[int(keys[i])] = fresh[j].copy()
        return out

    def _pad_rows(self, batch: Batch) -> Batch:
        """Hashed rows can be empty (all z=0); embedding pooling handles
        empty rows only when lengths divide n_slots — with n_slots=1 any
        length including 0 is fine, so no padding is needed."""
        return batch

    # ------------------------------------------------------------------
    def train_batch(self, batch: Batch) -> float:
        shard = Shard.of(batch)
        keys = shard.keys
        if keys.size == 0:
            return float("nan")
        values = self._fetch(keys)
        (result,) = self.model.train_minibatch(values, [shard])
        new_values = self.sparse_opt.apply(
            values, result.sparse_grad.grads
        )
        for i, k in enumerate(keys):
            self._store[int(k)] = new_values[i]
        self.dense_opt.step(
            self.model.mlp.parameters(),
            [g.astype(np.float32) for g in result.dense_grads],
        )
        return result.loss

    def fit(self, batches: list[Batch], *, epochs: int = 1) -> list[float]:
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
