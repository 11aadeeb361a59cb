""":class:`ReferenceTrainer` is the "MPI-semantics" single-store trainer: the
same model, data order, gradient math, and optimizer applied against one
flat in-memory parameter store.  Because the hierarchical cluster
synchronizes after *every* mini-batch (no staleness), the two must produce
the same model up to floating-point reduction order — this is the paper's
Fig. 3(b) losslessness claim, verified exactly in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.config import ClusterConfig, ModelSpec, check_count
from repro.data.batching import Batch
from repro.data.generator import CTRDataGenerator
from repro.nn.metrics import auc
from repro.nn.model import CTRModel, Shard
from repro.nn.optim import DenseAdagrad, SparseAdagrad
from repro.store.flat import FlatStore
from repro.utils.keys import as_keys, check_key_cap, compact_unique
from repro.utils.rng import derive_seed

__all__ = ["ReferenceTrainer"]


class ReferenceTrainer:
    """Single-store data-parallel trainer with identical semantics.

    Replays the cluster's exact global schedule — per round, every
    (node, GPU) mini-batch contributes a gradient; per-node sparse
    contributions are first reduced in float32 (as the HBM gradient
    buffer does), then summed across nodes in float64 (as the all-reduce
    does), while dense gradients accumulate in float32 end to end (as the
    cluster's reused buffers do) — against one flat batch-first parameter
    store (:class:`~repro.store.flat.FlatStore`).
    """

    def __init__(
        self,
        model_spec: ModelSpec,
        cluster_config: ClusterConfig,
        *,
        functional_batch_size: int = 4096,
    ) -> None:
        self.batch_size = check_count(
            "functional_batch_size", functional_batch_size
        )
        check_key_cap(
            model_spec.n_sparse - 1,
            f"model {model_spec.name!r} (n_sparse={model_spec.n_sparse})",
        )
        self.config = cluster_config
        self.optimizer = SparseAdagrad(model_spec.embedding_dim)
        self.generator = CTRDataGenerator(model_spec, seed=cluster_config.seed)
        self.model = CTRModel(
            model_spec, seed=derive_seed(cluster_config.seed, "dense")
        )
        self.dense_optimizer = DenseAdagrad()
        self._store = FlatStore(self.optimizer.value_dim)
        self._init_seed = cluster_config.seed
        self.rounds_completed = 0

    # ------------------------------------------------------------------
    def _fetch(self, keys: np.ndarray) -> np.ndarray:
        return self._store.get_or_init(
            keys, lambda k: self.optimizer.init_for_keys(k, seed=self._init_seed)
        )

    def _apply(self, keys: np.ndarray, grads: np.ndarray) -> None:
        values = self._fetch(keys)
        new_values = self.optimizer.apply(values, grads)
        self._store.put_batch(keys, new_values)

    # ------------------------------------------------------------------
    def train_round(self) -> float:
        """One global round; returns the mean mini-batch loss."""
        r = self.rounds_completed
        cfg = self.config
        n_gpus = cfg.gpus_per_node
        batches = [
            self.generator.batch(r * cfg.n_nodes + i, self.batch_size)
            for i in range(cfg.n_nodes)
        ]
        shards = [b.shard(n_gpus * cfg.minibatches_per_gpu) for b in batches]
        losses = []
        for m in range(cfg.minibatches_per_gpu):
            # Per-node float32 gradient buffers, merged in float64 for the
            # sparse side; dense gradients accumulate in float32 end to
            # end, mirroring the cluster's reused DenseGradAccumulator.
            global_keys: np.ndarray | None = None
            global_grads: np.ndarray | None = None
            dense_sum: list[np.ndarray] | None = None
            for node_shards in shards:
                # Per-node float32 gradient buffer: keys/grads of every
                # GPU's mini-batch, merged by key in arrival order (the
                # HBM buffer's accumulation order, kept bit-exact by
                # ``np.add.at``'s unbuffered left-to-right semantics).
                gpu_keys: list[np.ndarray] = []
                gpu_grads: list[np.ndarray] = []
                dense_acc: list[np.ndarray] | None = None
                for gpu in range(n_gpus):
                    mb = node_shards[m * n_gpus + gpu]
                    if mb.n_examples == 0:
                        continue
                    shard = Shard.of(mb)
                    (result,) = self.model.train_minibatch(
                        self._fetch(shard.keys), [shard]
                    )
                    gpu_keys.append(shard.keys)
                    gpu_grads.append(result.sparse_grads.astype(np.float32))
                    losses.append(result.loss)
                    grads = result.dense_grads
                    if dense_acc is None:
                        dense_acc = [g.astype(np.float32) for g in grads]
                    else:
                        for a, g in zip(dense_acc, grads):
                            a += g
                if gpu_keys:
                    cat_keys = np.concatenate(gpu_keys)
                    cat_grads = np.concatenate(gpu_grads, axis=0)
                    nk, inv = compact_unique(cat_keys, return_inverse=True)
                    buf32 = np.zeros(
                        (nk.size, cat_grads.shape[1]), dtype=np.float32
                    )
                    np.add.at(buf32, inv, cat_grads)
                    ng = buf32.astype(np.float64)
                    if global_keys is None:
                        global_keys, global_grads = nk, ng
                    else:
                        keys = np.concatenate([global_keys, nk])
                        grads_cat = np.concatenate([global_grads, ng])
                        uniq, inv = compact_unique(keys, return_inverse=True)
                        merged = np.zeros(
                            (uniq.size, grads_cat.shape[1]), dtype=np.float64
                        )
                        np.add.at(merged, inv, grads_cat)
                        global_keys, global_grads = uniq, merged
                if dense_acc is not None:
                    if dense_sum is None:
                        dense_sum = dense_acc
                    else:
                        for a, g in zip(dense_sum, dense_acc):
                            a += g
            if global_keys is not None:
                self._apply(global_keys, global_grads)
            if dense_sum is not None:
                self.dense_optimizer.step(
                    self.model.mlp.parameters(), dense_sum
                )
        self.rounds_completed += 1
        return float(np.mean(losses)) if losses else float("nan")

    def train(self, n_rounds: int) -> list[float]:
        n_rounds = check_count("n_rounds", n_rounds, 0)
        return [self.train_round() for _ in range(n_rounds)]

    # ------------------------------------------------------------------
    def predict(self, batch: Batch) -> np.ndarray:
        keys = batch.unique_keys()
        values, found = self._store.get_batch(keys)
        miss = ~found
        if miss.any():
            # Never-seen keys evaluate at their deterministic init without
            # being persisted (mirrors the cluster's read-only lookup).
            values[miss] = self.optimizer.init_for_keys(
                keys[miss], seed=self._init_seed
            )
        emb = self.optimizer.embedding(values)
        return self.model.predict_proba(batch, keys, emb)

    def evaluate_auc(self, batch: Batch) -> float:
        return auc(batch.labels, self.predict(batch))

    def embedding_of(self, keys: np.ndarray) -> np.ndarray:
        """Current embedding rows for ``keys`` (for parity tests)."""
        return self.optimizer.embedding(self._fetch(as_keys(keys)))
