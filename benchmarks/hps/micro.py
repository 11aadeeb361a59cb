"""Layer micro-kernels (``run.py --micro``): one number per inner loop a
later issue is likely to rewrite, best-of-N on keys drawn from ``--seed``.

These are per-layer numbers only — no bound, never evidence for an
end-to-end claim — and they stay out of ``BENCHMARK.json`` because the
on-disk ``FileStore`` ones are not stationary enough to gate on (their
round time moved 42-58 ms between otherwise identical runs).  Times are
raw wall clock; best-of-N already takes the quiet moments.
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro.config import ClusterConfig, ModelSpec
from repro.core.cluster import HPSCluster
from repro.hbm.allreduce import SparseUpdate, hierarchical_allreduce
from repro.mem.cache import CombinedCache
from repro.plan import build_round_plan
from repro.ssd.file_store import FileStore
from repro.store.slot_index import SlotIndex
from repro.utils.rng import spawn

__all__ = ["run_micro"]

N_KEYS = 50_000
KEY_SPACE = 10 * N_KEYS
VALUE_DIM = 8
REPS = 5


def _best_ns_per_key(setup, kernel, n_keys: int, reps: int = REPS) -> float:
    """Best of ``reps`` runs of ``kernel(setup())``, in ns per key."""
    best = float("inf")
    for _ in range(reps):
        state = setup()
        t0 = time.perf_counter()
        kernel(state)
        best = min(best, time.perf_counter() - t0)
    return 1e9 * best / n_keys


def run_micro(seed: int, scratch: str) -> int:
    rng = spawn(seed, "hps-micro")
    keys = np.sort(
        rng.choice(KEY_SPACE, size=N_KEYS, replace=False).astype(np.uint64)
    )
    probe = rng.permutation(keys)
    values = rng.random((N_KEYS, VALUE_DIM), dtype=np.float32)
    results: dict[str, float] = {}

    # ---- store: SlotIndex probe and hinted install ----------------------
    def filled_index() -> SlotIndex:
        index = SlotIndex(N_KEYS)
        index.set(keys, np.arange(N_KEYS, dtype=np.int64))
        return index

    results["store.slotindex_locate_ns_per_key"] = _best_ns_per_key(
        filled_index, lambda index: index.locate(probe), N_KEYS
    )

    def located_empty():
        index = SlotIndex(N_KEYS)
        _, _, slots = index.locate(keys)
        return index, slots

    results["store.slotindex_install_ns_per_key"] = _best_ns_per_key(
        located_empty,
        lambda s: s[0].install(keys, np.arange(N_KEYS, dtype=np.int64), s[1]),
        N_KEYS,
    )

    # ---- mem: combined cache hit path and overflowing admission ---------
    def warm_cache() -> CombinedCache:
        cache = CombinedCache(N_KEYS * 2, value_dim=VALUE_DIM)
        cache.put_batch(keys, values, assume_unique=True)
        return cache

    results["mem.cache_get_ns_per_key"] = _best_ns_per_key(
        warm_cache, lambda cache: cache.get_batch(probe, assume_unique=True), N_KEYS
    )

    def full_cache() -> CombinedCache:
        cache = CombinedCache(N_KEYS // 2, value_dim=VALUE_DIM)
        half = N_KEYS // 2
        cache.put_batch(keys[:half], values[:half], assume_unique=True)
        return cache

    results["mem.cache_put_overflow_ns_per_key"] = _best_ns_per_key(
        full_cache,
        lambda cache: cache.put_batch(
            keys[N_KEYS // 2 :], values[N_KEYS // 2 :], assume_unique=True
        ),
        N_KEYS // 2,
    )

    # ---- ssd: FileStore grouped read, in memory and on disk -------------
    def written_store() -> FileStore:
        store = FileStore(VALUE_DIM, 256)
        store.write(keys, values)
        return store

    results["ssd.filestore_read_ns_per_key"] = _best_ns_per_key(
        written_store, lambda store: store.read(probe), N_KEYS
    )
    n_disk = N_KEYS // 5  # one fsync per 256-key file: keep it short
    results["ssd.filestore_disk_write_ns_per_key"] = _best_ns_per_key(
        lambda: FileStore(VALUE_DIM, 256, directory=tempfile.mkdtemp(dir=scratch)),
        lambda store: store.write(keys[:n_disk], values[:n_disk]),
        n_disk,
        reps=3,
    )

    def disk_store() -> FileStore:
        store = FileStore(VALUE_DIM, 256, directory=tempfile.mkdtemp(dir=scratch))
        store.write(keys[:n_disk], values[:n_disk])
        return store

    disk_probe = rng.permutation(keys[:n_disk])
    results["ssd.filestore_disk_read_ns_per_key"] = _best_ns_per_key(
        disk_store, lambda store: store.read(disk_probe), n_disk, reps=3
    )

    # ---- plan: one round's key plan for a 2-node x 2-GPU cluster --------
    spec = ModelSpec(
        name="micro", nonzeros_per_example=8, n_sparse=100_000, n_dense=1_000,
        size_gb=0.01, mpi_nodes=1, embedding_dim=4, hidden_layers=(16, 8),
        n_slots=4,
    )
    config = ClusterConfig(
        n_nodes=2, gpus_per_node=2, minibatches_per_gpu=2,
        mem_capacity_params=50_000, hbm_capacity_params=100_000,
        ssd_file_capacity=256, prefetch=True, seed=seed,
    )
    cluster = HPSCluster(spec, config, functional_batch_size=4096)
    batches = [cluster.generator.batch(i, 4096) for i in range(2)]
    plan_keys = sum(b.unique_keys().size for b in batches)
    results["plan.build_ns_per_key"] = _best_ns_per_key(
        lambda: None,
        lambda _: build_round_plan(
            batches,
            node_partitioner=cluster.nodes[0].mem_ps.partitioner,
            gpu_partitioner=cluster.nodes[0].hbm_ps.params.partitioner,
            n_gpus=2,
            mb_rounds=2,
            prefetch=True,
        ),
        plan_keys,
    )

    # ---- hbm: 4-node sparse allreduce (sort-merge tree) -----------------
    updates = []
    for _ in range(4):
        k = np.sort(
            rng.choice(KEY_SPACE, size=N_KEYS // 4, replace=False).astype(np.uint64)
        )
        updates.append(
            SparseUpdate(k, rng.random((k.size, VALUE_DIM)).astype(np.float64))
        )
    results["hbm.allreduce_ns_per_key"] = _best_ns_per_key(
        lambda: None,
        lambda _: hierarchical_allreduce(updates, gpus_per_node=2),
        sum(u.n_keys for u in updates),
    )

    for name, value in results.items():
        print(f"{name:40s} {value:12.2f} ns/key")
    return 0
