"""Multi-GPU distributed hash table (paper Section 4.1, Algorithm 2).

One node's working parameters are partitioned *non-overlapping* across the
node's GPUs; each GPU owns a local :class:`~repro.hbm.hash_table.HashTable`.
Workers address the whole node's table through this facade — ``get`` pulls
remote partitions over NVLink, ``accumulate`` routes deltas to their owning
GPU (Algorithm 2), ``insert`` scatters a fresh working set.

Timing: every cross-GPU movement is charged to the NVLink model and every
table touch to the owning GPU's hash-table cost model.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.gpu import GPUDevice, NVLink
from repro.hardware.ledger import CostLedger
from repro.hardware.specs import GPUSpec, NVLinkSpec
from repro.hbm.hash_table import HashTable
from repro.hbm.partition import ModuloPartitioner, bucket_order
from repro.utils.keys import KEY_DTYPE, all_unique, as_keys

__all__ = ["DistributedHashTable", "GPUFabric"]

_GPU_SALT = 0x67707573  # "gpus" — distinct from the node-level salt


class GPUFabric:
    """One node's GPUs as a sharded key space: who owns a key, what a
    table op on that GPU costs, and the NVLink between them.

    This is everything the simulated cost model charges against.  The
    :class:`DistributedHashTable` adds per-GPU storage on top; the
    HBM-PS, which stages its working set densely, uses the fabric alone.
    """

    def __init__(
        self,
        n_gpus: int,
        value_dim: int,
        *,
        gpu_spec: GPUSpec | None = None,
        nvlink_spec: NVLinkSpec | None = None,
        ledger: CostLedger | None = None,
    ) -> None:
        if n_gpus <= 0:
            raise ValueError("n_gpus must be positive")
        self.n_gpus = n_gpus
        self.value_dim = value_dim
        self.ledger = ledger if ledger is not None else CostLedger()
        self.partitioner = ModuloPartitioner(n_gpus, salt=_GPU_SALT)
        self.devices = [
            GPUDevice(gpu_spec or GPUSpec(), self.ledger) for _ in range(n_gpus)
        ]
        self.nvlink = NVLink(nvlink_spec or NVLinkSpec(), self.ledger)


class DistributedHashTable(GPUFabric):
    """Node-local distributed key→value store across ``n_gpus`` tables."""

    def __init__(
        self,
        n_gpus: int,
        capacity_per_gpu: int,
        value_dim: int,
        *,
        gpu_spec: GPUSpec | None = None,
        nvlink_spec: NVLinkSpec | None = None,
        ledger: CostLedger | None = None,
    ) -> None:
        super().__init__(
            n_gpus,
            value_dim,
            gpu_spec=gpu_spec,
            nvlink_spec=nvlink_spec,
            ledger=ledger,
        )
        self.tables = [
            HashTable(capacity_per_gpu, value_dim) for _ in range(n_gpus)
        ]

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return sum(t.size for t in self.tables)

    def _value_bytes(self) -> int:
        return 4 * self.value_dim

    def _dispatch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shard dispatch as index arrays: one hash + one stable sort.

        Returns ``(order, bounds)`` where ``order[bounds[g]:bounds[g+1]]``
        are the positions of GPU ``g``'s keys (in original batch order).
        Replaces the per-GPU ``split`` copies on the hot paths — callers
        slice the index array instead of materializing per-GPU key lists.
        """
        return bucket_order(self.partitioner.part_of(keys), self.n_gpus)

    # ------------------------------------------------------------------
    def insert(self, keys: np.ndarray, values: np.ndarray) -> float:
        """Partition and insert a working set; returns simulated seconds.

        This is Algorithm 1 line 9 (``insert_into_hashtable``): the CPU has
        already staged ``(keys, values)``; each GPU ingests its partition.
        Per-GPU inserts run concurrently, so the simulated time is the max
        over GPUs, not the sum.
        """
        keys = as_keys(keys)
        values = np.asarray(values, dtype=np.float32)
        order, bounds = self._dispatch(keys)
        times = []
        for gpu in range(self.n_gpus):
            idx = order[bounds[gpu] : bounds[gpu + 1]]
            self.tables[gpu].insert(keys[idx], values[idx])
            times.append(
                self.devices[gpu].table_op(
                    idx.size, self._value_bytes(), "hbm_insert"
                )
            )
        return max(times, default=0.0)

    def get(
        self, keys: np.ndarray, *, source_gpu: int = 0
    ) -> tuple[np.ndarray, float]:
        """Values for ``keys`` as seen from ``source_gpu``.

        Local-partition keys are read straight from HBM; remote partitions
        are fetched over NVLink (paper: "it directly fetches the parameter
        from the remote GPU").  Raises ``KeyError`` on absent keys — a
        worker can only reference parameters of the staged working set.
        """
        keys = as_keys(keys)
        self._check_gpu(source_gpu)
        uniq, inv = np.unique(keys, return_inverse=True)
        order, bounds = self._dispatch(uniq)
        out = np.zeros((uniq.size, self.value_dim), dtype=np.float32)
        remote_bytes = 0
        remote_msgs = 0
        t_table = 0.0
        for gpu in range(self.n_gpus):
            idx = order[bounds[gpu] : bounds[gpu + 1]]
            if idx.size == 0:
                continue
            vals, found = self.tables[gpu].get(uniq[idx])
            if not np.all(found):
                raise KeyError(
                    f"GPU {gpu} missing {int((~found).sum())} requested keys"
                )
            out[idx] = vals
            t_table = max(
                t_table,
                self.devices[gpu].table_op(
                    idx.size, self._value_bytes(), "hbm_pull"
                ),
            )
            if gpu != source_gpu:
                remote_bytes += idx.size * (8 + self._value_bytes())
                remote_msgs += 1
        t_link = (
            self.nvlink.send(remote_bytes, n_messages=remote_msgs)
            if remote_msgs
            else 0.0
        )
        return out[inv], t_table + t_link

    def accumulate(
        self,
        keys: np.ndarray,
        deltas: np.ndarray,
        *,
        source_gpu: int = 0,
        upsert: bool = False,
    ) -> float:
        """Algorithm 2: route deltas to owning GPUs and accumulate.

        ``keys`` may repeat (several examples touching one parameter);
        owners apply the summed delta atomically.
        """
        keys = as_keys(keys)
        deltas = np.asarray(deltas, dtype=np.float32)
        if deltas.shape != (keys.size, self.value_dim):
            raise ValueError("deltas shape mismatch")
        self._check_gpu(source_gpu)
        # Line 2: parallel partition on the source GPU (index dispatch).
        order, bounds = self._dispatch(keys)
        send_bytes = 0
        send_msgs = 0
        t_table = 0.0
        for gpu in range(self.n_gpus):
            idx = order[bounds[gpu] : bounds[gpu + 1]]
            if idx.size == 0:
                continue
            # Lines 3–7: async send of non-local partitions.
            if gpu != source_gpu:
                send_bytes += idx.size * (8 + self._value_bytes())
                send_msgs += 1
            # Lines 9–12: owner applies the accumulation.
            self.tables[gpu].accumulate(keys[idx], deltas[idx], upsert=upsert)
            t_table = max(
                t_table,
                self.devices[gpu].table_op(
                    idx.size, self._value_bytes(), "hbm_push"
                ),
            )
        t_link = (
            self.nvlink.send(send_bytes, n_messages=send_msgs) if send_msgs else 0.0
        )
        return t_table + t_link

    def transform(self, keys: np.ndarray, fn) -> float:
        """Apply an optimizer transform to resident ``keys`` on their owners.

        ``keys`` must be unique — duplicates would silently last-write-win
        inside a partition, corrupting optimizer updates.
        """
        keys = as_keys(keys)
        if not all_unique(keys):
            raise ValueError("transform requires unique keys")
        parts = self.partitioner.split(keys)
        t = 0.0
        for gpu, (k,) in enumerate(parts):
            if k.size == 0:
                continue
            self.tables[gpu].transform(k, fn)
            t = max(
                t, self.devices[gpu].table_op(k.size, self._value_bytes(), "hbm_push")
            )
        return t

    # ------------------------------------------------------------------
    # ParameterStore protocol (functional surface: no NVLink/ledger
    # charges — workers account data movement through get/accumulate).
    # ------------------------------------------------------------------
    def get_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values + found mask across all GPU partitions."""
        keys = as_keys(keys)
        out = np.zeros((keys.size, self.value_dim), dtype=np.float32)
        found = np.zeros(keys.size, dtype=bool)
        order, bounds = self._dispatch(keys)
        for gpu in range(self.n_gpus):
            idx = order[bounds[gpu] : bounds[gpu + 1]]
            if idx.size == 0:
                continue
            vals, ok = self.tables[gpu].get(keys[idx])
            out[idx] = vals
            found[idx] = ok
        return out, found

    def put_batch(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Protocol face of :meth:`insert`; working-set tables never
        evict, so the flush pair is always empty."""
        self.insert(keys, values)
        return (
            np.zeros(0, dtype=KEY_DTYPE),
            np.zeros((0, self.value_dim), dtype=np.float32),
        )

    # ------------------------------------------------------------------
    def contains(self, keys: np.ndarray) -> np.ndarray:
        keys = as_keys(keys)
        order, bounds = self._dispatch(keys)
        out = np.zeros(keys.size, dtype=bool)
        for gpu in range(self.n_gpus):
            idx = order[bounds[gpu] : bounds[gpu + 1]]
            if idx.size:
                out[idx] = self.tables[gpu].contains(keys[idx])
        return out

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All resident (keys, values) across GPUs, sorted by key."""
        ks, vs = [], []
        for t in self.tables:
            k, v = t.items()
            ks.append(k)
            vs.append(v)
        keys = np.concatenate(ks)
        values = (
            np.concatenate(vs)
            if keys.size
            else np.zeros((0, self.value_dim), dtype=np.float32)
        )
        order = np.argsort(keys)
        return keys[order], values[order]

    def clear(self) -> None:
        for t in self.tables:
            t.clear()

    def _check_gpu(self, gpu: int) -> None:
        if not 0 <= gpu < self.n_gpus:
            raise IndexError(f"gpu {gpu} out of range [0, {self.n_gpus})")
