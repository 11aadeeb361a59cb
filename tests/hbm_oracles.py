"""Oracles for the HBM tier: the per-GPU hash tables of paper Section
4.1 / Algorithm 2 behind its cost model, and the per-node replicas
behind its one value per key.

``HBMPS`` stages a view of the round array and prices the plan's
per-GPU key counts through ``HBMPS._charge_table_ops``.  The tables
below are what that pricing stands in for: :class:`HashTable` is the
fixed-capacity open-addressing map (the cuDF ``concurrent_unordered_map``
analogue), and :class:`DistributedHashTable` shards a node's keys over
its GPUs, dispatching real keys by the partitioner and charging each
touch to the owning :class:`~repro.hardware.gpu.GPUDevice` and every
cross-GPU movement to the NVLink — independently of the counts-based
code it checks (``tests/hbm/test_hbm_ps.py::TestCostModelEquivalence``).

:class:`PerNodeReplicas` is the apply the round array replaced: every
node updating its own copy of its working set, and every MEM owner its
own copy of the keys only peers staged, sync round by sync round
(``tests/faults/test_one_value_per_key.py``).
"""

from __future__ import annotations

import numpy as np

from priced import HARDWARE
from repro.hardware.ledger import CostLedger
from repro.hbm.hbm_ps import GPUFabric
from repro.hbm.allreduce import SparseUpdate
from repro.hbm.partition import bucket_order
from repro.nn.optim import SparseOptimizer
from repro.plan import NodePlan, NodePrefetchPlan
from repro.utils.keys import EMPTY_KEY, KEY_DTYPE, all_unique, as_keys, mix_hash

__all__ = ["DistributedHashTable", "HashTable", "PerNodeReplicas"]


class HashTable:
    """Open-addressing key→value map over preallocated NumPy arrays.

    Capacity is fixed at construction (dynamic GPU allocation is slow);
    insertion beyond it raises ``RuntimeError`` (the GPU would OOM).
    Slots are over-provisioned by ``1 / load_factor``; every operation is
    batched — probing advances all unresolved keys one step per round,
    so the Python loop runs O(max probe length) times, not O(n).
    """

    def __init__(
        self, capacity: int, value_dim: int, *, load_factor: float = 0.6
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if value_dim <= 0:
            raise ValueError("value_dim must be positive")
        if not 0.0 < load_factor <= 1.0:
            raise ValueError("load_factor must be in (0, 1]")
        self.capacity = capacity
        self.value_dim = value_dim
        self.n_slots = max(8, int(np.ceil(capacity / load_factor)))
        self._keys = np.full(self.n_slots, EMPTY_KEY, dtype=KEY_DTYPE)
        self._values = np.zeros((self.n_slots, value_dim), dtype=np.float32)
        self.size = 0
        self.probe_rounds = 0

    # ------------------------------------------------------------------
    def _base_slots(self, keys: np.ndarray) -> np.ndarray:
        return (mix_hash(keys) % np.uint64(self.n_slots)).astype(np.int64)

    def _locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot index of each key and a found mask (vectorized probing).

        A key's probe ends at its match or at the first empty slot (meaning
        absent).  Returned slots for absent keys are those empty slots.
        """
        n = keys.size
        slots = self._base_slots(keys)
        result = np.full(n, -1, dtype=np.int64)
        found = np.zeros(n, dtype=bool)
        pending = np.arange(n)
        offset = 0
        while pending.size:
            if offset > self.n_slots:
                raise RuntimeError("probe loop exceeded table size")
            s = (slots[pending] + offset) % self.n_slots
            occupant = self._keys[s]
            hit = occupant == keys[pending]
            empty = occupant == EMPTY_KEY
            done = hit | empty
            result[pending[done]] = s[done]
            found[pending[hit]] = True
            pending = pending[~done]
            offset += 1
            self.probe_rounds += 1
        return result, found

    # ------------------------------------------------------------------
    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert (or overwrite) unique ``keys`` with ``values``
        (Algorithm 1 line 9); a rejected insert leaves the table as it was."""
        keys = as_keys(keys)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (keys.size, self.value_dim):
            raise ValueError("values shape mismatch")
        if keys.size == 0:
            return
        if not all_unique(keys):
            raise ValueError("insert requires unique keys")
        if self.size + keys.size > self.capacity:
            _, resident = self._locate(keys)
            n_new = int((~resident).sum())
            if self.size + n_new > self.capacity:
                allowed = self.capacity - self.size
                raise RuntimeError(
                    f"hash table capacity exceeded: {self.size}+"
                    f"{n_new} > {self.capacity} (room for {allowed})"
                )
        base = self._base_slots(keys)
        pending = np.arange(keys.size)
        offset = np.zeros(keys.size, dtype=np.int64)
        while pending.size:
            s = (base[pending] + offset[pending]) % self.n_slots
            occupant = self._keys[s]
            hit = occupant == keys[pending]
            self._values[s[hit]] = values[pending[hit]]
            empty = occupant == EMPTY_KEY
            # Several pending keys may race for one empty slot; the first
            # occurrence wins (the GPU's CAS), the rest re-probe.
            cand = np.flatnonzero(empty)
            resolved_mask = np.zeros(pending.size, dtype=bool)
            if cand.size:
                _, first = np.unique(s[cand], return_index=True)
                winners = cand[first]
                widx = pending[winners]
                self._keys[s[winners]] = keys[widx]
                self._values[s[winners]] = values[widx]
                self.size += winners.size
                resolved_mask[winners] = True
            resolved_mask |= hit
            offset[pending[~resolved_mask]] += 1
            if np.any(offset > self.n_slots):
                raise RuntimeError("insert probe loop exceeded table size")
            pending = pending[~resolved_mask]
            self.probe_rounds += 1

    def get(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values for ``keys`` plus a found mask (missing rows are zero)."""
        keys = as_keys(keys)
        if keys.size == 0:
            return (
                np.zeros((0, self.value_dim), dtype=np.float32),
                np.zeros(0, dtype=bool),
            )
        slots, found = self._locate(keys)
        out = np.zeros((keys.size, self.value_dim), dtype=np.float32)
        out[found] = self._values[slots[found]]
        return out, found

    def accumulate(
        self, keys: np.ndarray, deltas: np.ndarray, *, upsert: bool = False
    ) -> None:
        """``values[k] += delta``; duplicate keys sum, as GPU atomics
        would.  Absent keys raise ``KeyError`` unless ``upsert=True``."""
        keys = as_keys(keys)
        deltas = np.asarray(deltas, dtype=np.float32)
        if deltas.shape != (keys.size, self.value_dim):
            raise ValueError("deltas shape mismatch")
        if keys.size == 0:
            return
        uniq, inv = np.unique(keys, return_inverse=True)
        # float64 scatter-add keeps duplicate-key delta sums independent
        # of worker arrival order.
        summed = np.zeros((uniq.size, self.value_dim), dtype=np.float64)
        np.add.at(summed, inv, deltas)
        slots, found = self._locate(uniq)
        if not np.all(found):
            if not upsert:
                missing = uniq[~found][:5]
                raise KeyError(f"accumulate on absent keys, e.g. {missing.tolist()}")
            self.insert(uniq[~found], summed[~found].astype(np.float32))
        self._values[slots[found]] += summed[found].astype(np.float32)

    def transform(self, keys: np.ndarray, fn) -> None:
        """Apply ``new = fn(old)`` to unique, resident ``keys``."""
        keys = as_keys(keys)
        if keys.size == 0:
            return
        if not all_unique(keys):
            raise ValueError("transform requires unique keys")
        slots, found = self._locate(keys)
        if not np.all(found):
            missing = keys[~found][:5]
            raise KeyError(f"transform on absent keys, e.g. {missing.tolist()}")
        self._values[slots] = np.asarray(fn(self._values[slots]), dtype=np.float32)

    # ------------------------------------------------------------------
    def get_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.get(keys)

    def put_batch(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`insert`; a working-set table never evicts (it raises
        when full), so the flush pair is always empty."""
        self.insert(keys, values)
        return (
            np.zeros(0, dtype=KEY_DTYPE),
            np.zeros((0, self.value_dim), dtype=np.float32),
        )

    def contains(self, keys: np.ndarray) -> np.ndarray:
        _, found = self._locate(as_keys(keys))
        return found

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All resident (keys, values), sorted by key."""
        mask = self._keys != EMPTY_KEY
        keys = self._keys[mask]
        values = self._values[mask]
        order = np.argsort(keys)
        return keys[order], values[order].copy()

    def clear(self) -> None:
        self._keys.fill(EMPTY_KEY)
        self._values.fill(0.0)
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def __contains__(self, key: int) -> bool:
        return bool(self.contains(np.array([key], dtype=KEY_DTYPE))[0])


class DistributedHashTable(GPUFabric):
    """One node's keys partitioned non-overlapping over ``n_gpus`` tables.

    ``insert`` scatters a fresh working set, ``get`` pulls remote
    partitions over NVLink, ``accumulate`` routes deltas to their owning
    GPU (Algorithm 2).  Per-GPU work runs concurrently, so a call's
    simulated time is the slowest GPU's table op plus the NVLink send.
    Its GPUs and NVLink are the testbed's, as :func:`priced.hbm_ps`'s are.
    """

    def __init__(
        self, n_gpus: int, capacity_per_gpu: int, value_dim: int, ledger: CostLedger
    ) -> None:
        super().__init__(
            n_gpus,
            gpu_spec=HARDWARE.gpu,
            nvlink_spec=HARDWARE.nvlink,
            ledger=ledger,
        )
        self.value_dim = value_dim
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
        """``(order, bounds)``: ``order[bounds[g]:bounds[g+1]]`` are the
        positions of GPU ``g``'s keys, in batch order."""
        return bucket_order(self.partitioner.part_of(keys), self.n_gpus)

    # ------------------------------------------------------------------
    def insert(self, keys: np.ndarray, values: np.ndarray) -> float:
        """Each GPU ingests its partition (Algorithm 1 line 9); every GPU
        pays the insert, even for an empty partition."""
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
        """Values for ``keys`` as seen from ``source_gpu``: local keys
        straight from HBM, remote partitions over NVLink.  Raises
        ``KeyError`` on absent keys."""
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
        """Algorithm 2: partition on the source GPU (line 2), send the
        non-local partitions (lines 3–7), owners accumulate (lines 9–12).
        ``keys`` may repeat; owners apply the summed delta."""
        keys = as_keys(keys)
        deltas = np.asarray(deltas, dtype=np.float32)
        if deltas.shape != (keys.size, self.value_dim):
            raise ValueError("deltas shape mismatch")
        self._check_gpu(source_gpu)
        order, bounds = self._dispatch(keys)
        send_bytes = 0
        send_msgs = 0
        t_table = 0.0
        for gpu in range(self.n_gpus):
            idx = order[bounds[gpu] : bounds[gpu + 1]]
            if idx.size == 0:
                continue
            if gpu != source_gpu:
                send_bytes += idx.size * (8 + self._value_bytes())
                send_msgs += 1
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
        """Optimizer transform of unique, resident ``keys`` on their owners."""
        keys = as_keys(keys)
        if not all_unique(keys):
            raise ValueError("transform requires unique keys")
        order, bounds = self._dispatch(keys)
        t = 0.0
        for gpu in range(self.n_gpus):
            k = keys[order[bounds[gpu] : bounds[gpu + 1]]]
            if k.size == 0:
                continue
            self.tables[gpu].transform(k, fn)
            t = max(
                t, self.devices[gpu].table_op(k.size, self._value_bytes(), "hbm_push")
            )
        return t

    # ------------------------------------------------------------------
    # Batch surface (no NVLink or ledger charges).
    # ------------------------------------------------------------------
    def get_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
        self.insert(keys, values)
        return (
            np.zeros(0, dtype=KEY_DTYPE),
            np.zeros((0, self.value_dim), dtype=np.float32),
        )

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


class PerNodeReplicas:
    """One round's per-node copies of its parameter values, updated the
    way ``HBMPS.apply_update`` and ``MemPS.apply_gradients`` did before
    the round kept one value per key.

    Node ``i`` holds a replica of its working set (``nodes[i].keys``) and
    an owner queue: the keys it owns (``prefetch[i].keys``) that none of
    its GPUs staged.  Each sync round's update is applied to every
    replica row of its keys and, for keys a node did not stage, to the
    owner's queue row.  Built from the round array as staged (before the
    first update), :meth:`assert_matches` then holds the array to every
    copy after each update.
    """

    def __init__(
        self,
        optimizer: SparseOptimizer,
        values: np.ndarray,
        nodes: list[NodePlan],
        prefetch: list[NodePrefetchPlan],
    ) -> None:
        self.optimizer = optimizer
        #: the round array the copies were taken from
        self.values = values
        #: round universe, rebuilt from the node plans (code -> key)
        self.universe = np.empty(values.shape[0], dtype=KEY_DTYPE)
        for node in nodes:
            self.universe[node.codes] = node.keys
        self.node_codes = [node.codes for node in nodes]
        self.queue_codes = [
            pf.codes[~np.isin(pf.codes, node.codes)]
            for node, pf in zip(nodes, prefetch)
        ]
        self.replicas = [values[c].copy() for c in self.node_codes]
        self.queues = [values[c].copy() for c in self.queue_codes]

    @property
    def shared_rows(self) -> int:
        """Replica rows whose key more than one node staged."""
        staged = np.bincount(
            np.concatenate(self.node_codes), minlength=self.universe.size
        )
        return int(staged[staged > 1].sum())

    @property
    def queued_rows(self) -> int:
        return int(sum(c.size for c in self.queue_codes))

    def apply(self, update: SparseUpdate) -> None:
        """One sync round's per-node applies of the all-reduced update."""
        codes = np.searchsorted(self.universe, update.keys)
        assert np.array_equal(self.universe[codes], update.keys)
        for held, copies in (
            (self.node_codes, self.replicas),
            (self.queue_codes, self.queues),
        ):
            for mine, copy in zip(held, copies):
                hit = np.isin(codes, mine)
                if not hit.any():
                    continue
                rows = np.searchsorted(mine, codes[hit])
                copy[rows] = self.optimizer.apply(
                    copy[rows], update.grads[hit]
                )

    def assert_matches(self, values: np.ndarray) -> None:
        """Every copy byte-equal to the round array's row of its key."""
        for held, copies, what in (
            (self.node_codes, self.replicas, "a staged replica"),
            (self.queue_codes, self.queues, "an owner-queue row"),
        ):
            for node, (mine, copy) in enumerate(zip(held, copies)):
                assert np.array_equal(
                    values[mine].view(np.uint32), copy.view(np.uint32)
                ), f"{what} of node {node} diverged from the round array"
