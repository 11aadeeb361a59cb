"""HBM-PS — the top layer of the hierarchy (paper Section 4).

One :class:`HBMPS` instance manages a node's GPUs.  A round's parameter
values (value = embedding + optimizer state, as defined by the sparse
optimizer's value layout) live in one *round array*, one row per
distinct key of the round, indexed by the round-local codes of the
:class:`~repro.plan.RoundPlan`: the MEM owners fill it, every node's
HBM-PS stages a view of it with its :class:`~repro.plan.NodePlan`
(:meth:`HBMPS.load_working_set`), and the owners write it back at the
round's end.  A key staged on several nodes therefore has one value,
not one copy per node.  Every worker-facing call takes the matching
mini-batch / sync plan and is a pure index gather/scatter — no hashing,
no probing, no per-stage ``np.unique``: workers pull embedding rows at
their mini-batch's codes (the trainer reads them from the round array
for every worker at once; the pull is the charge) and scatter-add
gradients into the node's sync-round buffer (Algorithm 1 line 14); the
trainer drains each node's
buffer, all-reduces them across nodes and applies the merged update to
the round array once, at the sync union's codes — which covers every
staged replica and every key its MEM owner updates for peers (Section
5 "Update parameters").

The simulated cost model charges what the per-GPU hash tables of
Section 4.1 / Algorithm 2 would, node by node: per-GPU key counts come
from the plan, and :meth:`HBMPS._charge_table_ops` prices them on a
:class:`GPUFabric` (``params``) — the node's GPUs as a sharded key
space with their devices and NVLink.  :meth:`HBMPS.apply_update`
charges each node's GPUs for their staged share of a sync round's
update.  The tables themselves are a test oracle
(``tests/hbm_oracles.py``) that holds the pricing to them charge for
charge, beside the per-node replicas the round array replaced.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TierStateError
from repro.hardware.gpu import GPUDevice, NVLink
from repro.hardware.ledger import CostLedger
from repro.hardware.specs import GPUSpec, NVLinkSpec
from repro.hbm.allreduce import SparseUpdate
from repro.hbm.partition import ModuloPartitioner
from repro.nn.optim import SparseAdagrad
from repro.plan.batch_plan import MinibatchPlan, NodePlan, NodeSyncPlan
from repro.utils.rows import put_rows, take_rows

__all__ = ["GPUFabric", "HBMPS"]

_GPU_SALT = 0x67707573  # "gpus" — distinct from the node-level salt


class GPUFabric:
    """One node's GPUs as a sharded key space: who owns a key, what a
    table op on that GPU costs, and the NVLink between them — everything
    the simulated cost model charges against (no storage)."""

    def __init__(
        self,
        n_gpus: int,
        *,
        gpu_spec: GPUSpec,
        nvlink_spec: NVLinkSpec,
        ledger: CostLedger,
    ) -> None:
        if n_gpus <= 0:
            raise ValueError("n_gpus must be positive")
        self.n_gpus = n_gpus
        self.ledger = ledger
        self.partitioner = ModuloPartitioner(n_gpus, salt=_GPU_SALT)
        self.devices = [GPUDevice(gpu_spec, ledger) for _ in range(n_gpus)]
        self.nvlink = NVLink(nvlink_spec, ledger)


class _StagedRound:
    """One round's staging: a view of the round array and its node plan."""

    __slots__ = ("plan", "values", "grad_buf")

    def __init__(self, plan: NodePlan, values: np.ndarray) -> None:
        self.plan = plan
        #: the round array, (n_codes, value_dim) float32 — shared with
        #: every node of the round; ``plan.codes`` are this node's rows
        self.values = values
        #: (sync_size, dim) float32 gradient buffer of the current sync
        #: round; allocated lazily at the first push, dropped at drain
        self.grad_buf: np.ndarray | None = None


class HBMPS:
    """Node-level High-Bandwidth-Memory parameter server."""

    def __init__(
        self,
        n_gpus: int,
        capacity_per_gpu: int,
        optimizer: SparseAdagrad,
        *,
        gpu_spec: GPUSpec,
        nvlink_spec: NVLinkSpec,
        ledger: CostLedger,
    ) -> None:
        self.optimizer = optimizer
        self.ledger = ledger
        self.capacity_per_gpu = capacity_per_gpu
        #: the GPUs the staged parameters are sharded over: partitioner,
        #: per-GPU cost devices and NVLink (no storage — see module doc)
        self.params = GPUFabric(
            n_gpus, gpu_spec=gpu_spec, nvlink_spec=nvlink_spec, ledger=ledger
        )
        self._staged: _StagedRound | None = None
        #: fault-injection guard for cross-GPU pull/push dispatch
        #: (:class:`repro.faults.policy.FaultArm`; None = fault-free)
        self.faults = None

    # ------------------------------------------------------------------
    @property
    def n_gpus(self) -> int:
        return self.params.n_gpus

    @property
    def nvlink(self):
        return self.params.nvlink

    def _round(self) -> _StagedRound:
        if self._staged is None:
            raise TierStateError(
                "no working set staged — call load_working_set first"
            )
        return self._staged

    def _charge_table_ops(
        self,
        value_dim: int,
        counts,
        category: str,
        *,
        source_gpu: int | None = None,
        include_empty: bool = False,
    ) -> float:
        """Charge per-GPU table ops from precomputed key counts.

        The single cost-charging primitive of the tier.  It prices what
        the Algorithm-2 tables would for the same key partition — a
        table op on each owning GPU's device, one NVLink send for the
        cross-GPU share, the same ledger categories, and the same skip
        rules (``insert`` charges empty partitions, the others skip
        them; cross-GPU traffic only with a ``source_gpu``).
        """
        fabric = self.params
        vb = 4 * value_dim
        t_table = 0.0
        link_bytes = 0
        link_msgs = 0
        for g in range(self.n_gpus):
            c = int(counts[g])
            if c == 0 and not include_empty:
                continue
            t_table = max(t_table, fabric.devices[g].table_op(c, vb, category))
            if source_gpu is not None and g != source_gpu and c:
                link_bytes += c * (8 + vb)
                link_msgs += 1
        t_link = (
            fabric.nvlink.send(link_bytes, n_messages=link_msgs)
            if link_msgs
            else 0.0
        )
        return t_table + t_link

    def load_working_set(self, values: np.ndarray, plan: NodePlan) -> float:
        """Stage the batch's working parameters (Alg. 1 lines 6–10).

        ``values`` is the round array (one row per round-local code); the
        node stages a view of it, its working set at ``plan.codes``, and
        is charged the per-GPU inserts from the plan's partition sizes.
        """
        for g in range(self.n_gpus):
            if plan.gpu_counts[g] > self.capacity_per_gpu:
                raise TierStateError(
                    f"hash table capacity exceeded: 0+{plan.gpu_counts[g]}"
                    f" > {self.capacity_per_gpu} (room for "
                    f"{self.capacity_per_gpu})"
                )
        self._staged = _StagedRound(plan, values)
        return self._charge_table_ops(
            self.optimizer.value_dim,
            plan.gpu_counts,
            "hbm_insert",
            include_empty=True,
        )

    def pull_embeddings(self, mb: MinibatchPlan, *, gpu: int = 0) -> float:
        """A worker's pull of its mini-batch's embedding rows (line 12).

        The rows are the staged round array's at ``mb.codes``; the
        trainer gathers every worker's straight from it in one pass, so
        this dispatches and charges the pull and copies nothing.
        """
        extra = 0.0
        if self.faults is not None:
            # Transient dispatch fault: a retried fetch costs only
            # backoff (it restarts before any table was touched);
            # exhaustion escapes with global scope — mid-train HBM state
            # is only recoverable by a full restore.
            extra = self.faults.guard({"hbm_dispatch": 0.0}, scope="global")
        self._round()
        t = self._charge_table_ops(
            self.optimizer.value_dim, mb.gpu_counts, "hbm_pull", source_gpu=gpu
        )
        return t + extra

    def push_gradients(
        self, mb: MinibatchPlan, grads: np.ndarray, *, gpu: int = 0
    ) -> float:
        """Worker pushes its sparse gradient (line 14, Algorithm 2).

        ``grads`` is aligned with ``mb.keys``.
        """
        extra = 0.0
        if self.faults is not None:
            # Guard before any gradient is applied, so a retried push
            # never double-applies a delta and an exhausted one escapes
            # with the buffer still consistent.
            extra = self.faults.guard({"hbm_dispatch": 0.0}, scope="global")
        st = self._round()
        if st.grad_buf is None:
            st.grad_buf = np.zeros(
                (mb.sync_size, self.optimizer.dim), dtype=np.float32
            )
        # Mini-batch keys are unique, so this scatter-add is the hash
        # table's insert-then-accumulate bit for bit (0 + d == d, and
        # float32 -> float64 -> float32 round-trips exactly).
        acc = take_rows(st.grad_buf, mb.sync_idx)
        acc += np.asarray(grads, dtype=np.float32)
        put_rows(st.grad_buf, mb.sync_idx, acc)
        return extra + self._charge_table_ops(
            self.optimizer.dim, mb.gpu_counts, "hbm_push", source_gpu=gpu
        )

    def drain_gradients(self, sync: NodeSyncPlan) -> SparseUpdate:
        """Collect and clear the gradient buffer for the all-reduce."""
        st = self._round()
        buf = st.grad_buf
        st.grad_buf = None
        if buf is None:
            buf = np.zeros((sync.keys.size, self.optimizer.dim), dtype=np.float32)
        # Plan keys are sorted-unique by construction; skip re-validation.
        # SparseUpdate carries float64 gradients by contract (see
        # allreduce.SparseUpdate).
        return SparseUpdate.trusted(
            sync.keys, buf.astype(np.float64)  # repro: allow(f64-hot-path)
        )

    def apply_update(self, sync: NodeSyncPlan) -> float:
        """Charge this node's GPUs for a sync round's update.

        The update itself is applied once per sync round, to the round
        array every node stages a view of; each node pays for applying
        it to its staged share (``sync.resident_gpu_counts``), as its
        per-GPU tables would.
        """
        self._round()
        return self._charge_table_ops(
            self.optimizer.value_dim, sync.resident_gpu_counts, "hbm_push"
        )

    def dump(self) -> tuple[np.ndarray, np.ndarray]:
        """All staged (keys, values) — the working set as it stands.

        Kept only because frozen ``benchmarks/hps/spans.py`` binds it;
        drop at benchmark v2 (the owners write the round array back).
        """
        st = self._round()
        return st.plan.keys, st.values[st.plan.codes]
