"""MEM-PS — the middle layer of the hierarchy (paper Section 5).

Each node's MEM-PS owns a *shard* of the global parameter space (modulo
hashing on the key, Section 5 "Prepare parameters").  For a training
round it:

1. resolves, exactly once, every key it will touch this round — its local
   working partition, the partitions it serves to peers, the owner-queue
   keys of every sync round — through the LRU+LFU cache, falling back to
   the SSD-PS and initializing never-seen keys from the optimizer's init
   rule (:meth:`MemPS.prefetch`), and pins them until the round ends;
2. gathers its local partition and pulls remote partitions from their
   owning nodes' MEM-PS over the network — pure row gathers on the
   resolved rows, no further index probe;
3. applies owner-queue gradients and, on round completion, absorbs updated
   values through the same rows, then unpins them.

One resolved round is in flight per node: a second :meth:`MemPS.prefetch`
before :meth:`MemPS.end_batch` raises, so pins of different rounds never
overlap and nothing but the cache itself carries from one round to the
next.

All remote traffic is charged to the node's :class:`Network`; all disk
traffic to the SSD-PS ledger.  The local/remote split is what Figure 4(b)
measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TierStateError
from repro.hardware.ledger import CostLedger
from repro.hardware.network import Network
from repro.hbm.partition import ModuloPartitioner
from repro.mem.cache import CombinedCache
from repro.nn.optim import SparseOptimizer
from repro.plan.batch_plan import AdmissionRecord, NodePlan, NodePrefetchPlan
from repro.ssd.ssd_ps import SSDPS
from repro.utils.keys import all_unique
from repro.utils.rng import spawn

__all__ = ["MemPS", "PrepareStats"]

_NODE_SALT = 0x6E6F6465  # "node"


@dataclass(frozen=True)
class PrepareStats:
    """Traffic decomposition of one prepare() call.

    The local partition is a row gather on rows the round's resolve
    already loaded (its device time is the resolve's), so the only
    simulated time here is the remote pulls' network transfer.
    """

    n_keys: int
    n_local: int
    n_remote: int
    n_cache_hits: int
    n_ssd_loaded: int
    n_fresh: int
    remote_seconds: float


class MemPS:
    """One node's main-memory parameter server."""

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        optimizer: SparseOptimizer,
        ssd_ps: SSDPS,
        *,
        cache_capacity: int = 1_000_000,
        lru_fraction: float = 0.5,
        network: Network | None = None,
        ledger: CostLedger | None = None,
        seed: int = 0,
        key_domain: int | None = None,
    ) -> None:
        if not 0 <= node_id < n_nodes:
            raise ValueError("node_id out of range")
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.optimizer = optimizer
        self.ssd_ps = ssd_ps
        self.ledger = ledger if ledger is not None else CostLedger()
        self.network = network
        self.partitioner = ModuloPartitioner(n_nodes, salt=_NODE_SALT)
        self.cache = CombinedCache(
            cache_capacity,
            lru_fraction=lru_fraction,
            value_dim=optimizer.value_dim,
            key_domain=key_domain,
        )
        self._rng = spawn(seed, "mem_ps", node_id)
        #: per-key init seed — identical on every node so a key initializes
        #: the same regardless of which node first touches it.
        self._init_seed = seed
        #: peers[i] is node i's MemPS; wired by the cluster after construction.
        self.peers: list["MemPS"] = []
        #: the round's resolved :class:`~repro.plan.NodePrefetchPlan`
        #: (set by :meth:`prefetch`, cleared by :meth:`end_batch`) — every
        #: other per-round method gathers/scatters through its rows.
        self._prefetch_plan: NodePrefetchPlan | None = None

    # ------------------------------------------------------------------
    def owner_of(self, keys: np.ndarray) -> np.ndarray:
        return self.partitioner.part_of(keys)

    def owns(self, keys: np.ndarray) -> np.ndarray:
        return self.owner_of(keys) == self.node_id

    # ------------------------------------------------------------------
    def _admission_snapshot(self) -> int:
        """The cache's admission-run counter."""
        return self.cache.stats.admission_runs

    def _admission_delta(self, before: int) -> AdmissionRecord:
        return AdmissionRecord(n_runs=self._admission_snapshot() - before)

    # ------------------------------------------------------------------
    def _round(self) -> NodePrefetchPlan:
        """The in-flight round's resolved plan."""
        pplan = self._prefetch_plan
        if pplan is None:
            raise TierStateError(
                "no round resolved on this MEM-PS — call prefetch first"
            )
        return pplan

    def serve_remote(self, keys: np.ndarray, *, requester: int) -> np.ndarray:
        """Handle node ``requester``'s pull of ``keys`` (all owned here).

        ``keys`` is the partition the requester's
        :class:`~repro.plan.NodePlan` assigned to this node — sorted
        unique and owned here by construction (validated by the plan
        unit tests), so there is no ownership re-hash.  The round's
        resolve already loaded and pinned the partition, so the pull is
        a pure row gather with no device traffic and no extra pin.
        """
        pplan = self._round()
        pos = pplan.serve_pos[requester]
        assert np.array_equal(keys, pplan.keys[pos]), (
            "prefetch plan and remote pull diverged"
        )
        return self.cache.values_at(pplan.rows[pos])

    def prefetch(self, pplan: NodePrefetchPlan) -> float:
        """Resolve, load, and pin the round's full MEM working set.

        ``pplan`` is the node's :class:`~repro.plan.NodePrefetchPlan`:
        the sorted union of the local working partition, every partition
        served to a peer, and the owner-queue keys of every sync round.
        The whole set goes through cache → SSD → fresh-init exactly once
        and stays pinned until :meth:`end_batch`; the resolved LRU rows
        land on the plan, so every later MEM access this round is a pure
        row gather (no SlotIndex probe, no admission work, no eviction
        risk).  Returns simulated seconds (SSD loads plus the dumps of
        what the inserts flushed — all the device time the MEM tier pays
        for the round).
        """
        self._require_round_boundary()
        adm_before = self._admission_snapshot()
        pplan.hit, pplan.rows, pplan.ssd_found, seconds = self._resolve(
            pplan.keys
        )
        pplan.admission = self._admission_delta(adm_before)
        self._prefetch_plan = pplan
        return seconds

    def _resolve(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Cache → SSD → fresh-init resolve of sorted-unique ``keys``.

        Returns ``(hit, rows, ssd_found, seconds)``: the cache hit mask,
        the (now pinned) LRU rows, which misses the SSD resolved (the
        rest were fresh-initialized), and the simulated device seconds.

        Tier-ordered access: LRU hits first (pure recency ticks — no
        eviction can form), then LFU promotions (every LRU batch key is
        hot by now, so victims come from the non-batch cold tail), then
        misses — three dense passes over one probe, with the rows of
        every hit handed back.  The misses are then inserted pinned, and
        the insert reports the rows they landed in.
        """
        seconds = 0.0
        hit, rows = self.cache.prefetch_resolve(keys)
        # Pin hits before inserting the misses, which may otherwise
        # evict them.
        self.cache.pin_rows(rows[hit])
        ssd_found = np.zeros(keys.size, dtype=bool)
        miss_idx = np.flatnonzero(~hit)
        if miss_idx.size:
            miss_keys = keys[miss_idx]
            result, stats = self.ssd_ps.load(miss_keys)
            seconds += stats.total_seconds
            ssd_found[miss_idx] = result.found
            vals = result.values
            fresh_idx = np.flatnonzero(~result.found)
            if fresh_idx.size:
                vals[fresh_idx] = self.optimizer.init_for_keys(
                    miss_keys[fresh_idx], seed=self._init_seed
                )
            flush_k, flush_v, rows[miss_idx] = self.cache.put_batch(
                miss_keys, vals, pin=True
            )
            if flush_k.size:
                seconds += self.ssd_ps.dump(flush_k, flush_v).total_seconds
        return hit, rows, ssd_found, seconds

    def prepare(self, plan: NodePlan) -> tuple[np.ndarray, PrepareStats]:
        """Gather values for a batch's working set (Alg. 1 lines 3–4).

        Returns values aligned with ``plan.keys`` plus the stats used by
        the Fig. 4(b) decomposition.  The owner partition comes from the
        plan's precomputed index arrays (no re-hash, no re-unique — the
        plan guarantees uniqueness by construction, so ``all_unique`` is
        a debug assertion); the local partition and every peer-served
        one are row gathers on what :meth:`prefetch` resolved.
        """
        keys = plan.keys
        assert all_unique(keys), "BatchPlan working keys must be unique"
        pplan = self._round()
        local_idx = plan.local_idx
        values = np.zeros((keys.size, self.optimizer.value_dim), dtype=np.float32)
        values[local_idx] = self.cache.values_at(pplan.rows[pplan.local_pos])
        n_hits = int(pplan.hit[pplan.local_pos].sum())
        n_ssd = int(pplan.ssd_found[pplan.local_pos].sum())

        t_remote = 0.0
        n_remote = 0
        for peer_id in range(self.n_nodes):
            if peer_id == self.node_id:
                continue
            idx = plan.node_parts[peer_id]
            if idx.size == 0:
                continue
            values[idx] = self.peers[peer_id].serve_remote(
                keys[idx], requester=self.node_id
            )
            n_remote += idx.size
            # Request (keys out) + response (keys+values back).
            nbytes = idx.size * (8 + (8 + 4 * self.optimizer.value_dim))
            if self.network is not None:
                t_remote += self.network.send(nbytes, category="net_remote_pull")
        stats = PrepareStats(
            n_keys=keys.size,
            n_local=local_idx.size,
            n_remote=n_remote,
            n_cache_hits=n_hits,
            n_ssd_loaded=n_ssd,
            n_fresh=local_idx.size - n_hits - n_ssd,
            remote_seconds=t_remote,
        )
        return values, stats

    # ------------------------------------------------------------------
    def absorb_updates(self, values: np.ndarray, plan: NodePlan) -> None:
        """Write updated values back after a batch (Alg. 1 lines 16–18).

        ``values`` is aligned with ``plan.keys``.  Only locally-owned
        keys are kept (remote owners get their updates from their own
        GPUs — Section 5 "Update parameters"); the owner split and the
        cache update go through the plan's precomputed indices and the
        resolved LRU rows — no re-hash, no SlotIndex probe, no device
        traffic.  The rows stay pinned: :meth:`end_batch` releases the
        round's whole set.
        """
        pplan = self._round()
        self.cache.update_rows(
            pplan.rows[pplan.local_pos],
            np.asarray(values, dtype=np.float32)[plan.local_idx],
        )

    def apply_gradients(self, rows: np.ndarray, grads: np.ndarray) -> None:
        """Owner-side optimizer application for keys *not* staged in the
        local HBM (the update queue described in the module docstring of
        :mod:`repro.hbm.hbm_ps`).

        ``rows`` are the resolved LRU rows of a sync round's owner-queue
        keys (``pplan.rows[pplan.update_pos[m]]``) — pinned residents, so
        the optimizer applies through a pure row gather/scatter: no cache
        probe, no admission work, no eviction risk, no device traffic
        (hence no seconds to return).
        """
        self._round()
        if rows.size == 0:
            return
        # Gradients stay float64 through the optimizer (SparseUpdate
        # contract; order-independent accumulation).
        # repro: allow(f64-hot-path)
        grads = np.asarray(grads, dtype=np.float64)
        self.cache.update_rows(
            rows, self.optimizer.apply(self.cache.values_at(rows), grads)
        )

    def end_batch(self) -> None:
        """Release the round's pins.

        The whole resolved working set (local + served + owner-queue
        rows) unpins in a single row-level release — one round is in
        flight per node, so no other claim on a row can exist.
        Device-free: the LRU tier never holds more than its capacity, so
        there is no overflow to settle.
        """
        pplan = self._round()
        self._prefetch_plan = None
        self.cache.unpin_rows(pplan.rows)

    def abort_round(self) -> None:
        """Roll in-flight round state back to a clean boundary.

        Fault-recovery counterpart of :meth:`end_batch`: releases the
        resolve's pins of a round that will never reach write-back, if
        this node got as far as resolving one.  Values were never
        mutated, so this is purely a bookkeeping reset; the retry
        re-derives residency from the cache itself.
        """
        if self._prefetch_plan is not None:
            self.end_batch()

    def flush_to_ssd(self) -> float:
        """Drain the entire cache to the SSD-PS (checkpoint/shutdown).

        Only valid at a round boundary, like :meth:`export_state`: the
        in-flight round's rows index the slab this call resets.
        """
        self._require_round_boundary()
        fk, fv = self.cache.flush_all()
        if fk.size == 0:
            return 0.0
        return self.ssd_ps.dump(fk, fv).total_seconds

    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, np.ndarray]:
        """Snapshot the MEM tier for a checkpoint shard.

        Only valid at a round boundary: the round's pins must have been
        released by :meth:`end_batch`, otherwise the cache snapshot would
        capture in-flight working-set state that a restore cannot honour.
        """
        self._require_round_boundary()
        return self.cache.export_state()

    def _require_round_boundary(self) -> None:
        pplan = self._prefetch_plan
        if pplan is not None:
            raise TierStateError(
                "MEM-PS still holds the in-flight round's pins — only "
                "valid at a round boundary (after end_batch)"
            )

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore the MEM tier from an :meth:`export_state` snapshot."""
        self.cache.load_state(state)
        self._prefetch_plan = None

    def export_delta(self) -> dict[str, np.ndarray]:
        """Diff the MEM tier against the snapshot last marked.

        Same round-boundary contract as :meth:`export_state`; the heavy
        lifting (full metadata, written-values-only slab) happens in
        :meth:`CombinedCache.export_delta`.
        """
        self._require_round_boundary()
        return self.cache.export_delta()

    def mark_snapshot(self) -> None:
        """The state as of now is a committed snapshot — the next
        :meth:`export_delta`'s base.  Round boundaries only."""
        self._require_round_boundary()
        self.cache.mark_snapshot()

    def load_delta(self, delta: dict[str, np.ndarray]) -> None:
        """Apply an :meth:`export_delta` diff on top of the base state."""
        self.cache.load_delta(delta)
        self._prefetch_plan = None
