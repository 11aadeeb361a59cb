"""MEM-PS — the middle layer of the hierarchy (paper Section 5).

Each node's MEM-PS owns a *shard* of the global parameter space (modulo
hashing on the key, Section 5 "Prepare parameters").  For a training
round it:

1. resolves, exactly once, every key of the round it owns — its local
   working partition and the partitions its peers stage — through the
   LRU+LFU cache, falling back to the SSD-PS and initializing never-seen
   keys from the optimizer's init rule (:meth:`MemPS.prefetch`), and pins
   them until the round ends;
2. fills those keys' rows of the round's value array (one row per key of
   the round, shared by every node) — a pure row gather on the resolved
   rows, no further index probe — and charges its own pulls of the
   partitions peers own to the network (:meth:`MemPS.prepare`);
3. on round completion writes its rows of the round array, now holding
   every sync round's update, back through the same rows in one write
   (:meth:`MemPS.absorb_updates`), then unpins them.  Nothing else writes
   a MEM value mid-round.

One resolved round is in flight per node: a second :meth:`MemPS.prefetch`
before :meth:`MemPS.end_batch` raises, so pins of different rounds never
overlap and nothing but the cache itself carries from one round to the
next.

All remote traffic is charged to the node's :class:`Network`; all disk
traffic to the SSD-PS ledger.  The local/remote split is what Figure 4(b)
measures.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TierStateError
from repro.hardware.network import Network
from repro.hbm.partition import ModuloPartitioner
from repro.mem.cache import CombinedCache
from repro.nn.optim import SparseAdagrad
from repro.plan.batch_plan import NodePlan, NodePrefetchPlan
from repro.ssd.ssd_ps import SSDPS
from repro.utils.rows import put_rows, take_rows

__all__ = ["MemPS"]

_NODE_SALT = 0x6E6F6465  # "node"


class MemPS:
    """One node's main-memory parameter server."""

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        optimizer: SparseAdagrad,
        ssd_ps: SSDPS,
        *,
        cache_capacity: int,
        lru_fraction: float,
        network: Network,
        seed: int,
    ) -> None:
        if not 0 <= node_id < n_nodes:
            raise ValueError("node_id out of range")
        self.node_id = node_id
        self.optimizer = optimizer
        self.ssd_ps = ssd_ps
        self.network = network
        self.partitioner = ModuloPartitioner(n_nodes, salt=_NODE_SALT)
        self.cache = CombinedCache(
            cache_capacity,
            lru_fraction=lru_fraction,
            value_dim=optimizer.value_dim,
        )
        #: per-key init seed — identical on every node so a key initializes
        #: the same regardless of which node first touches it.
        self._init_seed = seed
        #: the round's resolved :class:`~repro.plan.NodePrefetchPlan`
        #: (set by :meth:`prefetch`, cleared by :meth:`end_batch`) — every
        #: other per-round method gathers/scatters through its rows.
        self._prefetch_plan: NodePrefetchPlan | None = None

    # ------------------------------------------------------------------
    def owner_of(self, keys: np.ndarray) -> np.ndarray:
        return self.partitioner.part_of(keys)

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
        """Values of node ``requester``'s pull of ``keys`` (all owned here).

        Kept only because frozen ``benchmarks/hps/spans.py`` binds it;
        drop at benchmark v2 (:meth:`prepare` fills peers' rows of the
        round array instead).  ``keys`` is the partition the requester's
        :class:`~repro.plan.NodePlan` assigned to this node; the pull is
        a row gather on the rows the round's resolve pinned.
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
        every key of the round this node owns (its local working
        partition and the partitions its peers stage).  The whole set
        goes through cache → SSD → fresh-init exactly once and stays
        pinned until :meth:`end_batch`; the resolved LRU rows land on the
        plan, so every later MEM access this round is a pure row gather
        (no SlotIndex probe, no admission work, no eviction risk).
        Returns simulated seconds (SSD loads plus the dumps of what the
        inserts flushed — all the device time the MEM tier pays for the
        round).
        """
        if self._prefetch_plan is not None:
            raise TierStateError(
                "MEM-PS still holds the in-flight round's pins — only "
                "valid at a round boundary (after end_batch)"
            )
        pplan.rows, seconds = self._resolve(pplan.keys)
        self._prefetch_plan = pplan
        return seconds

    def _resolve(self, keys: np.ndarray) -> tuple[np.ndarray, float]:
        """Cache → SSD → fresh-init resolve of sorted-unique ``keys``.

        Returns ``(rows, seconds)``: the (now pinned) LRU rows and the
        simulated device seconds.

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
        miss_idx = np.flatnonzero(~hit)
        if miss_idx.size:
            miss_keys = keys[miss_idx]
            result = self.ssd_ps.load(miss_keys)
            seconds += result.seconds
            vals = result.values
            fresh_idx = np.flatnonzero(~result.found)
            if fresh_idx.size:
                put_rows(
                    vals,
                    fresh_idx,
                    self.optimizer.init_for_keys(
                        miss_keys[fresh_idx], seed=self._init_seed
                    ),
                )
            flush_k, flush_v, rows[miss_idx] = self.cache.put_batch(
                miss_keys, vals, pin=True
            )
            if flush_k.size:
                seconds += self.ssd_ps.dump(flush_k, flush_v)
        return rows, seconds

    def prepare(self, plan: NodePlan, values: np.ndarray) -> float:
        """Fill the round array with this owner's keys (Alg. 1 lines 3–4).

        ``values`` is the round array, one row per round-local code.  The
        owner writes every key it resolved — its local partition and the
        partitions its peers stage, which is how it serves their pulls —
        with one row gather; the prefetch unions partition the round, so
        once every node has prepared, every row is written exactly once.
        ``plan`` is this node's :class:`~repro.plan.NodePlan`: its
        remote partitions are the pulls the node pays network time for.
        Returns their simulated seconds: the local partition is a row
        gather on rows the resolve already loaded (its device time is
        the resolve's), so the only time here is the remote pulls'
        network transfer.
        """
        pplan = self._round()
        put_rows(values, pplan.codes, self.cache.values_at(pplan.rows))
        t_remote = 0.0
        for peer_id, idx in enumerate(plan.node_parts):
            if peer_id == self.node_id or idx.size == 0:
                continue
            # Request (keys out) + response (keys+values back).
            nbytes = idx.size * (8 + (8 + 4 * self.optimizer.value_dim))
            t_remote += self.network.send(nbytes)
        return t_remote

    # ------------------------------------------------------------------
    def absorb_updates(self, values: np.ndarray) -> None:
        """Write the round's result back (Alg. 1 lines 16–18).

        ``values`` is the round array after every sync round's update.
        The owner writes back every key it resolved — the ones its own
        GPUs staged and the ones only peers staged (Section 5 "Update
        parameters") — through the resolved rows in one write: no
        re-hash, no SlotIndex probe, no device traffic.  This is the only
        write to a MEM value in a round.  The rows stay pinned:
        :meth:`end_batch` releases the round's whole set.
        """
        pplan = self._round()
        self.cache.update_rows(pplan.rows, take_rows(values, pplan.codes))

    def apply_gradients(self, rows: np.ndarray, grads: np.ndarray) -> None:
        """Apply the sparse optimizer to resolved rows in place.

        Kept only because frozen ``benchmarks/hps/spans.py`` binds it;
        drop at benchmark v2 (updates reach MEM through
        :meth:`absorb_updates`).  ``rows`` are pinned resolved rows, so
        this is a pure row gather/scatter: no cache probe, no admission
        work, no device traffic (hence no seconds to return).
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

        The whole resolved set (the local partition and the peers'
        partitions) unpins in a single row-level release — one round is in
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
        this node got as far as resolving one.  Values change only at
        the write-back, so this is purely a bookkeeping reset; the retry
        re-derives residency from the cache itself.
        """
        if self._prefetch_plan is not None:
            self.end_batch()
