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

    def prepare(self, plan: NodePlan, values: np.ndarray) -> PrepareStats:
        """Fill the round array with this owner's keys (Alg. 1 lines 3–4).

        ``values`` is the round array, one row per round-local code.  The
        owner writes every key it resolved — its local partition and the
        partitions its peers stage, which is how it serves their pulls —
        with one row gather; the prefetch unions partition the round, so
        once every node has prepared, every row is written exactly once.
        ``plan`` is this node's :class:`~repro.plan.NodePlan`: its
        remote partitions are the pulls the node pays network time for,
        and the returned stats are the Fig. 4(b) decomposition.
        """
        pplan = self._round()
        values[pplan.codes] = self.cache.values_at(pplan.rows)
        n_hits = int(pplan.hit[pplan.local_pos].sum())
        n_ssd = int(pplan.ssd_found[pplan.local_pos].sum())

        t_remote = 0.0
        n_remote = 0
        for peer_id, idx in enumerate(plan.node_parts):
            if peer_id == self.node_id or idx.size == 0:
                continue
            n_remote += idx.size
            # Request (keys out) + response (keys+values back).
            nbytes = idx.size * (8 + (8 + 4 * self.optimizer.value_dim))
            if self.network is not None:
                t_remote += self.network.send(nbytes, category="net_remote_pull")
        n_local = plan.local_idx.size
        return PrepareStats(
            n_keys=plan.keys.size,
            n_local=n_local,
            n_remote=n_remote,
            n_cache_hits=n_hits,
            n_ssd_loaded=n_ssd,
            n_fresh=n_local - n_hits - n_ssd,
            remote_seconds=t_remote,
        )

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
        self.cache.update_rows(pplan.rows, values[pplan.codes])

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

    def fold_delta(
        self, base: dict[str, np.ndarray], delta: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """The snapshot an :meth:`export_delta` diff describes, built on
        the ``base`` it was diffed against (:meth:`CombinedCache.fold_delta`)."""
        return self.cache.fold_delta(base, delta)
