"""The per-round :class:`RoundPlan` and its builder.

Everything in a plan is a *function of the round's batches and the cluster
topology* — nothing depends on parameter values or cache state — so the
whole plan can be computed in the read stage, before any tier is touched:

* per node: the sorted unique working keys, their node-owner partition
  (who serves each key in the MEM tier), their per-GPU partition (where
  each key is staged in the HBM tier), and the sharded mini-batches;
* per (node, shard): the mini-batch's sorted unique keys and per-GPU key
  counts (what the HBM pull/push cost model charges);
* per sync round ``m``: the union of keys every node's workers touched —
  which is exactly the key set of the merged all-reduce update — with the
  per-GPU counts of each node's staged share of it.

A few :class:`NodePrefetchPlan` fields are *not* known at build time and
are filled in by the MEM tier's once-per-round resolve
(``MemPS.prefetch``): the cache hit/miss split of the node's MEM-touch
union, the resolved LRU slot rows of the (now pinned) keys, and the
cache's :class:`AdmissionRecord` (how many dense passes the resolve
took).  Every later MEM access of the round goes through those rows
instead of re-probing the SlotIndex.  Conversely the plan is what lets
the cache assume unique keys: plan key sets are sorted-unique by
construction.

The builder works in one *round-local code space*: the round's flat keys
are deduplicated once into the sorted universe ``U`` (a code in
``[0, |U|)`` per flat key) and each partitioner is evaluated once, on
``U``.  Every key set the plan names is then a boolean mask over ``|U|``
— ``U`` is sorted, so a mask's nonzero codes *are* its keys in ascending
order — and every position array is a gather through a rank array over
``|U|``.  Compact and sparse key domains share that one path (only
:func:`~repro.utils.keys.compact_unique` looks at the domain), and every
later consumer of the plan is a pure index gather.

The codes outlive the build: every key set carries its ``codes``, and
the tiers hold the round's parameter values in one ``(|U|, value_dim)``
array indexed by them — one value per key per round, whichever nodes
stage it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.batching import Batch
from repro.hbm.partition import ModuloPartitioner, bucket_order
from repro.utils.keys import compact_unique

__all__ = [
    "AdmissionRecord",
    "MinibatchPlan",
    "NodePlan",
    "NodePrefetchPlan",
    "NodeSyncPlan",
    "SyncPlan",
    "RoundPlan",
    "build_round_plan",
    "group_indices",
]


@dataclass(frozen=True)
class AdmissionRecord:
    """How the MEM cache admitted one resolve's key batch.

    Recorded by ``MemPS.prefetch`` alongside the resolved slot rows: the
    number of dense slab passes applied (one per non-empty tier segment
    of the resolve, one per insert).  ``BatchStats`` sums it per round.
    """

    n_runs: int


def group_indices(part_of: np.ndarray, n_parts: int) -> list[np.ndarray]:
    """Index arrays of each bucket, in ascending original position.

    Equivalent to ``[np.flatnonzero(part_of == b) for b in range(n_parts)]``
    (and to the order :meth:`ModuloPartitioner.split` produces) but with a
    single sort over the whole array, via the shared
    :func:`~repro.hbm.partition.bucket_order` primitive.
    """
    order, bounds = bucket_order(part_of, n_parts)
    return [order[bounds[b] : bounds[b + 1]] for b in range(n_parts)]


@dataclass
class MinibatchPlan:
    """Key plan of one worker mini-batch (one (node, shard) pair)."""

    #: sorted unique keys of the shard (``Batch.unique_keys()``, precomputed)
    keys: np.ndarray
    #: round-local codes of :attr:`keys` (their rows in the round array)
    codes: np.ndarray
    #: positions of :attr:`keys` inside the node's sync-round key union
    #: (the gradient-buffer row of each key)
    sync_idx: np.ndarray
    #: number of keys owned by each GPU (drives the HBM pull/push charges)
    gpu_counts: np.ndarray
    #: size of the node's sync-round key union (gradient-buffer height)
    sync_size: int
    #: positions of the shard's *flat* (per-example) keys inside
    #: :attr:`keys` — the embedding layer's gather index, precomputed so
    #: the worker skips a per-minibatch ``searchsorted`` (None when the
    #: plan builder did not materialize it)
    emb_idx: np.ndarray | None = None


@dataclass
class NodeSyncPlan:
    """One node's view of sync round ``m``'s merged all-reduce update."""

    #: the node's own drained key union for this sync round (sorted)
    keys: np.ndarray
    #: positions of :attr:`keys` inside the *global* update key set
    #: (where the all-reduce scatters this node's gradients)
    union_pos: np.ndarray
    #: per-GPU counts of the global update's keys staged on this node
    #: (the keys of its working set: the apply-update cost charges)
    resident_gpu_counts: np.ndarray


@dataclass
class SyncPlan:
    """Cluster-wide plan of one sync round (one mini-batch index ``m``)."""

    #: union over nodes of the keys their workers touched this round —
    #: exactly the key set of the merged all-reduce update, sorted
    keys: np.ndarray
    #: round-local codes of :attr:`keys` (the rows the update applies to)
    codes: np.ndarray
    nodes: list[NodeSyncPlan]


@dataclass
class NodePlan:
    """One node's key plan for a round."""

    node_id: int
    #: sorted unique working keys of the node's batch (Alg. 1 line 3)
    keys: np.ndarray
    #: round-local codes of :attr:`keys` (the rows the node's HBM stages)
    codes: np.ndarray
    #: per-node index arrays into :attr:`keys` (MEM-tier owner partition);
    #: ``node_parts[node_id]`` is the local shard
    node_parts: list[np.ndarray]
    #: number of working keys staged on each GPU (HBM-tier partition
    #: sizes: the capacity check and the insert charge)
    gpu_counts: np.ndarray
    #: the sharded mini-batches (``Batch.shard``, precomputed)
    shards: list[Batch]
    #: per-shard plans, aligned with :attr:`shards`
    minibatches: list[MinibatchPlan]

    @property
    def local_idx(self) -> np.ndarray:
        """Index array of the locally-owned working keys."""
        return self.node_parts[self.node_id]


@dataclass
class NodePrefetchPlan:
    """One node's MEM-tier resolve set for a round.

    :attr:`keys` is every key of the round the node owns: its local
    working partition and the partitions its peers stage.  Every key of
    the round is in some node's working set, so the nodes' resolve sets
    partition the round universe.  ``MemPS.prefetch`` resolves this set
    against the cache exactly once — cache probe, SSD load, fresh-init,
    pin — and records the LRU rows; the owner then fills the round array
    from those rows and writes the round's result back through them,
    with no further probe.
    """

    #: sorted unique keys the node's MEM tier owns this round
    keys: np.ndarray
    #: round-local codes of :attr:`keys` (the owner's rows of the round
    #: array)
    codes: np.ndarray
    #: positions in :attr:`keys` of the node's local working partition
    local_pos: np.ndarray
    #: per peer node ``p``, positions in :attr:`keys` of the partition
    #: ``p`` stages (the node's own entry is empty)
    serve_pos: list[np.ndarray]
    # -- filled in by ``MemPS.prefetch`` --------------------------------
    #: cache slab rows of the pinned prefetched keys (a resident key's
    #: row never moves; the pin keeps it resident until ``end_batch``)
    rows: np.ndarray | None = None
    #: cache hit mask over :attr:`keys`
    hit: np.ndarray | None = None
    #: which of the misses the SSD resolved (the rest fresh-initialized)
    ssd_found: np.ndarray | None = None
    #: how many dense passes the cache took to admit the union
    admission: AdmissionRecord | None = None


@dataclass
class RoundPlan:
    """The complete per-round key plan, shared by every tier."""

    nodes: list[NodePlan]
    #: the round universe: every key of the round, sorted; a key's code
    #: is its position here
    keys: np.ndarray
    #: one :class:`SyncPlan` per mini-batch round
    sync: list[SyncPlan] = field(default_factory=list)
    #: one :class:`NodePrefetchPlan` per node
    prefetch: list[NodePrefetchPlan] = field(default_factory=list)

    @property
    def n_working_keys(self) -> int:
        return int(sum(n.keys.size for n in self.nodes))


def build_round_plan(
    batches: list[Batch],
    *,
    node_partitioner: ModuloPartitioner,
    gpu_partitioner: ModuloPartitioner,
    n_gpus: int,
    mb_rounds: int,
    prefetch: bool = True,
) -> RoundPlan:
    """Compute the round's full key plan from its batches.

    ``batches[i]`` is node ``i``'s global batch; partitioners are the
    cluster's shared MEM-tier (node) and HBM-tier (GPU) policies and must
    match the topology (one node bucket per batch, one GPU bucket per
    GPU) — a key hashed to a bucket nobody owns would silently drop out
    of every partition.  The plan always carries one
    :class:`NodePrefetchPlan` per node; ``prefetch`` is accepted and
    ignored (the frozen ``benchmarks/hps/micro.py`` still passes it).
    """
    n_nodes = len(batches)
    if n_nodes == 0:
        raise ValueError("need at least one node's batch")
    if node_partitioner.n_parts != n_nodes:
        raise ValueError(
            f"node_partitioner has {node_partitioner.n_parts} buckets "
            f"for {n_nodes} nodes"
        )
    if gpu_partitioner.n_parts != n_gpus:
        raise ValueError(
            f"gpu_partitioner has {gpu_partitioner.n_parts} buckets "
            f"for {n_gpus} GPUs"
        )
    # The round universe: every set below is a mask over it (ascending
    # codes are ascending keys), every position a gather through a rank.
    universe, code = compact_unique(
        np.concatenate([b.keys for b in batches]), return_inverse=True
    )
    n_codes = universe.size
    owner = node_partitioner.part_of(universe)
    gpu = gpu_partitioner.part_of(universe)
    ranks = np.arange(n_codes, dtype=np.int64)
    # Node i's MEM tier owns its local working partition and the
    # partitions its peers stage.  Every code is in some node's working
    # set, so together those are exactly the codes node i owns: the
    # prefetch unions partition the universe, and one array holds each
    # code's position inside its owner's union.
    prefetch_codes = group_indices(owner, n_nodes)
    own_rank = np.empty(n_codes, dtype=np.int64)
    for pg in prefetch_codes:
        own_rank[pg] = ranks[: pg.size]
    node_mask = np.zeros((n_nodes, n_codes), dtype=bool)
    sync_mask = (
        node_mask[None]  # one sync round: its union is the working set
        if mb_rounds == 1
        else np.zeros((mb_rounds, n_nodes, n_codes), dtype=bool)
    )
    # Scratch reused across shards and unions: each user reads only the
    # codes it has just written (``touch`` is handed back all-False).
    touch = np.zeros(n_codes, dtype=bool)
    rank = np.empty(n_codes, dtype=np.int64)

    node_plans: list[NodePlan] = []
    sync_codes: list[list[np.ndarray]] = []  # [node][m]
    #: [p][i]: prefetch positions (on node i) of node p's keys owned by i
    served: list[list[np.ndarray]] = []
    lo = 0
    for i, batch in enumerate(batches):
        node_code = code[lo : lo + batch.keys.size]
        lo += batch.keys.size
        node_mask[i][node_code] = True
        wg = node_mask[i].nonzero()[0]
        working = universe[wg]
        batch._unique = working  # what unique_keys() would memoize
        node_parts = group_indices(owner[wg], n_nodes)
        own_pos = own_rank[wg]
        served.append([own_pos[part] for part in node_parts])
        shards = batch.shard(n_gpus * mb_rounds)
        shard_codes: list[np.ndarray] = []
        emb_idx: list[np.ndarray] = []
        s_lo = 0
        for s in shards:
            flat = node_code[s_lo : s_lo + s.keys.size]
            s_lo += s.keys.size
            touch[flat] = True
            sg = touch.nonzero()[0]
            touch[sg] = False
            shard_codes.append(sg)
            s._unique = universe[sg]
            rank[sg] = ranks[: sg.size]
            emb_idx.append(rank[flat])
        unions: list[np.ndarray] = []
        minibatches: list[MinibatchPlan] = []
        for m in range(mb_rounds):
            group = range(m * n_gpus, (m + 1) * n_gpus)
            if mb_rounds == 1:
                ug = wg
            else:
                for j in group:
                    sync_mask[m, i, shard_codes[j]] = True
                ug = sync_mask[m, i].nonzero()[0]
            rank[ug] = ranks[: ug.size]
            unions.append(ug)
            for j in group:
                sg = shard_codes[j]
                minibatches.append(
                    MinibatchPlan(
                        keys=shards[j]._unique,
                        codes=sg,
                        sync_idx=rank[sg],
                        gpu_counts=np.bincount(gpu[sg], minlength=n_gpus),
                        sync_size=int(ug.size),
                        emb_idx=emb_idx[j],
                    )
                )
        sync_codes.append(unions)
        node_plans.append(
            NodePlan(
                node_id=i,
                keys=working,
                codes=wg,
                node_parts=node_parts,
                gpu_counts=np.bincount(gpu[wg], minlength=n_gpus),
                shards=shards,
                minibatches=minibatches,
            )
        )

    sync_plans: list[SyncPlan] = []
    for m in range(mb_rounds):
        gidx = sync_mask[m].any(axis=0).nonzero()[0]
        rank[gidx] = ranks[: gidx.size]
        gpu_g = gpu[gidx]
        per_node = [
            NodeSyncPlan(
                keys=universe[sync_codes[i][m]],
                union_pos=rank[sync_codes[i][m]],
                resident_gpu_counts=np.bincount(
                    gpu_g[node_mask[i][gidx]], minlength=n_gpus
                ),
            )
            for i in range(n_nodes)
        ]
        sync_plans.append(
            SyncPlan(keys=universe[gidx], codes=gidx, nodes=per_node)
        )

    no_pos = np.empty(0, dtype=np.int64)
    prefetch_plans = [
        NodePrefetchPlan(
            keys=universe[prefetch_codes[i]],
            codes=prefetch_codes[i],
            local_pos=served[i][i],
            serve_pos=[
                served[p][i] if p != i else no_pos for p in range(n_nodes)
            ],
        )
        for i in range(n_nodes)
    ]
    return RoundPlan(
        nodes=node_plans,
        keys=universe,
        sync=sync_plans,
        prefetch=prefetch_plans,
    )
