"""Plan-builder oracle: the per-node, per-shard, per-sync-round builder.

:func:`reference_round_plan` is the ``build_round_plan`` this repo
shipped before the plan was computed in one round-local code space: one
dedup per node, per sync round and per prefetch union, one partitioner
evaluation per key set, and three lookup idioms (``_key_lookup``'s
direct-addressed rank table for compact key domains, ``_membership`` /
``_positions_in``'s ``searchsorted`` forms for the rest).  It shares the
plan dataclasses and ``group_indices`` with production and nothing
else, and it fills the fields the code-space builder introduced the
way their consumers would derive them: ``NodePlan.gpu_counts`` from
the per-GPU index groups ``HBMPS.load_working_set`` took ``.size`` of,
``NodeSyncPlan.union_pos`` from the ``searchsorted``
``hierarchical_allreduce`` ran per node, and every ``codes`` array —
rows of the round array — by a ``searchsorted`` into the union of the
nodes' working sets.  Its resolve sets are still the union of their
constituents: the local partition, the partitions peers stage and the
owner-queue keys (a sync round's keys the node owns but did not
stage).

:func:`assert_plans_equal` compares two plans field by field — values
*and* dtypes, the ``_unique`` memos seeded on batches and shards
included.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.data.batching import Batch
from repro.hbm.partition import ModuloPartitioner
from repro.plan import (
    MinibatchPlan,
    NodePlan,
    NodePrefetchPlan,
    NodeSyncPlan,
    RoundPlan,
    SyncPlan,
    group_indices,
)
from repro.utils.keys import KEY_DTYPE, compact_unique

__all__ = ["reference_round_plan", "assert_plans_equal"]


def _positions_in(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Positions of ``queries`` in ``sorted_keys`` (every query present)."""
    return sorted_keys.searchsorted(queries)


#: Largest key domain the reference builder direct-addresses.
_DENSE_POS_CAP = 1 << 22


def _key_lookup(sorted_keys: np.ndarray):
    """``(positions_fn, membership_fn)`` over a sorted-unique key set.

    For a compact key domain (max key below :data:`_DENSE_POS_CAP`) one
    scatter of each key's rank into a dense array turns every lookup into
    a single gather; otherwise both functions fall back to the
    ``searchsorted`` forms.  ``positions_fn`` requires member queries;
    ``membership_fn`` returns ``(mask, positions)`` with positions
    meaningful under the mask.
    """
    n = sorted_keys.size
    if n and int(sorted_keys[-1]) < _DENSE_POS_CAP:
        hi = int(sorted_keys[-1]) + 1
        rank = np.empty(hi, dtype=np.int64)
        member = np.zeros(hi, dtype=bool)
        ki = sorted_keys.astype(np.int64)
        rank[ki] = np.arange(n, dtype=np.int64)
        member[ki] = True

        def pos_fn(q: np.ndarray) -> np.ndarray:
            return rank[q.astype(np.int64)]

        def mem_fn(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            qi = q.astype(np.int64)
            ok = qi < hi
            qs = np.where(ok, qi, 0)
            mask = ok & member[qs]
            return mask, np.where(mask, rank[qs], 0)

        return pos_fn, mem_fn

    def pos_fn(q: np.ndarray) -> np.ndarray:
        return sorted_keys.searchsorted(q)

    def mem_fn(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _membership(sorted_keys, q)

    return pos_fn, mem_fn


def _membership(
    sorted_keys: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(mask, positions) of sorted ``queries`` against sorted ``sorted_keys``.

    ``positions`` is only meaningful where ``mask`` is True.
    """
    pos = sorted_keys.searchsorted(queries)
    ok = pos < sorted_keys.size
    mask = np.zeros(queries.size, dtype=bool)
    if sorted_keys.size:
        mask[ok] = sorted_keys[pos[ok]] == queries[ok]
    return mask, pos


def reference_round_plan(
    batches: list[Batch],
    *,
    node_partitioner: ModuloPartitioner,
    gpu_partitioner: ModuloPartitioner,
    n_gpus: int,
    mb_rounds: int,
) -> RoundPlan:
    """The round's key plan, rediscovered key set by key set."""
    n_nodes = len(batches)
    workings = [b.unique_keys() for b in batches]
    non_empty = [k for k in workings if k.size]
    universe = (
        compact_unique(np.concatenate(non_empty))
        if non_empty
        else np.empty(0, dtype=KEY_DTYPE)
    )
    node_plans: list[NodePlan] = []
    # Per node: GPU owner of every working key (the sync pass reads it).
    gpu_ofs: list[np.ndarray] = []
    # Per (node, m): positions of the sync-round key union inside the
    # node's working set — reused to build the cross-node sync plans.
    m_union_work_idx: list[list[np.ndarray]] = []
    # Per-node (positions, membership) lookups over the working sets.
    work_lookups: list[tuple] = []
    for i, batch in enumerate(batches):
        working = workings[i]
        work_pos, work_mem = _key_lookup(working)
        work_lookups.append((work_pos, work_mem))
        node_parts = group_indices(node_partitioner.part_of(working), n_nodes)
        gpu_of = gpu_partitioner.part_of(working)
        gpu_ofs.append(gpu_of)
        gpu_parts = group_indices(gpu_of, n_gpus)
        shards = batch.shard(n_gpus * mb_rounds)
        shard_keys: list[np.ndarray] = []
        shard_work_idx: list[np.ndarray] = []
        shard_emb_idx: list[np.ndarray] = []
        member = np.zeros(working.size, dtype=bool)
        rank = np.empty(working.size, dtype=np.int64)
        for s in shards:
            pos = work_pos(s.keys)
            member[pos] = True
            widx = np.flatnonzero(member)
            member[widx] = False
            shard_work_idx.append(widx)
            k = working[widx]
            shard_keys.append(k)
            s._unique = k
            rank[widx] = np.arange(widx.size, dtype=np.int64)
            shard_emb_idx.append(rank[pos])
        unions: list[np.ndarray] = []
        minibatches: list[MinibatchPlan] = []
        for m in range(mb_rounds):
            idx_group = shard_work_idx[m * n_gpus : (m + 1) * n_gpus]
            if mb_rounds == 1:
                union_idx = np.arange(working.size, dtype=np.int64)
            else:
                for ix in idx_group:
                    member[ix] = True
                union_idx = np.flatnonzero(member)
                member[union_idx] = False
            unions.append(union_idx)
            for g in range(n_gpus):
                widx = idx_group[g]
                minibatches.append(
                    MinibatchPlan(
                        keys=shard_keys[m * n_gpus + g],
                        codes=_positions_in(universe, shard_keys[m * n_gpus + g]),
                        sync_idx=widx
                        if mb_rounds == 1
                        else _positions_in(union_idx, widx),
                        gpu_counts=np.bincount(
                            gpu_of[widx], minlength=n_gpus
                        ),
                        sync_size=int(union_idx.size),
                        emb_idx=shard_emb_idx[m * n_gpus + g],
                    )
                )
        m_union_work_idx.append(unions)
        node_plans.append(
            NodePlan(
                node_id=i,
                keys=working,
                codes=_positions_in(universe, working),
                node_parts=node_parts,
                gpu_counts=np.array(
                    [p.size for p in gpu_parts], dtype=np.int64
                ),
                shards=shards,
                minibatches=minibatches,
            )
        )

    sync_plans: list[SyncPlan] = []
    #: per (m, node): the owner-queue keys
    update_keys: list[list[np.ndarray]] = []
    for m in range(mb_rounds):
        node_keys = [
            node_plans[i].keys[m_union_work_idx[i][m]] for i in range(n_nodes)
        ]
        non_empty = [k for k in node_keys if k.size]
        global_keys = (
            compact_unique(np.concatenate(non_empty))
            if non_empty
            else np.empty(0, dtype=KEY_DTYPE)
        )
        owner_of_global = node_partitioner.part_of(global_keys)
        per_node: list[NodeSyncPlan] = []
        queued: list[np.ndarray] = []
        for i in range(n_nodes):
            resident, pos = work_lookups[i][1](global_keys)
            missing_idx = np.flatnonzero(~resident)
            queued.append(
                global_keys[missing_idx[owner_of_global[missing_idx] == i]]
            )
            per_node.append(
                NodeSyncPlan(
                    keys=node_keys[i],
                    union_pos=global_keys.searchsorted(node_keys[i]),
                    resident_gpu_counts=np.bincount(
                        gpu_ofs[i][pos[resident]], minlength=n_gpus
                    ),
                )
            )
        update_keys.append(queued)
        sync_plans.append(
            SyncPlan(
                keys=global_keys,
                codes=_positions_in(universe, global_keys),
                nodes=per_node,
            )
        )

    prefetch_plans: list[NodePrefetchPlan] = []
    base_pos = _key_lookup(sync_plans[0].keys)[0] if mb_rounds == 1 else None
    for i, plan in enumerate(node_plans):
        local_keys = plan.keys[plan.node_parts[i]]
        serve_keys = [
            node_plans[p].keys[node_plans[p].node_parts[i]]
            if p != i
            else np.empty(0, dtype=KEY_DTYPE)
            for p in range(n_nodes)
        ]
        queued = [update_keys[m][i] for m in range(mb_rounds)]
        parts = [k for k in (local_keys, *serve_keys, *queued) if k.size]
        if mb_rounds == 1 and parts:
            base = sync_plans[0].keys
            member = np.zeros(base.size, dtype=bool)
            for k in parts:
                member[base_pos(k)] = True
            union = base[np.flatnonzero(member)]
        elif parts:
            union = compact_unique(np.concatenate(parts))
        else:
            union = np.empty(0, dtype=KEY_DTYPE)
        union_pos = _key_lookup(union)[0]
        prefetch_plans.append(
            NodePrefetchPlan(
                keys=union,
                codes=_positions_in(universe, union),
                local_pos=union_pos(local_keys),
                serve_pos=[union_pos(k) for k in serve_keys],
            )
        )
    return RoundPlan(
        nodes=node_plans,
        keys=universe,
        sync=sync_plans,
        prefetch=prefetch_plans,
    )


def _assert_same(a, b, where: str) -> None:
    """Recursive equality: arrays by value *and* dtype, batches by their
    arrays and ``_unique`` memo, dataclasses field by field."""
    assert type(a) is type(b), f"{where}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{where}: dtype {a.dtype} vs {b.dtype}"
        assert a.shape == b.shape, f"{where}: shape {a.shape} vs {b.shape}"
        assert np.array_equal(a, b), f"{where}: values differ"
    elif isinstance(a, Batch):
        for name in ("keys", "offsets", "labels", "_unique"):
            _assert_same(getattr(a, name), getattr(b, name), f"{where}.{name}")
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(
                getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}"
            )
    elif isinstance(a, list):
        assert len(a) == len(b), f"{where}: length {len(a)} vs {len(b)}"
        for j, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{j}]")
    else:
        assert a == b, f"{where}: {a!r} vs {b!r}"


def assert_plans_equal(got: RoundPlan, want: RoundPlan) -> None:
    """Every field of every plan dataclass equal in value and dtype."""
    _assert_same(got, want, "plan")
