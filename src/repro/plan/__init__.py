"""Per-round key planning (the BatchPlan subsystem).

A training round touches the same key metadata at every tier — the batch's
sorted unique working set, its node-owner partition, its per-GPU partition,
each mini-batch's key set, and the per-sync-round key unions the all-reduce
produces.  :func:`build_round_plan` computes all of it **once**, in the read
stage, and the resulting :class:`RoundPlan` is threaded through
:class:`~repro.core.cluster.RoundContext` so the MEM, HBM, and SSD tiers
consume precomputed index arrays instead of re-hashing, re-uniquing, and
re-probing per stage.
"""

from repro.plan.batch_plan import (
    MinibatchPlan,
    NodePlan,
    NodePrefetchPlan,
    NodeSyncPlan,
    RoundPlan,
    SyncPlan,
    build_round_plan,
    group_indices,
)

__all__ = [
    "MinibatchPlan",
    "NodePlan",
    "NodePrefetchPlan",
    "NodeSyncPlan",
    "RoundPlan",
    "SyncPlan",
    "build_round_plan",
    "group_indices",
]
