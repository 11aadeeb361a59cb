"""The benchmark's workload table and the one place a workload becomes a
cluster.

The program under test sees only the ``ModelSpec`` / ``ClusterConfig`` /
constructor arguments built here from the table row and ``--seed``; the
runner never reaches around them.  Why each workload exists — which layer
it loads, and which layer must stay flat on it — is recorded once, in
``BENCHMARK.json`` (and at length in the README).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.config import ClusterConfig, ModelSpec
from repro.core.cluster import HPSCluster

__all__ = ["WORKLOADS", "Workload", "build_cluster", "segments_for"]

#: The measured window one driver run is sized for (``run_seconds`` in
#: ``BENCHMARK.json``); ``segments`` in the table below is calibrated on
#: the 2-core box the benchmark was defined on so the passes of one run
#: together train and predict for about this long.
RUN_SECONDS = 12

#: Passes (fresh subprocesses) per run — the measured window is split
#: evenly between them.
PASSES = 3

_SMALL_MODEL = dict(
    embedding_dim=4,
    hidden_layers=(16, 8),
    nonzeros_per_example=8,
    n_slots=4,
)


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    cluster: dict
    batch: int
    zipf: float
    warmup_rounds: int
    #: rounds per ``train_pipelined`` call — never scaled, so the
    #: pipeline-fill share of a segment is a constant of the workload
    segment_rounds: int
    #: segments per pass at ``RUN_SECONDS``
    segments: int
    #: ``enable_snapshot_stage`` keyword arguments (None = no stage)
    snapshot: dict | None = None


_PRESSURE_CLUSTER = dict(
    n_nodes=2,
    gpus_per_node=2,
    minibatches_per_gpu=1,
    mem_capacity_params=16_000,
    cache_lru_fraction=0.32,
    prefetch=True,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cache_resident",
            model=dict(_SMALL_MODEL, n_sparse=60_000),
            cluster=dict(
                n_nodes=2,
                gpus_per_node=2,
                minibatches_per_gpu=2,
                mem_capacity_params=80_000,
            ),
            batch=2048,
            zipf=1.05,
            warmup_rounds=30,
            segment_rounds=10,
            segments=20,
        ),
        Workload(
            name="ssd_pressure",
            model=dict(_SMALL_MODEL, n_sparse=100_000),
            cluster=_PRESSURE_CLUSTER,
            batch=3072,
            zipf=1.15,
            warmup_rounds=10,
            segment_rounds=10,
            segments=14,
        ),
        Workload(
            name="dense_heavy",
            model=dict(
                _SMALL_MODEL,
                embedding_dim=16,
                hidden_layers=(256, 128, 64),
                n_sparse=20_000,
            ),
            cluster=dict(
                n_nodes=4,
                gpus_per_node=2,
                minibatches_per_gpu=4,
                mem_capacity_params=40_000,
            ),
            batch=1024,
            zipf=1.05,
            warmup_rounds=5,
            segment_rounds=5,
            segments=8,
        ),
        Workload(
            name="snapshot_serving",
            model=dict(_SMALL_MODEL, n_sparse=100_000),
            cluster=_PRESSURE_CLUSTER,
            batch=3072,
            zipf=1.15,
            warmup_rounds=10,
            segment_rounds=10,
            segments=11,
            snapshot=dict(every=5, full_every=8, keep_last=4),
        ),
    )
}


def segments_for(workload: Workload, seconds: float) -> int:
    """Segments per pass for a ``--seconds`` budget.

    A pure function of the arguments — never of a clock — so the round
    count, and with it every simulated second and counter, repeats
    exactly for a given ``--seconds``.
    """
    return max(2, round(workload.segments * seconds / RUN_SECONDS))


def build_cluster(
    workload: Workload, seed: int, scratch: str
) -> tuple[HPSCluster, object | None]:
    """Construct the workload's cluster; returns ``(cluster, snapshot_fn)``.

    ``snapshot_fn`` is the registered snapshot stage (its ``history``
    carries every ``CheckpointStats``) or None.
    """
    spec = ModelSpec(
        name=workload.name,
        n_dense=1_000,
        size_gb=0.01,
        mpi_nodes=1,
        **workload.model,
    )
    config = ClusterConfig(
        ssd_file_capacity=256,
        hbm_capacity_params=200_000,
        seed=seed,
        **workload.cluster,
    )
    cluster = HPSCluster(
        spec,
        config,
        functional_batch_size=workload.batch,
        zipf_exponent=workload.zipf,
    )
    snapshot_fn = None
    if workload.snapshot is not None:
        snapshot_fn = cluster.enable_snapshot_stage(
            os.path.join(scratch, "snapshots"), **workload.snapshot
        )
    return cluster, snapshot_fn
