"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ClusterConfig, ModelSpec
from repro.data.batching import Batch
from repro.hbm.partition import ModuloPartitioner
from repro.plan import RoundPlan, build_round_plan


@pytest.fixture
def tiny_spec() -> ModelSpec:
    return ModelSpec(
        name="tiny",
        nonzeros_per_example=8,
        n_sparse=5_000,
        n_dense=1_000,
        size_gb=0.001,
        mpi_nodes=10,
        embedding_dim=4,
        hidden_layers=(16, 8),
        n_slots=4,
    )


@pytest.fixture
def small_config() -> ClusterConfig:
    return ClusterConfig(
        n_nodes=2,
        gpus_per_node=2,
        minibatches_per_gpu=2,
        mem_capacity_params=4_000,
        hbm_capacity_params=50_000,
        ssd_file_capacity=128,
        seed=7,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def round_plan():
    """Build a :class:`RoundPlan` from explicit key arrays.

    ``shards[i][s]`` is the key list of node ``i``'s worker shard ``s``
    (``n_gpus * mb_rounds`` shards per node, one example each, so the
    contiguous shard split hands every worker exactly its list).  The
    tier unit tests drive ``MemPS`` / ``HBMPS`` through the same planned
    calls the cluster makes, on key sets they choose.
    """

    def build(
        shards,
        *,
        n_gpus: int = 1,
        mb_rounds: int = 1,
        node_partitioner: ModuloPartitioner | None = None,
        gpu_partitioner: ModuloPartitioner | None = None,
    ) -> RoundPlan:
        batches = []
        for node_shards in shards:
            assert len(node_shards) == n_gpus * mb_rounds
            keys = [np.asarray(k, dtype=np.uint64) for k in node_shards]
            offsets = np.concatenate([[0], np.cumsum([k.size for k in keys])])
            batches.append(
                Batch(np.concatenate(keys), offsets, np.zeros(len(keys)))
            )
        return build_round_plan(
            batches,
            node_partitioner=node_partitioner or ModuloPartitioner(len(shards)),
            gpu_partitioner=gpu_partitioner or ModuloPartitioner(n_gpus),
            n_gpus=n_gpus,
            mb_rounds=mb_rounds,
        )

    return build
