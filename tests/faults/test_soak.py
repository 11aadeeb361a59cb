"""Randomized fault soak: the tentpole recoverability invariant.

Fifty seeded schedules mixing every fault surface drive supervised runs
— half lockstep, half pipelined — against a pressured cluster whose MEM
tier spills real state to SSD.  Every run must finish all its rounds
with **zero unhandled exceptions** and end **bit-identical** to the
fault-free twin of its execution mode; across the suite, every fault
kind in the matrix must actually have fired (otherwise the soak is
vacuous for that surface).

``REPRO_SOAK_SEEDS`` trims the schedule count (CI runs a fixed small
subset; the full fifty run by default).  Seeds derive from one base via
:func:`repro.utils.rng.derive_seed`, so any failing index reproduces
standalone.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.faults import FAULT_KINDS, FaultSchedule, Supervisor
from repro.utils.rng import derive_seed

SOAK_BASE_SEED = 20_260_808
N_SCHEDULES = int(os.environ.get("REPRO_SOAK_SEEDS", "50"))
N_ROUNDS = 10

#: Per-operation rates tuned so the shared ``max_faults`` budget spreads
#: across every surface: high-frequency draw sites (HBM dispatch, per
#: stage stragglers) get low rates, rare sites (cold SSD reads, round
#: boundary crash probes) get high ones.
SOAK_RATES = {
    "ssd_read_error": 0.6,
    "ssd_torn_payload": 0.4,
    "ssd_write_stall": 0.5,
    "hdfs_timeout": 0.08,
    "hdfs_read_failure": 0.08,
    "comm_allreduce": 0.04,
    "hbm_dispatch": 0.01,
    "straggler": 0.08,
    "node_crash": 0.02,
}

#: kinds witnessed across the whole session's soak runs (module-level on
#: purpose: the coverage gate aggregates over all parametrized cases)
_FIRED: set[str] = set()


def _soak_schedule(index: int) -> FaultSchedule:
    return FaultSchedule(
        derive_seed(SOAK_BASE_SEED, "soak", index),
        rates=SOAK_RATES,
        max_faults=64,
    )


def _soak_spec():
    from repro.config import ModelSpec

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


def _soak_config():
    from repro.config import ClusterConfig

    return ClusterConfig(
        n_nodes=2,
        gpus_per_node=2,
        minibatches_per_gpu=2,
        mem_capacity_params=1_400,
        hbm_capacity_params=50_000,
        ssd_file_capacity=128,
        seed=7,
    )


@pytest.fixture(scope="module")
def twins():
    """One fault-free reference per execution mode (trained once).

    Module-scoped (the per-test fixtures in ``conftest`` are not), so the
    spec/config mirror ``tiny_spec``/``small_config`` with the pressured
    MEM budget from ``mk_pressured``.
    """
    from repro.core.cluster import HPSCluster

    spec, config = _soak_spec(), _soak_config()

    def mk():
        return HPSCluster(spec, config, functional_batch_size=512)

    lockstep = mk()
    lockstep.train(N_ROUNDS)
    pipelined = mk()
    pipelined.train_pipelined(N_ROUNDS)
    probe = lockstep.generator.batch(10_000, 512).unique_keys()
    return {False: lockstep, True: pipelined, "probe": probe, "mk": mk}


@pytest.mark.parametrize("index", range(N_SCHEDULES))
def test_soak_recoverable_schedule_is_bit_exact(index, twins, tmp_path):
    pipelined = index % 2 == 1
    schedule = _soak_schedule(index)
    supervisor = Supervisor(str(tmp_path / "sup"), checkpoint_every=2)
    run = supervisor.run(
        twins["mk"](), N_ROUNDS, schedule, pipelined=pipelined
    )

    assert run.rounds == N_ROUNDS
    twin = twins[pipelined]
    probe = twins["probe"]
    assert np.array_equal(
        run.cluster.lookup_embeddings(probe), twin.lookup_embeddings(probe)
    )
    for pa, pb in zip(
        run.cluster.nodes[0].model.dense_state(),
        twin.nodes[0].model.dense_state(),
    ):
        assert np.array_equal(pa, pb)
    # Time accounting stays coherent even under heavy recovery.
    assert run.downtime_fraction < 1.0
    assert run.training_seconds > 0.0

    _FIRED.update(r.kind for r in run.reports)


@pytest.mark.skipif(
    N_SCHEDULES < 50,
    reason="full-matrix coverage needs the complete soak (REPRO_SOAK_SEEDS>=50)",
)
def test_soak_exercised_every_fault_kind():
    """Aggregate gate: a silent surface would make the soak vacuous."""
    missing = set(FAULT_KINDS) - _FIRED
    assert not missing, f"fault kinds never fired during the soak: {missing}"
