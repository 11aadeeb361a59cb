"""Checkpoint/restore and failure injection across the three-tier store.

Trains a 2-node deployment under the fault supervisor with
batch-granular snapshots (manifest + per-node shards, committed
atomically; a full snapshot, then deltas), crashes a node mid-run with a
scripted ``node_crash``, recovers through the paper's
restore-and-replay protocol, and verifies that the recovered cluster is
bit-identical — embeddings, dense tower, and AUC — to a run that never
failed.

Run:  python examples/checkpoint_failover.py
"""

import os
import tempfile

import numpy as np

from repro.bench.report import format_table
from repro.ckpt.format import CHECKPOINT_DIR_PREFIX
from repro.config import ClusterConfig, ModelSpec
from repro.core.cluster import HPSCluster
from repro.faults import FaultSchedule, Supervisor
from repro.faults.supervisor import FULL_EVERY, KEEP_LAST

N_ROUNDS = 8
CHECKPOINT_EVERY = 2
KILL_NODE = 1
KILL_AFTER_ROUND = 4


def build() -> HPSCluster:
    spec = ModelSpec(
        name="failover",
        nonzeros_per_example=8,
        n_sparse=60_000,
        n_dense=1_000,
        size_gb=0.01,
        mpi_nodes=10,
        embedding_dim=4,
        hidden_layers=(16, 8),
        n_slots=4,
    )
    config = ClusterConfig(
        n_nodes=2,
        gpus_per_node=2,
        minibatches_per_gpu=2,
        mem_capacity_params=4_000,  # small on purpose: exercises the SSD
        hbm_capacity_params=100_000,
        ssd_file_capacity=256,
        seed=3,
    )
    return HPSCluster(spec, config, functional_batch_size=512)


def main() -> None:
    print(f"Baseline: {N_ROUNDS} rounds straight through, no failure...")
    baseline = build()
    baseline.train(N_ROUNDS)

    print(
        f"Failure run: snapshot every {CHECKPOINT_EVERY} rounds, "
        f"node {KILL_NODE} dies after round {KILL_AFTER_ROUND}.\n"
    )
    # Node probes run once per round boundary: probe op k fires before
    # round k, so "dies right after round r" is op r + 1.
    crash = {("node_crash", KILL_NODE, KILL_AFTER_ROUND + 1): 1}
    with tempfile.TemporaryDirectory() as tmp:
        run = Supervisor(tmp, checkpoint_every=CHECKPOINT_EVERY).run(
            build(), N_ROUNDS, FaultSchedule(0, script=crash)
        )
        on_disk = [e for e in os.listdir(tmp) if e.startswith(CHECKPOINT_DIR_PREFIX)]
    recovered = run.cluster
    (report,) = run.reports

    print(
        format_table(
            ["snapshot @round", "kind", "simulated s", "bytes"],
            [
                (c.rounds_completed, c.kind, f"{c.seconds:.6f}", c.nbytes)
                for c in run.checkpoints
            ],
        )
    )
    # Retention keeps the newest chain only: the root stays bounded.
    bound = FULL_EVERY + KEEP_LAST - 1
    print(f"\n{len(on_disk)} snapshot directories left on disk (bound {bound})")
    assert len(on_disk) <= bound
    print(
        f"\nRecovery ({report.action}): restored the round-"
        f"{report.round - report.replay_rounds} snapshot in "
        f"{run.restore_seconds:.6f}s, replayed {report.replay_rounds} "
        f"lost round(s) in {run.replay_seconds:.6f}s "
        f"(total downtime {run.downtime_seconds:.6f}s)"
    )

    probe = baseline.generator.batch(10_000, 2048).unique_keys()
    sparse_ok = np.array_equal(
        baseline.lookup_embeddings(probe), recovered.lookup_embeddings(probe)
    )
    dense_ok = all(
        np.array_equal(a, b)
        for a, b in zip(
            baseline.nodes[0].model.dense_state(),
            recovered.nodes[0].model.dense_state(),
        )
    )
    eval_batch = baseline.generator.batch(20_000, 4096)
    auc_base = baseline.evaluate_auc(eval_batch)
    auc_rec = recovered.evaluate_auc(eval_batch)
    print(
        f"\nParity vs never-failed run — embeddings: {sparse_ok}, "
        f"dense tower: {dense_ok}, AUC: {auc_base:.6f} vs {auc_rec:.6f}"
    )
    assert sparse_ok and dense_ok and auc_base == auc_rec
    print("Recovered cluster is bit-identical to the run that never failed.")


if __name__ == "__main__":
    main()
