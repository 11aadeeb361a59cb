"""Checkpoint overhead and failure recovery (paper Section 7).

Paper shape: batch-granular snapshots of the hierarchical parameter
server make machine failures survivable by restore-and-replay, and
recovery lands bit-identically on the state a never-failed run reaches —
fault tolerance costs snapshot I/O, never model quality.
"""

from repro.bench.harness import run_checkpoint_overhead
from repro.bench.report import format_table


def test_checkpoint_overhead(benchmark):
    row = benchmark.pedantic(run_checkpoint_overhead, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["metric", "value"],
            [
                ("rounds", row["n_rounds"]),
                ("snapshot cadence (rounds)", row["checkpoint_every"]),
                ("snapshots taken", row["n_checkpoints"]),
                ("training time (s)", row["train_seconds"]),
                ("snapshot time (s)", row["checkpoint_seconds"]),
                ("snapshot bytes", row["checkpoint_bytes"]),
                ("overhead fraction", row["checkpoint_overhead"]),
                ("killed node", row["kill_node"]),
                ("killed after round", row["kill_after_round"]),
                ("restored from round", row["checkpoint_round"]),
                ("rounds replayed", row["rounds_replayed"]),
                ("restore time (s)", row["restore_seconds"]),
                ("replay time (s)", row["replay_seconds"]),
                ("recovery downtime (s)", row["recovery_seconds"]),
                ("parameter parity", row["parameter_parity"]),
            ],
            title="Checkpoint overhead and failure recovery",
        )
    )
    # Recovery is lossless: the replayed run is bit-identical to one that
    # never failed.
    assert row["parameter_parity"] is True
    # Replay is bounded by the snapshot cadence.
    assert 0 < row["rounds_replayed"] <= row["checkpoint_every"]
    assert row["restore_seconds"] > 0
    assert row["recovery_seconds"] > row["restore_seconds"]
    # Snapshots cost real (simulated) I/O but stay amortizable: one
    # snapshot costs less than the cadence of training rounds it
    # protects (the functional workload's rounds are unrealistically
    # cheap next to its state size, so per-round is the wrong yardstick
    # for a single snapshot).
    per_snapshot = row["checkpoint_seconds"] / row["n_checkpoints"]
    per_round = row["train_seconds"] / row["n_rounds"]
    assert per_snapshot < row["checkpoint_every"] * per_round
