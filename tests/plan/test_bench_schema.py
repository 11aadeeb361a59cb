"""Schema validation of the ``BENCH_e2e.json`` ledger (v7)."""

import json
import pathlib

import pytest

from repro.bench.harness import BENCH_E2E_SCHEMA, run_e2e_throughput

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: The recovery scenario's rows are simulated-seconds/bytes based.
RECOVERY_ROW_FIELDS = {
    "snapshot-overhead": {
        "n_snapshots": int,
        "full_bytes": int,
        "delta_bytes_mean": float,
        "bytes_ratio_full_over_delta": float,
        "snapshot_sim_seconds": float,
        "snapshot_serialize_seconds": float,
        "snapshot_transfer_seconds": float,
        "snapshot_overlap_saving_seconds": float,
        "baseline_makespan": float,
        "snapshot_makespan": float,
        "makespan_overhead": float,
    },
    "recovery-downtime": {
        "full_restore_seconds": float,
        "full_replay_seconds": float,
        "full_recovery_seconds": float,
        "full_rounds_replayed": int,
        "partial_restore_seconds": float,
        "partial_recovery_seconds": float,
        "partial_rounds_replayed": int,
        "recovery_speedup_partial_over_full": float,
    },
}

#: The faults scenario's rows are simulated-seconds based (like the
#: recovery rows); both modes carry the same field set.
FAULTS_ROW_FIELDS = {
    "faults_fired": int,
    "retries": int,
    "recoveries": int,
    "reports": int,
    "training_sim_seconds": float,
    "restore_sim_seconds": float,
    "replay_sim_seconds": float,
    "downtime_sim_seconds": float,
    "mttr_seconds": float,
    "downtime_fraction": float,
    "retry_overhead_seconds": float,
    "straggler_seconds": float,
    "bytes_reread": int,
}
FAULTS_MODES = {"faults-lockstep", "faults-pipelined"}


def validate_bench_e2e(doc: dict) -> None:
    assert doc["schema"] == BENCH_E2E_SCHEMA
    scenarios = {s["name"]: s for s in doc["scenarios"]}
    assert [s["name"] for s in doc["scenarios"]] == ["recovery", "faults"]

    recovery = scenarios["recovery"]
    for key in (
        "model",
        "n_rounds",
        "n_sparse",
        "zipf_exponent",
        "warmup_rounds",
        "batch_size",
        "checkpoint_every",
        "kill_node",
        "seed",
    ):
        assert key in recovery["workload"], f"recovery workload missing {key}"
    assert isinstance(recovery["snapshot_parameter_parity"], bool)
    assert isinstance(recovery["recovery_parameter_parity"], bool)
    assert isinstance(recovery["bytes_ratio_full_over_delta"], float)
    by_mode = {r["mode"]: r for r in recovery["rows"]}
    assert set(by_mode) == set(RECOVERY_ROW_FIELDS)
    for mode, fields in RECOVERY_ROW_FIELDS.items():
        for field, typ in fields.items():
            assert isinstance(by_mode[mode][field], typ), f"{mode}.{field}"
    # Shape facts that hold at any scale, fresh or committed: deltas
    # really are cheaper than fulls, and the splice-in partial restore
    # replays nothing while the full restore replays something.
    assert by_mode["snapshot-overhead"]["bytes_ratio_full_over_delta"] > 1.0
    # The serialize/transfer split must account for the snapshot cost:
    # the flow-shop makespan saves real seconds over the serial sum but
    # never beats the transfer component alone.
    overhead = by_mode["snapshot-overhead"]
    assert overhead["snapshot_overlap_saving_seconds"] > 0.0
    assert overhead["snapshot_sim_seconds"] == pytest.approx(
        overhead["snapshot_serialize_seconds"]
        + overhead["snapshot_transfer_seconds"]
        - overhead["snapshot_overlap_saving_seconds"]
    )
    assert (
        overhead["snapshot_sim_seconds"]
        >= overhead["snapshot_transfer_seconds"]
    )
    assert by_mode["recovery-downtime"]["partial_rounds_replayed"] == 0
    assert by_mode["recovery-downtime"]["full_rounds_replayed"] > 0

    faults = scenarios["faults"]
    for key in (
        "model",
        "n_rounds",
        "n_sparse",
        "mem_capacity_params",
        "batch_size",
        "checkpoint_every",
        "schedule_seed",
        "max_faults",
        "rates",
        "seed",
    ):
        assert key in faults["workload"], f"faults workload missing {key}"
    assert isinstance(faults["parameter_parity"], bool)
    assert isinstance(faults["fault_kinds_fired"], list)
    by_mode = {r["mode"]: r for r in faults["rows"]}
    assert set(by_mode) == FAULTS_MODES
    for mode, row in by_mode.items():
        for field, typ in FAULTS_ROW_FIELDS.items():
            assert isinstance(row[field], typ), f"{mode}.{field}"
        assert "rounds_per_s" not in row  # simulated clock only
        # The schedule must have actually fired and been absorbed: a
        # fault-free 'faults' scenario would gate nothing.
        assert row["faults_fired"] > 0, mode
        assert row["retry_overhead_seconds"] > 0.0, mode
        assert 0.0 <= row["downtime_fraction"] < 1.0, mode
    # The healed runs must be bit-identical to their fault-free twins —
    # the tentpole invariant, recorded in the committed artifact.
    assert faults["parameter_parity"] is True
    assert faults["fault_kinds_fired"]


class TestBenchSchema:
    def test_fresh_run_matches_schema_and_roundtrips(self, tmp_path):
        out = tmp_path / "BENCH_e2e.json"
        result = run_e2e_throughput(n_rounds=2, write_path=str(out))
        validate_bench_e2e(result)
        validate_bench_e2e(json.loads(out.read_text()))

    def test_committed_ledger_is_valid(self):
        path = REPO_ROOT / "BENCH_e2e.json"
        if not path.exists():
            pytest.fail("BENCH_e2e.json must be committed at the repo root")
        validate_bench_e2e(json.loads(path.read_text()))

    def test_committed_ledger_records_delta_snapshot_win(self):
        """The delta-checkpoint acceptance claims, read from the
        committed artifact so they are deterministic everywhere:

        * steady-state delta snapshots are ≥10× smaller than a full
          snapshot of the same state (the PR-7 tentpole claim), and
        * partial (single-node splice-in) recovery is strictly faster
          than full-cluster restore + replay, with bit-identical
          parameters in both cases.

        These numbers come off the simulated clock and byte counts, so
        a regeneration that moves them reflects a real semantic change,
        not machine noise.
        """
        doc = json.loads((REPO_ROOT / "BENCH_e2e.json").read_text())
        recovery = {s["name"]: s for s in doc["scenarios"]}["recovery"]
        assert recovery["bytes_ratio_full_over_delta"] >= 10.0
        assert recovery["snapshot_parameter_parity"] is True
        assert recovery["recovery_parameter_parity"] is True
        by_mode = {r["mode"]: r for r in recovery["rows"]}
        downtime = by_mode["recovery-downtime"]
        assert (
            downtime["partial_recovery_seconds"]
            < downtime["full_recovery_seconds"]
        )
