"""Crash recovery from the checkpoint chain: a scripted ``node_crash``
under the :class:`~repro.faults.Supervisor` → restore → replay reaches
the state of a run that never failed, bit for bit.

A run from round 0 probes every node once per round boundary, so probe
op ``r + 1`` kills the node right after round ``r``.  The partial
restore at, and the one-round replay from, the round-0 baseline
snapshot live in ``tests/faults/test_supervisor.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster import HPSCluster
from repro.faults import FaultSchedule, Supervisor


def build(tiny_spec, small_config):
    return HPSCluster(tiny_spec, small_config, functional_batch_size=128)


def crash_after(node: int, round_index: int) -> FaultSchedule:
    """Node ``node`` dies right after round ``round_index``."""
    return FaultSchedule(0, script={("node_crash", node, round_index + 1): 1})


def supervise(cluster, directory, n_rounds, schedule, *, every):
    supervisor = Supervisor(str(directory), checkpoint_every=every)
    return supervisor.run(cluster, n_rounds, schedule)


def the_crash(run):
    (crash,) = [r for r in run.reports if r.kind == "node_crash"]
    return crash


def assert_same_final_state(a: HPSCluster, b: HPSCluster) -> None:
    probe = a.generator.batch(10_000, 1024).unique_keys()
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(
        a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()
    ):
        assert np.array_equal(pa, pb)
    eval_batch = a.generator.batch(20_000, 2048)
    assert a.evaluate_auc(eval_batch) == b.evaluate_auc(eval_batch)


def test_recovery_reaches_no_failure_state(tiny_spec, small_config, tmp_path):
    baseline = build(tiny_spec, small_config)
    baseline.train(6)

    run = supervise(
        build(tiny_spec, small_config), tmp_path, 6, crash_after(1, 4), every=3
    )
    assert run.cluster.rounds_completed == 6
    assert run.rounds == 6
    crash = the_crash(run)
    assert crash.node == 1
    assert crash.action == "full_restore"
    # Killed after round 4 (5 rounds complete); newest snapshot is round 3.
    assert crash.round == 5
    assert crash.round - crash.replay_rounds == 3
    assert crash.replay_rounds == 2
    assert run.restore_seconds > 0
    assert run.replay_seconds > 0
    assert run.downtime_seconds == pytest.approx(
        run.restore_seconds + run.replay_seconds
    )
    assert run.recoveries == 1
    assert_same_final_state(baseline, run.cluster)


def test_kill_right_after_snapshot_replays_one_round(
    tiny_spec, small_config, tmp_path
):
    baseline = build(tiny_spec, small_config)
    baseline.train(5)

    run = supervise(
        build(tiny_spec, small_config), tmp_path, 5, crash_after(0, 2), every=2
    )
    # Rounds 0-2 complete and the cadence snapshot of round 2 (a delta on
    # the round-0 full) committed one round earlier: only round 2 is
    # replayed.
    crash = the_crash(run)
    assert crash.action == "full_restore"
    assert crash.round - crash.replay_rounds == 2
    assert crash.replay_rounds == 1
    assert run.cluster.restore_stats.kind == "delta"
    assert run.cluster.restore_stats.directory == str(tmp_path / "round_000002")
    assert_same_final_state(baseline, run.cluster)


def test_checkpoint_accounting_in_report(tiny_spec, small_config, tmp_path):
    baseline = build(tiny_spec, small_config)
    baseline.train(4)

    run = supervise(
        build(tiny_spec, small_config), tmp_path, 4, crash_after(0, 1), every=3
    )
    # Round-0 snapshot + the cadence snapshot after round 2; the restore
    # reads round 0's back and writes nothing.
    assert [c.rounds_completed for c in run.checkpoints] == [0, 3]
    assert [c.kind for c in run.checkpoints] == ["full", "delta"]
    assert run.checkpoint_seconds > 0
    assert run.checkpoint_seconds == sum(c.seconds for c in run.checkpoints)
    assert_same_final_state(baseline, run.cluster)


def test_kill_before_any_cadence_snapshot_uses_round_zero(
    tiny_spec, small_config, tmp_path
):
    baseline = build(tiny_spec, small_config)
    baseline.train(3)

    run = supervise(
        build(tiny_spec, small_config), tmp_path, 3, crash_after(0, 1), every=10
    )
    crash = the_crash(run)
    assert crash.action == "full_restore"
    assert crash.round - crash.replay_rounds == 0  # the initial snapshot
    assert crash.replay_rounds == 2
    assert run.restore_seconds > 0
    assert run.replay_seconds > 0
    assert run.downtime_seconds == run.restore_seconds + run.replay_seconds
    assert_same_final_state(baseline, run.cluster)


def test_run_validates_arguments(tiny_spec, small_config, tmp_path):
    with pytest.raises(ValueError, match="checkpoint_every"):
        Supervisor(str(tmp_path), checkpoint_every=0)
    with pytest.raises(ValueError, match="max_recoveries"):
        Supervisor(str(tmp_path), max_recoveries=0)
    with pytest.raises(ValueError, match="n_rounds"):
        Supervisor(str(tmp_path)).run(
            build(tiny_spec, small_config), -1, FaultSchedule(0)
        )


def test_crash_the_run_never_reaches_is_never_probed(
    tiny_spec, small_config, tmp_path
):
    """A crash scripted after the last round, or of a node the cluster
    does not have, is never drawn: the run is clean."""
    schedule = FaultSchedule(
        0, script={("node_crash", 0, 3): 1, ("node_crash", 9, 1): 1}
    )
    run = supervise(build(tiny_spec, small_config), tmp_path, 3, schedule, every=2)
    assert run.reports == ()
    assert run.recoveries == 0
    assert schedule.faults_fired == 0


def test_partial_recovery_matches_no_failure_state(
    tiny_spec, small_config, tmp_path
):
    """The crash strikes right after a cadence snapshot committed, deep
    in a delta chain, so one replacement node splices in and nothing
    replays."""
    baseline = build(tiny_spec, small_config)
    baseline.train(8)

    run = supervise(
        build(tiny_spec, small_config), tmp_path, 8, crash_after(1, 5), every=2
    )
    assert run.cluster.rounds_completed == 8
    crash = the_crash(run)
    assert crash.action == "partial_restore"
    assert crash.node == 1
    # Recovered from the boundary snapshot the crash landed on.
    assert crash.round == 6
    assert crash.replay_rounds == 0
    assert run.replay_seconds == 0.0
    assert run.restore_seconds == crash.downtime_seconds > 0
    # The round-0 snapshot is full; every cadence snapshot after chains.
    assert [c.kind for c in run.checkpoints] == ["full"] + ["delta"] * 4
    assert_same_final_state(baseline, run.cluster)


def test_partial_recovery_is_cheaper_than_full(
    tiny_spec, small_config, tmp_path
):
    """Same crash round, both recovery paths: right after a cadence
    snapshot one replacement node splices in (delta chain, zero replay);
    at a coarser cadence the whole cluster restores and replays.  The
    splice-in must win on downtime (the paper's argument for tolerating
    single-node failures without a global rollback)."""
    baseline = build(tiny_spec, small_config)
    baseline.train(8)

    partial = supervise(
        build(tiny_spec, small_config),
        tmp_path / "partial",
        8,
        crash_after(1, 5),
        every=2,
    )
    full = supervise(
        build(tiny_spec, small_config),
        tmp_path / "full",
        8,
        crash_after(1, 5),
        every=4,
    )
    p, f = the_crash(partial), the_crash(full)
    assert p.action == "partial_restore" and p.replay_rounds == 0
    assert partial.replay_seconds == 0.0
    assert [c.kind for c in partial.checkpoints] == ["full"] + ["delta"] * 4
    assert f.action == "full_restore" and f.replay_rounds == 2
    assert partial.downtime_seconds < full.downtime_seconds
    assert_same_final_state(baseline, partial.cluster)
    assert_same_final_state(baseline, full.cluster)


def test_delta_snapshot_mode_full_recovery(tiny_spec, small_config, tmp_path):
    """A crash off the cadence restores the whole cluster through the
    delta chain (full@0 → delta@3 → delta@6), replays the lost rounds,
    and still reaches the no-failure state bit-identically."""
    baseline = build(tiny_spec, small_config)
    baseline.train(9)

    run = supervise(
        build(tiny_spec, small_config), tmp_path, 9, crash_after(0, 7), every=3
    )
    crash = the_crash(run)
    assert crash.action == "full_restore"
    assert crash.round - crash.replay_rounds == 6
    assert crash.replay_rounds == 2
    assert [c.kind for c in run.checkpoints] == ["full", "delta", "delta", "delta"]
    assert run.cluster.restore_stats.kind == "delta"
    assert run.replay_seconds > 0
    assert_same_final_state(baseline, run.cluster)


def test_recovery_ignores_stale_checkpoints_from_other_runs(
    tiny_spec, small_config, tmp_path
):
    """A reused directory holding a newer checkpoint from a *different*
    run (different config) must not derail recovery."""
    from repro.config import ClusterConfig

    other_config = ClusterConfig(
        n_nodes=small_config.n_nodes,
        gpus_per_node=small_config.gpus_per_node,
        minibatches_per_gpu=small_config.minibatches_per_gpu,
        mem_capacity_params=small_config.mem_capacity_params,
        hbm_capacity_params=small_config.hbm_capacity_params,
        ssd_file_capacity=small_config.ssd_file_capacity,
        seed=small_config.seed + 17,
    )
    # Previous run leaves a round-4 checkpoint of an incompatible config.
    stale = HPSCluster(tiny_spec, other_config, functional_batch_size=128)
    stale.train(4)
    stale.save_checkpoint(str(tmp_path / "round_000004"))

    baseline = build(tiny_spec, small_config)
    baseline.train(5)
    run = supervise(
        build(tiny_spec, small_config), tmp_path, 5, crash_after(0, 3), every=3
    )
    # Recovery restored this run's own round-3 snapshot, not the stale
    # (newer-looking) round-4 one.
    crash = the_crash(run)
    assert crash.action == "full_restore"
    assert crash.round - crash.replay_rounds == 3
    assert crash.replay_rounds == 1
    assert run.cluster.restore_stats.directory == str(tmp_path / "round_000003")
    assert_same_final_state(baseline, run.cluster)


def test_recovery_ignores_stale_same_config_snapshots(
    tiny_spec, small_config, tmp_path
):
    """A rerun of the same job in the same directory: the earlier run's
    newer snapshot fills the retention window, but pruning must not
    delete this run's own restore point or the baseline it chains to."""
    stale = build(tiny_spec, small_config)
    stale.train(8)
    stale.save_checkpoint(str(tmp_path / "round_000008"))

    baseline = build(tiny_spec, small_config)
    baseline.train(5)
    run = supervise(
        build(tiny_spec, small_config), tmp_path, 5, crash_after(0, 3), every=3
    )
    crash = the_crash(run)
    assert crash.action == "full_restore"
    assert crash.round - crash.replay_rounds == 3
    assert run.cluster.restore_stats.directory == str(tmp_path / "round_000003")
    assert_same_final_state(baseline, run.cluster)
