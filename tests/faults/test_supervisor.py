"""Supervisor recovery classification and fault-run determinism.

The first half scripts one escalation of each class — round retry,
partial restore, full restore, boundary crash — and checks both the
recovery action and the healed run's bit-parity with a fault-free twin.
The determinism satellite: the same seed must yield the identical
``FaultReport`` sequence, identical ``fault_retry`` pricing, and
bit-identical parameters across two runs, in both execution modes.  The
last class holds the supervisor's snapshot stage to its bounds: a
chain and a checkpoint root that stop growing however long the run, one
record across restores, and no stage left behind.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.ckpt.format import (
    CHECKPOINT_DIR_PREFIX,
    latest_checkpoint,
    resolve_chain,
)
from repro.core.cluster import HPSCluster
from repro.faults import (
    FaultSchedule,
    RetryPolicy,
    Supervisor,
    UnrecoverableFaultError,
)
from repro.faults.supervisor import FULL_EVERY, KEEP_LAST


def assert_param_parity(a, b) -> None:
    probe = a.generator.batch(10_000, 512).unique_keys()
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(
        a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()
    ):
        assert np.array_equal(pa, pb)


def run_supervised(mk, tmp_path, schedule, *, n_rounds=6, pipelined=False, **kw):
    sup = Supervisor(str(tmp_path / "sup"), checkpoint_every=2, **kw)
    return sup.run(mk(), n_rounds, schedule, pipelined=pipelined)


class TestRecoveryActions:
    def test_clean_schedule_is_a_no_op(self, mk_cluster, tmp_path):
        twin = mk_cluster()
        twin.train(6)
        run = run_supervised(mk_cluster, tmp_path, FaultSchedule(0))
        assert run.rounds == 6
        assert run.reports == ()
        assert run.recoveries == 0
        assert run.downtime_seconds == 0.0
        assert_param_parity(run.cluster, twin)

    def test_round_scope_fault_retries_the_round(self, mk_cluster, tmp_path):
        twin = mk_cluster()
        twin.train(6)
        schedule = FaultSchedule(0, script={("hdfs_timeout", 1, 2): 8})
        run = run_supervised(mk_cluster, tmp_path, schedule)
        actions = [r.action for r in run.reports]
        assert "retry_round" in actions
        assert "full_restore" not in actions
        retry = next(r for r in run.reports if r.action == "retry_round")
        assert retry.kind == "hdfs_timeout"
        assert retry.stage == "read"
        assert run.rounds == 6
        assert_param_parity(run.cluster, twin)

    def test_global_scope_fault_full_restores_and_replays(
        self, mk_cluster, tmp_path
    ):
        twin = mk_cluster()
        twin.train(6)
        # hbm_dispatch exhaustion escapes mid-train: global scope.
        schedule = FaultSchedule(0, script={("hbm_dispatch", 0, 5): 8})
        run = run_supervised(mk_cluster, tmp_path, schedule)
        full = next(r for r in run.reports if r.action == "full_restore")
        assert full.kind == "hbm_dispatch"
        assert run.restore_seconds > 0.0
        assert run.downtime_seconds > 0.0
        assert run.mttr_seconds > 0.0
        assert 0.0 < run.downtime_fraction < 1.0
        assert run.rounds == 6
        assert_param_parity(run.cluster, twin)

    def test_boundary_crash_at_checkpoint_heals_partially(
        self, mk_cluster, tmp_path
    ):
        twin = mk_cluster()
        twin.train(6)
        # First probe of node 1 fires at round 0 — exactly where the
        # baseline checkpoint sits, so a partial restore suffices.
        schedule = FaultSchedule(0, script={("node_crash", 1, 0): 1})
        run = run_supervised(mk_cluster, tmp_path, schedule)
        (crash,) = [r for r in run.reports if r.kind == "node_crash"]
        assert crash.action == "partial_restore"
        assert crash.node == 1
        assert crash.replay_rounds == 0
        assert run.rounds == 6
        assert_param_parity(run.cluster, twin)

    def test_partially_restored_node_is_armed(self, mk_pressured, tmp_path):
        """Regression: the replacement a partial restore splices in
        carries the injection's arms — its SSD, HDFS and HBM surfaces are
        guarded, a fault scripted on its SSD fires — and its straggler
        seconds land on its own ledger.  (The replacement used to run
        unarmed, and node 1's stragglers were charged to the dead node's
        ledger, so the live one read 0.0.)"""
        twin = mk_pressured()
        twin.train(10)
        schedule = FaultSchedule(
            0,
            rates={"straggler": 0.5},
            max_faults=10_000,
            script={("node_crash", 1, 0): 1, ("ssd_read_error", 1, 0): 1},
        )
        cluster = mk_pressured()
        armed = []

        def probe(ctx) -> float:
            node = cluster.nodes[1]
            armed.append(
                (node.ssd_ps.store.faults, node.hdfs.faults, node.hbm_ps.faults)
            )
            return 0.0

        cluster.register_stage("probe", probe, after="train")
        original = cluster.nodes[1]
        run = Supervisor(str(tmp_path / "sup"), checkpoint_every=2).run(
            cluster, 10, schedule
        )
        (crash,) = [r for r in run.reports if r.kind == "node_crash"]
        assert (crash.action, crash.node, crash.round) == ("partial_restore", 1, 0)
        assert cluster.nodes[1] is not original
        assert len(armed) == 10
        assert all(all(arm is not None for arm in arms) for arms in armed)
        assert [
            (r.surface, r.action) for r in run.reports if r.kind == "ssd_read_error"
        ] == [("ssd", "retried")]
        for node in cluster.nodes:
            straggled = [
                r.downtime_seconds
                for r in run.reports
                if r.action == "straggler" and r.node == node.node_id
            ]
            assert straggled
            assert node.ledger.total("fault_straggler") == sum(straggled)
        assert_param_parity(run.cluster, twin)

    def test_boundary_crash_off_checkpoint_full_restores(
        self, mk_cluster, tmp_path
    ):
        twin = mk_cluster()
        twin.train(6)
        # Probe op 1 lands at round 1 (odd boundary, cadence 2): the
        # newest snapshot is round 0, so the crash costs a full restore
        # with one replayed round.
        schedule = FaultSchedule(0, script={("node_crash", 0, 1): 1})
        run = run_supervised(mk_cluster, tmp_path, schedule)
        (crash,) = [r for r in run.reports if r.kind == "node_crash"]
        assert crash.action == "full_restore"
        assert crash.replay_rounds == 1
        assert run.replay_seconds > 0.0
        assert run.rounds == 6
        assert_param_parity(run.cluster, twin)

    def test_second_full_restore_prices_only_its_own_read(
        self, mk_cluster, tmp_path
    ):
        """Regression: a restored cluster's ledgers carry the snapshot's
        cost history — an earlier restore's ``ckpt_read`` included — so
        a restore priced off the ledger counted the first read again."""
        twin = mk_cluster()
        twin.train(10)
        # Op 3 lands at round 3 (newest snapshot 2); probes keep counting
        # through the replay, so op 9 lands at round 7 (newest 6, taken
        # after the first restore).
        schedule = FaultSchedule(
            0, script={("node_crash", 0, 3): 1, ("node_crash", 0, 9): 1}
        )
        run = run_supervised(mk_cluster, tmp_path, schedule, n_rounds=10)
        crashes = [r for r in run.reports if r.kind == "node_crash"]
        assert [(c.round, c.action) for c in crashes] == [
            (3, "full_restore"),
            (7, "full_restore"),
        ]
        assert crashes[1].downtime_seconds == run.cluster.restore_stats.seconds
        assert run.restore_seconds == (
            crashes[0].downtime_seconds + crashes[1].downtime_seconds
        )
        assert run.rounds == 10
        assert_param_parity(run.cluster, twin)

    def test_pipelined_escape_full_restores(self, mk_cluster, tmp_path):
        twin = mk_cluster()
        twin.train_pipelined(6)
        schedule = FaultSchedule(0, script={("hdfs_read_failure", 0, 3): 8})
        run = run_supervised(mk_cluster, tmp_path, schedule, pipelined=True)
        # Round scope, but pipelined: the supervisor must not retry in
        # place — overlapped rounds may already be staged.
        full = [r for r in run.reports if r.action == "full_restore"]
        assert full
        assert run.rounds == 6
        assert_param_parity(run.cluster, twin)

    def test_recovery_budget_raises_typed_error(self, mk_cluster, tmp_path):
        schedule = FaultSchedule(
            0,
            script={("node_crash", 0, i): 1 for i in range(4)},
        )
        with pytest.raises(UnrecoverableFaultError):
            run_supervised(
                mk_cluster, tmp_path, schedule, max_recoveries=2
            )

    def test_round_retry_budget_escalates_to_full_restore(
        self, mk_cluster, tmp_path
    ):
        twin = mk_cluster()
        twin.train(4)
        # Four consecutive exhausted reads of the same round: retries 3
        # times (policy default), then escalates.
        schedule = FaultSchedule(
            0,
            script={("hdfs_timeout", 0, i): 8 for i in range(4)},
        )
        run = run_supervised(mk_cluster, tmp_path, schedule, n_rounds=4)
        actions = [r.action for r in run.reports if r.action != "retried"]
        assert actions.count("retry_round") == RetryPolicy().max_round_retries
        assert "full_restore" in actions
        assert run.rounds == 4
        assert_param_parity(run.cluster, twin)


class TestQuarantineUnderSupervision:
    def test_ssd_exhaustion_is_absorbed_by_quarantine(
        self, mk_pressured, tmp_path
    ):
        twin = mk_pressured()
        twin.train(10)
        # Every cold SSD read on node 0 fails hard from op 0 on; the
        # checkpoint chain the supervisor maintains re-materializes each
        # quarantined file, so no restore is ever needed for them.
        schedule = FaultSchedule(
            0,
            script={("ssd_read_error", 0, i): 8 for i in range(3)},
        )
        run = run_supervised(
            mk_pressured, tmp_path, schedule, n_rounds=10
        )
        quarantines = [r for r in run.reports if r.action == "quarantine"]
        assert quarantines
        assert all(q.bytes_reread > 0 for q in quarantines)
        assert run.totals["bytes_reread"] > 0
        assert run.rounds == 10
        assert_param_parity(run.cluster, twin)


class TestDeterminism:
    """Satellite: same seed -> same reports, same pricing, same bits."""

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_identical_runs(self, mk_cluster, tmp_path, pipelined):
        def once(tag: str):
            schedule = FaultSchedule.mixed(1234, rate=0.2)
            sup = Supervisor(str(tmp_path / tag), checkpoint_every=2)
            return sup.run(mk_cluster(), 6, schedule, pipelined=pipelined)

        a = once("a")
        b = once("b")
        assert a.reports, "schedule must actually fire for this test to bite"
        assert [dataclasses.astuple(r) for r in a.reports] == [
            dataclasses.astuple(r) for r in b.reports
        ]
        assert a.totals == b.totals
        assert a.training_seconds == b.training_seconds
        assert a.downtime_seconds == b.downtime_seconds
        # Ledger pricing is bit-identical, not just close.
        for na, nb in zip(a.cluster.nodes, b.cluster.nodes):
            assert na.ledger.total("fault_retry") == nb.ledger.total(
                "fault_retry"
            )
            assert na.ledger.total("fault_straggler") == nb.ledger.total(
                "fault_straggler"
            )
        assert_param_parity(a.cluster, b.cluster)


def has_snapshot_stage(cluster) -> bool:
    return any(spec.name == "snapshot" for spec in cluster.stage_specs())


class TestBoundedSnapshots:
    """The snapshot stage is the supervisor's only periodic writer."""

    def test_long_run_keeps_the_chain_and_root_bounded(
        self, mk_cluster, tmp_path
    ):
        root = str(tmp_path / "sup")
        bound = FULL_EVERY + KEEP_LAST - 1
        seen: list[tuple[int, int]] = []

        def probe(ctx) -> float:
            # Registered before the supervisor's stage, both after
            # ``train``: this runs right after every snapshot commits.
            if cluster.rounds_completed % 2 == 0:
                dirs = [
                    e for e in os.listdir(root) if e.startswith(CHECKPOINT_DIR_PREFIX)
                ]
                chain = resolve_chain(latest_checkpoint(root))
                seen.append((len(dirs), len(chain)))
            return 0.0

        cluster = mk_cluster()
        cluster.register_stage("probe", probe, after="train")
        run = Supervisor(root, checkpoint_every=2).run(
            cluster, 200, FaultSchedule(0)
        )
        assert run.rounds == 200
        assert len(seen) == 100
        assert max(n_dirs for n_dirs, _ in seen) <= bound
        assert max(length for _, length in seen) == FULL_EVERY
        # The record is every snapshot taken (the disk keeps only the
        # newest chain): the baseline plus one per cadence point.
        assert [c.rounds_completed for c in run.checkpoints] == list(
            range(0, 201, 2)
        )

        newest = latest_checkpoint(root)
        assert newest == run.checkpoints[-1].directory
        straight = mk_cluster()
        straight.train(200)
        assert_param_parity(HPSCluster.restore(newest), straight)
        assert_param_parity(run.cluster, straight)

    def test_restored_cluster_keeps_the_chain_bound(self, mk_cluster, tmp_path):
        """A full restore from a chain already ``FULL_EVERY`` long must
        start a new full at the restored cluster's first snapshot."""
        # Both nodes die at round 7, where the chain is full@0 + 7 deltas.
        schedule = FaultSchedule(
            0, script={("node_crash", 0, 7): 1, ("node_crash", 1, 7): 1}
        )
        sup = Supervisor(str(tmp_path / "sup"), checkpoint_every=1)
        run = sup.run(mk_cluster(), 12, schedule)
        (crash,) = [r for r in run.reports if r.kind == "node_crash"]
        assert (crash.action, crash.round, crash.replay_rounds) == (
            "full_restore",
            7,
            0,
        )
        assert [c.rounds_completed for c in run.checkpoints] == list(range(13))
        lengths = []
        for c in run.checkpoints:
            lengths.append(1 if c.kind == "full" else lengths[-1] + 1)
        assert lengths == [1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_unaligned_start_snapshots_on_absolute_multiples(
        self, mk_cluster, tmp_path, pipelined
    ):
        """A run started at round 3 with cadence 2 snapshots at rounds 4,
        6 and 8 (its first pipelined chunk is one round), and a fault
        away from a cadence point restores from one of those and replays
        to the fault-free state."""
        twin = mk_cluster()
        cluster = mk_cluster()
        if pipelined:
            twin.train_pipelined(9)
            cluster.train_pipelined(3)
            # Round 5's read (op 2 from the start) escapes mid-chunk 4–6.
            schedule = FaultSchedule(0, script={("hdfs_read_failure", 0, 2): 8})
            restored_from = 4
        else:
            twin.train(9)
            cluster.train(3)
            # Node 0 dies right after round 6 (rounds completed: 7).
            schedule = FaultSchedule(0, script={("node_crash", 0, 7 - 3): 1})
            restored_from = 6
        sup = Supervisor(str(tmp_path / "sup"), checkpoint_every=2)
        run = sup.run(cluster, 6, schedule, pipelined=pipelined)
        (full,) = [r for r in run.reports if r.action == "full_restore"]
        assert full.round - full.replay_rounds == restored_from
        assert full.replay_rounds == 1
        assert run.replay_seconds > 0.0
        assert [c.rounds_completed for c in run.checkpoints] == [3, 4, 6, 8]
        assert run.rounds == 6
        assert_param_parity(run.cluster, twin)

    def test_record_spans_a_full_restore(self, mk_cluster, tmp_path, monkeypatch):
        registered = []
        enable = HPSCluster.enable_snapshot_stage

        def spy(cluster, *args, **kwargs):
            registered.append(cluster)
            return enable(cluster, *args, **kwargs)

        monkeypatch.setattr(HPSCluster, "enable_snapshot_stage", spy)
        twin = mk_cluster()
        twin.train_pipelined(6)
        # Round 3's read escapes mid-chunk: full restore from round 2.
        schedule = FaultSchedule(0, script={("hdfs_read_failure", 0, 3): 8})
        original = mk_cluster()
        nodes = list(original.nodes)
        run = run_supervised(lambda: original, tmp_path, schedule, pipelined=True)
        (full,) = [r for r in run.reports if r.action == "full_restore"]
        assert full.round - full.replay_rounds == 2
        # The restore heals the cluster handed in, in place: every node
        # is new, the object and its one registration are not.
        assert run.cluster is original
        assert registered == [original]
        assert not any(a is b for a, b in zip(nodes, original.nodes))
        # Baseline, then rounds 2 (before the restore), 4 and 6.
        rounds = [c.rounds_completed for c in run.checkpoints]
        assert rounds == [0, 2, 4, 6]
        assert [c.kind for c in run.checkpoints] == ["full"] + ["delta"] * 3
        assert run.checkpoints[0].directory.endswith("round_000000")
        # The cluster does not keep the supervisor's stage.
        assert not has_snapshot_stage(original)
        assert_param_parity(run.cluster, twin)

    def test_returned_cluster_trains_without_the_stage(self, mk_cluster, tmp_path):
        root = tmp_path / "sup"
        run = run_supervised(mk_cluster, tmp_path, FaultSchedule(0))
        assert not has_snapshot_stage(run.cluster)
        on_disk = sorted(os.listdir(root))
        run.cluster.train(2)  # round 8: a cadence point, were the stage left
        assert sorted(os.listdir(root)) == on_disk

    def test_refuses_a_cluster_with_its_own_snapshot_stage(
        self, mk_cluster, tmp_path
    ):
        cluster = mk_cluster()
        cluster.enable_snapshot_stage(str(tmp_path / "own"), every=2)
        specs = cluster.stage_specs()
        sup = Supervisor(str(tmp_path / "sup"), checkpoint_every=2)
        with pytest.raises(ValueError, match="snapshot"):
            sup.run(cluster, 4, FaultSchedule(0))
        assert cluster.rounds_completed == 0
        assert cluster.stage_specs() == specs
        assert not os.path.exists(tmp_path / "sup")
