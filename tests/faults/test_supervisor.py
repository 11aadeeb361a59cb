"""Supervisor recovery classification and fault-run determinism.

The first half scripts one escalation of each class — round retry,
partial restore, full restore, boundary crash — and checks both the
recovery action and the healed run's bit-parity with a fault-free twin.
The second half is the determinism satellite: the same seed must yield
the identical ``FaultReport`` sequence, identical ``fault_retry``
pricing, and bit-identical parameters across two runs, in both
execution modes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.faults import (
    FaultSchedule,
    RetryPolicy,
    Supervisor,
    UnrecoverableFaultError,
)


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
