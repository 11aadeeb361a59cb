"""Each fault surface, driven by scripted schedules.

Every test pins the schedule with ``script`` entries so the exact path
under test — absorb, stall, quarantine, typed escape — fires
deterministically, and checks both the behavioural outcome and the
pricing side effects (``fault_retry`` / ``fault_straggler`` ledger
lines, incident records).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ckpt.format import node_shard_name
from repro.core.cluster import RoundContext
from repro.faults import (
    FaultError,
    FaultSchedule,
    PayloadLostError,
    FaultInjection,
)
from repro.faults.policy import MAX_ATTEMPTS, FaultArm
from repro.faults.schedule import STRAGGLER_MIN
from repro.ssd.file_store import FileStore


def fault_retry_total(cluster) -> float:
    return sum(n.ledger.total("fault_retry") for n in cluster.nodes)


def assert_param_parity(a, b) -> None:
    probe = a.generator.batch(10_000, 512).unique_keys()
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()):
        assert np.array_equal(pa, pb)


class TestHDFSSurface:
    def test_absorbed_timeout_prices_retry_without_forking_data(
        self, mk_cluster, tmp_path
    ):
        twin = mk_cluster()
        twin.train(3)

        cluster = mk_cluster()
        schedule = FaultSchedule(0, script={("hdfs_timeout", 0, 1): 2})
        injection = FaultInjection(schedule, str(tmp_path / "ckpt")).attach(cluster)
        cluster.train(3)
        injection.detach()

        assert fault_retry_total(cluster) > 0.0
        (incident,) = injection.incidents
        assert (incident.kind, incident.action) == ("hdfs_timeout", "retried")
        assert incident.retries == 2
        assert_param_parity(cluster, twin)

    def test_exhausted_read_escapes_with_round_scope(self, mk_cluster, tmp_path):
        cluster = mk_cluster()
        schedule = FaultSchedule(0, script={("hdfs_read_failure", 1, 0): 8})
        injection = FaultInjection(schedule, str(tmp_path / "ckpt")).attach(cluster)
        with pytest.raises(FaultError) as exc:
            cluster.train_round()
        err = exc.value
        assert (err.scope, err.kind, err.node) == ("round", "hdfs_read_failure", 1)
        assert err.stage == "read"
        # Nothing was staged: the boundary is intact and the identical
        # round retries cleanly after discarding in-flight residency.
        assert cluster._staged_rounds == 0
        cluster.abort_round()
        injection.detach()
        cluster.train(3)

        twin = mk_cluster()
        twin.train(3)
        assert_param_parity(cluster, twin)


class TestStageSurfaces:
    def test_stragglers_stretch_clock_but_not_values(self, mk_cluster, tmp_path):
        twin = mk_cluster()
        twin_run = twin.train_pipelined(4)

        cluster = mk_cluster()
        schedule = FaultSchedule(2, rates={"straggler": 1.0}, max_faults=10_000)
        injection = FaultInjection(schedule, str(tmp_path / "ckpt")).attach(cluster)
        run = cluster.train_pipelined(4)
        injection.detach()

        straggle = sum(n.ledger.total("fault_straggler") for n in cluster.nodes)
        assert straggle > 0.0
        assert all(i.action == "straggler" for i in injection.incidents)
        assert_param_parity(cluster, twin)
        # The slowdown lands on the simulated clock (the round loop records
        # the wrapped stages' durations), never in the trained values:
        # at rate 1 every stage stretches by at least STRAGGLER_MIN, so
        # the makespan does too.
        assert run.makespan >= STRAGGLER_MIN * twin_run.makespan - 1e-9

    def test_comm_fault_escapes_globally_from_train_stage(self, mk_cluster, tmp_path):
        cluster = mk_cluster()
        schedule = FaultSchedule(0, script={("comm_allreduce", None, 0): 8})
        FaultInjection(schedule, str(tmp_path / "ckpt")).attach(cluster)
        with pytest.raises(FaultError) as exc:
            cluster.train_round()
        assert exc.value.scope == "global"
        assert exc.value.stage == "train"

    def test_hbm_dispatch_absorbed_is_transparent(self, mk_cluster, tmp_path):
        twin = mk_cluster()
        twin.train(2)

        cluster = mk_cluster()
        schedule = FaultSchedule(0, script={("hbm_dispatch", 0, 0): 1})
        injection = FaultInjection(schedule, str(tmp_path / "ckpt")).attach(cluster)
        cluster.train(2)
        injection.detach()
        assert any(i.kind == "hbm_dispatch" for i in injection.incidents)
        assert_param_parity(cluster, twin)

    def test_escape_mid_train_leaves_mem_values_untouched(self, mk_cluster, tmp_path):
        """MEM values change only at the round's write-back: an HBM
        dispatch fault that escapes at the first pull of sync round 1
        leaves every slab value and dirty bit as ``stage_load`` left
        them, although sync round 0 was already applied."""
        cluster = mk_cluster()
        assert cluster.config.minibatches_per_gpu == 2
        cluster.train(2)
        for node in cluster.nodes:
            node.mem_ps.cache.mark_snapshot()
        ctx = RoundContext(round_index=cluster.rounds_completed)
        for stage in (cluster.stage_read, cluster.stage_prepare, cluster.stage_load):
            stage(ctx)
        caches = [node.mem_ps.cache for node in cluster.nodes]
        before = [(c._values.copy(), c._dirty.copy()) for c in caches]
        # Node 0's two GPUs pull and push once each per sync round.
        shards = ctx.plan.nodes[0].shards
        assert all(s.n_examples for s in shards)
        schedule = FaultSchedule(0, script={("hbm_dispatch", 0, 4): 8})
        FaultInjection(schedule, str(tmp_path / "ckpt")).attach(cluster)
        with pytest.raises(FaultError) as exc:
            cluster.stage_train(ctx)
        assert (exc.value.kind, exc.value.scope) == ("hbm_dispatch", "global")
        for cache, (values, dirty) in zip(caches, before):
            assert np.array_equal(cache._values.view(np.uint32), values.view(np.uint32))
            assert np.array_equal(cache._dirty, dirty)


class TestSSDSurface:
    def test_write_stall_slows_but_never_fails(self, mk_pressured, tmp_path):
        twin = mk_pressured()
        twin.train(8)

        cluster = mk_pressured()
        schedule = FaultSchedule(
            4, rates={"ssd_write_stall": 1.0}, max_faults=10_000
        )
        injection = FaultInjection(schedule, str(tmp_path / "ckpt")).attach(cluster)
        cluster.train(8)
        injection.detach()

        stalls = [i for i in injection.incidents if i.action == "stall"]
        assert stalls, "pressured run must have hit the SSD write path"
        assert fault_retry_total(cluster) > 0.0
        assert_param_parity(cluster, twin)

    def test_exhausted_read_quarantines_from_checkpoint(self, mk_pressured, tmp_path):
        cluster = mk_pressured()
        cluster.train(8)
        store = cluster.nodes[0].ssd_ps.store
        assert store.n_files > 0, "pressure config must spill to SSD"
        ckpt_dir = tmp_path / "ckpt" / "round_000008"
        cluster.save_checkpoint(str(ckpt_dir), mode="full")

        f = store.files()[0]
        before = store.read(f.keys)
        assert bool(before.found.all())

        schedule = FaultSchedule(
            0,
            script={
                ("ssd_read_error", 0, 0): 8,  # exhaust every retry
            },
        )
        injection = FaultInjection(schedule, str(tmp_path / "ckpt")).attach(cluster)
        result = store.read(f.keys)
        injection.detach()

        # Quarantine re-materialized the identical payload and priced
        # the re-read; the read still succeeded end to end.
        assert np.array_equal(result.values, before.values)
        quarantines = [i for i in injection.incidents if i.action == "quarantine"]
        assert len(quarantines) == 1
        assert quarantines[0].bytes_reread > 0
        assert quarantines[0].retries == MAX_ATTEMPTS - 1
        # One record: the quarantine report is the exhausted fault's only one.
        assert len(injection.incidents) == schedule.faults_fired == 1
        assert fault_retry_total(cluster) > 0.0

    def test_file_with_stale_rows_is_quarantined_from_its_live_rows(
        self, mk_pressured, tmp_path
    ):
        """The chain ships a file's live rows only: the quarantine checks
        and re-materializes those, stale rows zeroed as a restore
        writes them, and the read returns the live values."""
        cluster = mk_pressured()
        cluster.train(12)
        cluster.save_checkpoint(str(tmp_path / "ckpt" / "round_000012"), mode="full")
        store = cluster.nodes[0].ssd_ps.store
        f = next(f for f in store.files() if 0 < f.stale_count < f.keys.size)
        live = store.live_mask(f.file_id)
        before = store.read(f.keys[live])  # touches this file alone

        schedule = FaultSchedule(0, script={("ssd_read_error", 0, 0): 8})
        injection = FaultInjection(schedule, str(tmp_path / "ckpt")).attach(cluster)
        result = store.read(f.keys[live])
        injection.detach()

        (quarantine,) = [i for i in injection.incidents if i.action == "quarantine"]
        assert quarantine.bytes_reread > 0
        assert np.array_equal(result.values, before.values)
        assert not store._payload(f.file_id)[~live].any()
        store.check_invariants()

    def test_quarantine_prices_every_shard_the_walk_reads(self, mk_pressured, tmp_path):
        """A file only the full base packs: the walk reads the delta's
        shard first, finds nothing there, then the base's — both count."""
        cluster = mk_pressured()
        cluster.train(8)
        root = tmp_path / "ckpt"
        cluster.save_checkpoint(str(root / "round_000008"), mode="full")
        based = {f.file_id for f in cluster.nodes[0].ssd_ps.store.files()}
        cluster.train(2)
        cluster.save_checkpoint(str(root / "round_000010"), mode="delta")
        store = cluster.nodes[0].ssd_ps.store
        f = next(f for f in store.files() if f.file_id in based and not f.stale_count)

        schedule = FaultSchedule(0, script={("ssd_read_error", 0, 0): 8})
        injection = FaultInjection(schedule, str(root)).attach(cluster)
        store.read(f.keys)
        injection.detach()

        walked = sum(
            os.path.getsize(root / member / node_shard_name(0))
            for member in ("round_000010", "round_000008")
        )
        (quarantine,) = [i for i in injection.incidents if i.action == "quarantine"]
        assert quarantine.bytes_reread == walked

    def test_quarantine_reads_its_own_chain_in_a_reused_root(
        self, mk_cluster, mk_pressured, tmp_path
    ):
        """A newer snapshot another run (another seed) left in the root
        holds no copy of this cluster's files; the quarantine must read
        the chain this cluster committed, not the root's newest."""
        root = tmp_path / "ckpt"
        leftover = mk_cluster(batch=512, mem_capacity_params=1_400, seed=8)
        leftover.train(12)
        leftover.save_checkpoint(str(root / "round_000012"), mode="full")

        cluster = mk_pressured()
        cluster.train(8)
        cluster.save_checkpoint(str(root / "round_000008"), mode="full")
        store = cluster.nodes[0].ssd_ps.store
        f = store.files()[2]
        before = store.read(f.keys)

        schedule = FaultSchedule(0, script={("ssd_read_error", 0, 0): 8})
        injection = FaultInjection(schedule, str(root)).attach(cluster)
        result = store.read(f.keys)
        injection.detach()

        assert np.array_equal(result.values, before.values)
        (quarantine,) = [i for i in injection.incidents if i.action == "quarantine"]
        assert quarantine.bytes_reread > 0

    def test_exhausted_read_without_checkpoint_raises_typed_loss(
        self, mk_pressured, tmp_path
    ):
        cluster = mk_pressured()
        cluster.train(8)
        store = cluster.nodes[0].ssd_ps.store
        f = store.files()[0]

        schedule = FaultSchedule(0, script={("ssd_read_error", 0, 0): 8})
        FaultInjection(schedule, str(tmp_path / "ckpt")).attach(
            cluster
        )
        with pytest.raises(PayloadLostError) as exc:
            store.read(f.keys)
        err = exc.value
        assert err.file_id == f.file_id
        assert np.array_equal(err.keys, f.keys)
        assert err.scope == "node"
        assert isinstance(err, FileNotFoundError)
        # The escape carries what was priced: the guard's retries, and
        # no re-read (no chain to walk).
        assert (err.retries, err.bytes_reread) == (MAX_ATTEMPTS - 1, 0)

    def test_lost_file_reports_its_live_keys_only(self, tmp_path):
        """A stale row's newest copy sits in another file, so a loss
        names the live keys, not every row."""
        store = FileStore(2, 4)
        store.write(np.arange(4), np.ones((4, 2), np.float32))  # file 0
        store.write(np.asarray([1]), np.zeros((1, 2), np.float32))  # row 1 stale
        store.faults = FaultArm(  # no recovery: the exhausted read is a loss
            FaultSchedule(0, script={("ssd_read_error", 0, 0): 8}),
            store.ledger,
            surface="ssd",
            node=0,
            incidents=[],
        )
        with pytest.raises(PayloadLostError) as exc:
            store.read(np.asarray([0, 2, 3]))
        assert exc.value.file_id == 0
        assert exc.value.keys.tolist() == [0, 2, 3]
