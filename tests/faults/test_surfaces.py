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

from repro.core.cluster import RoundContext
from repro.faults import (
    FaultError,
    FaultSchedule,
    PayloadLostError,
    RetryPolicy,
    clear_faults,
    inject_faults,
)
from repro.ssd.file_store import FileStore


def fault_retry_total(cluster) -> float:
    return sum(n.ledger.total("fault_retry") for n in cluster.nodes)


def assert_param_parity(a, b) -> None:
    probe = a.generator.batch(10_000, 512).unique_keys()
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()):
        assert np.array_equal(pa, pb)


class TestHDFSSurface:
    def test_absorbed_timeout_prices_retry_without_forking_data(self, mk_cluster):
        twin = mk_cluster()
        twin.train(3)

        cluster = mk_cluster()
        schedule = FaultSchedule(0, script={("hdfs_timeout", 0, 1): 2})
        injection = inject_faults(cluster, schedule)
        cluster.train(3)
        clear_faults(cluster)

        assert fault_retry_total(cluster) > 0.0
        (incident,) = injection.incidents
        assert (incident.kind, incident.action) == ("hdfs_timeout", "retried")
        assert incident.retries == 2
        assert_param_parity(cluster, twin)

    def test_exhausted_read_escapes_with_round_scope(self, mk_cluster):
        cluster = mk_cluster()
        schedule = FaultSchedule(0, script={("hdfs_read_failure", 1, 0): 8})
        inject_faults(cluster, schedule)
        with pytest.raises(FaultError) as exc:
            cluster.train_round()
        err = exc.value
        assert (err.scope, err.kind, err.node) == ("round", "hdfs_read_failure", 1)
        assert err.stage == "read"
        # Nothing was staged: the boundary is intact and the identical
        # round retries cleanly after discarding in-flight residency.
        assert cluster._staged_rounds == 0
        cluster.abort_round()
        clear_faults(cluster)
        cluster.train(3)

        twin = mk_cluster()
        twin.train(3)
        assert_param_parity(cluster, twin)


class TestStageSurfaces:
    def test_stragglers_stretch_clock_but_not_values(self, mk_cluster):
        twin = mk_cluster()
        twin_run = twin.train_pipelined(4)

        cluster = mk_cluster()
        schedule = FaultSchedule(
            2,
            rates={"straggler": 1.0},
            max_faults=10_000,
            straggler_min=2.0,
            straggler_max=2.0,
        )
        injection = inject_faults(cluster, schedule)
        run = cluster.train_pipelined(4)
        clear_faults(cluster)

        straggle = sum(n.ledger.total("fault_straggler") for n in cluster.nodes)
        assert straggle > 0.0
        assert all(i.action == "straggler" for i in injection.incidents)
        assert_param_parity(cluster, twin)
        # The slowdown lands on the simulated clock (the round loop records
        # the wrapped stages' durations), never in the trained values:
        # with the multiplier pinned at 2 every stage doubles, so the
        # makespan at least doubles too.
        assert run.makespan >= 2.0 * twin_run.makespan - 1e-9

    def test_comm_fault_escapes_globally_from_train_stage(self, mk_cluster):
        cluster = mk_cluster()
        schedule = FaultSchedule(0, script={("comm_allreduce", None, 0): 8})
        inject_faults(cluster, schedule)
        with pytest.raises(FaultError) as exc:
            cluster.train_round()
        assert exc.value.scope == "global"
        assert exc.value.stage == "train"

    def test_hbm_dispatch_absorbed_is_transparent(self, mk_cluster):
        twin = mk_cluster()
        twin.train(2)

        cluster = mk_cluster()
        schedule = FaultSchedule(0, script={("hbm_dispatch", 0, 0): 1})
        injection = inject_faults(cluster, schedule)
        cluster.train(2)
        clear_faults(cluster)
        assert any(i.kind == "hbm_dispatch" for i in injection.incidents)
        assert_param_parity(cluster, twin)

    def test_escape_mid_train_leaves_mem_values_untouched(self, mk_cluster):
        """MEM values change only at the round's write-back: an HBM
        dispatch fault that escapes at the first pull of sync round 1
        leaves every slab value and dirty bit as ``stage_load`` left
        them, although sync round 0 was already applied."""
        cluster = mk_cluster()
        assert cluster.config.minibatches_per_gpu == 2
        cluster.train(2)
        for node in cluster.nodes:
            node.mem_ps.mark_snapshot()
        ctx = RoundContext(round_index=cluster.rounds_completed)
        for stage in (cluster.stage_read, cluster.stage_prepare, cluster.stage_load):
            stage(ctx)
        caches = [node.mem_ps.cache for node in cluster.nodes]
        before = [(c._values.copy(), c._dirty.copy()) for c in caches]
        # Node 0's two GPUs pull and push once each per sync round.
        shards = ctx.plan.nodes[0].shards
        assert all(s.n_examples for s in shards)
        schedule = FaultSchedule(0, script={("hbm_dispatch", 0, 4): 8})
        inject_faults(cluster, schedule)
        with pytest.raises(FaultError) as exc:
            cluster.stage_train(ctx)
        assert (exc.value.kind, exc.value.scope) == ("hbm_dispatch", "global")
        for cache, (values, dirty) in zip(caches, before):
            assert np.array_equal(cache._values.view(np.uint32), values.view(np.uint32))
            assert np.array_equal(cache._dirty, dirty)


class TestSSDSurface:
    def test_write_stall_slows_but_never_fails(self, mk_pressured):
        twin = mk_pressured()
        twin.train(8)

        cluster = mk_pressured()
        schedule = FaultSchedule(
            4, rates={"ssd_write_stall": 1.0}, max_faults=10_000
        )
        injection = inject_faults(cluster, schedule)
        cluster.train(8)
        clear_faults(cluster)

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
        # The cross-round extent cache would serve the file warm and
        # bypass the cold-read fault point — drop it.
        store.extent_cache.invalidate(f.file_id)

        schedule = FaultSchedule(
            0,
            script={
                ("ssd_read_error", 0, 0): 8,  # exhaust every retry
            },
        )
        injection = inject_faults(
            cluster, schedule, recovery_directory=str(tmp_path / "ckpt")
        )
        result = store.read(f.keys)
        clear_faults(cluster)

        # Quarantine re-materialized the identical payload and priced
        # the re-read; the read still succeeded end to end.
        assert np.array_equal(result.values, before.values)
        quarantines = [i for i in injection.incidents if i.action == "quarantine"]
        assert len(quarantines) == 1
        assert quarantines[0].bytes_reread > 0
        assert injection.totals()["bytes_reread"] > 0
        assert fault_retry_total(cluster) > 0.0

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
        store.extent_cache.invalidate(f.file_id)

        schedule = FaultSchedule(0, script={("ssd_read_error", 0, 0): 8})
        injection = inject_faults(cluster, schedule, recovery_directory=str(root))
        result = store.read(f.keys)
        clear_faults(cluster)

        assert np.array_equal(result.values, before.values)
        (quarantine,) = [i for i in injection.incidents if i.action == "quarantine"]
        assert quarantine.bytes_reread > 0

    def test_exhausted_read_without_checkpoint_raises_typed_loss(self, mk_pressured):
        cluster = mk_pressured()
        cluster.train(8)
        store = cluster.nodes[0].ssd_ps.store
        f = store.files()[0]
        store.extent_cache.invalidate(f.file_id)

        schedule = FaultSchedule(0, script={("ssd_read_error", 0, 0): 8})
        inject_faults(cluster, schedule)  # no recovery directory
        with pytest.raises(PayloadLostError) as exc:
            store.read(f.keys)
        err = exc.value
        assert err.file_id == f.file_id
        assert np.array_equal(err.keys, f.keys)
        assert err.scope == "node"
        assert isinstance(err, FileNotFoundError)


class TestEraseLossSurface:
    """Satellite: FileStore.erase raises a typed, key-carrying error."""

    def _store_with_file(self, tmp_path) -> tuple[FileStore, int]:
        store = FileStore(4, 64, directory=str(tmp_path / "ssd"))
        keys = np.arange(10, dtype=np.int64)
        values = np.ones((10, 4), dtype=np.float32)
        _, (fid,) = store.write(keys, values)
        return store, fid

    def test_lost_payload_raises_typed_error_with_keys(self, tmp_path):
        store, fid = self._store_with_file(tmp_path)
        f = store.files()[0]
        os.remove(f.path)
        with pytest.raises(PayloadLostError) as exc:
            store.erase(fid)
        err = exc.value
        assert err.file_id == fid
        assert np.array_equal(np.sort(err.keys), np.arange(10, dtype=np.int64))
        # Typed error still satisfies the historical contract: callers
        # that caught FileNotFoundError keep working.
        assert isinstance(err, FileNotFoundError)
        assert isinstance(err, FaultError)
        # The refusal left the bookkeeping intact.
        assert store.n_files == 1

    def test_healthy_erase_still_works(self, tmp_path):
        store, fid = self._store_with_file(tmp_path)
        # Supersede every row so no live key maps to the file.
        store.write(
            np.arange(10, dtype=np.int64), np.zeros((10, 4), dtype=np.float32)
        )
        store.erase(fid)
        assert fid not in {f.file_id for f in store.files()}
