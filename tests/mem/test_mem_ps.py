"""Tests for the MEM-PS (Section 5), driven through round plans."""

import numpy as np
import pytest

from repro.hardware.network import Network
from repro.hardware.specs import NetworkSpec
from repro.mem.mem_ps import MemPS
from repro.nn.optim import SparseSGD
from repro.ssd.ssd_ps import SSDPS


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def make_mem(node_id=0, n_nodes=1, cache=64, seed=0):
    opt = SparseSGD(2, lr=1.0)
    ssd = SSDPS(opt.value_dim, file_capacity=8)
    return MemPS(
        node_id,
        n_nodes,
        opt,
        ssd,
        cache_capacity=cache,
        network=Network(NetworkSpec()),
        seed=seed,
    )


def make_pair(cache=64):
    a = make_mem(0, 2, cache)
    b = make_mem(1, 2, cache)
    opt = a.optimizer
    b.optimizer = opt
    peers = [a, b]
    a.peers = peers
    b.peers = peers
    return a, b


@pytest.fixture
def plan_for(round_plan):
    """``plan_for(mem, keys)`` — node ``mem.node_id`` works on ``keys``
    (every other node's batch is empty); returns that node's plan."""

    def build(mem, keys, *, prefetch=False):
        shards = [[[]] for _ in range(mem.n_nodes)]
        shards[mem.node_id] = [keys]
        plan = round_plan(
            shards, node_partitioner=mem.partitioner, prefetch=prefetch
        )
        return plan if prefetch else plan.nodes[mem.node_id]

    return build


class TestOwnership:
    def test_partition_is_total(self):
        a, b = make_pair()
        keys = keys_of(range(100))
        assert np.array_equal(a.owner_of(keys), b.owner_of(keys))
        assert np.all((a.owner_of(keys) == 0) | (a.owner_of(keys) == 1))

    def test_single_node_owns_all(self):
        m = make_mem()
        assert m.owns(keys_of(range(50))).all()


class TestPrepare:
    def test_fresh_keys_initialized_deterministically(self, plan_for):
        m = make_mem()
        keys = keys_of([1, 2, 3])
        vals, stats = m.prepare(plan_for(m, keys))
        expected = m.optimizer.init_for_keys(keys, seed=0)
        assert np.array_equal(vals, expected)
        assert stats.n_fresh == 3
        m.end_batch()

    def test_second_visit_hits_cache(self, plan_for):
        m = make_mem()
        keys = keys_of([1, 2, 3])
        plan = plan_for(m, keys)
        m.prepare(plan)
        m.absorb_updates(np.ones((3, 2), dtype=np.float32), plan)
        m.end_batch()
        _, stats = m.prepare(plan_for(m, keys))
        assert stats.n_cache_hits == 3
        assert stats.n_fresh == 0

    def test_prepare_records_resolved_rows_on_the_plan(self, plan_for):
        m = make_mem()
        plan = plan_for(m, keys_of([4, 5, 6]))
        assert plan.local_slots is None
        m.prepare(plan)
        assert np.array_equal(
            m.cache.lru._keys[plan.local_slots], plan.keys[plan.local_idx]
        )
        assert not plan.local_hits.any()
        assert plan.admission.n_runs >= 1

    def test_remote_keys_pulled_from_peer(self, plan_for):
        a, b = make_pair()
        keys = keys_of(range(40))
        vals, stats = a.prepare(plan_for(a, keys))
        assert stats.n_local + stats.n_remote == 40
        assert stats.n_remote > 0
        # All values match the deterministic per-key init regardless of owner.
        assert np.array_equal(vals, a.optimizer.init_for_keys(keys, seed=0))
        a.end_batch()
        b.end_batch()

    def test_remote_pull_charges_network(self, plan_for):
        a, b = make_pair()
        before = a.network.bytes_sent
        a.prepare(plan_for(a, keys_of(range(40))))
        assert a.network.bytes_sent > before

    def test_prepare_stats_seconds_parallel(self, plan_for):
        a, b = make_pair()
        _, stats = a.prepare(plan_for(a, keys_of(range(40))))
        assert stats.seconds == max(stats.local_seconds, stats.remote_seconds)


class TestUpdates:
    def test_absorb_keeps_only_owned(self, plan_for):
        a, b = make_pair()
        keys = keys_of(range(20))
        plan = plan_for(a, keys)
        a.prepare(plan)
        a.absorb_updates(np.full((20, 2), 7.0, dtype=np.float32), plan)
        a.end_batch()
        b.end_batch()
        vals, _, hit, _ = a.fetch_local(keys[a.owns(keys)], pin=False)
        assert hit.all()
        assert np.all(vals == 7.0)
        # The peer's shard was served read-only: still the fresh init.
        theirs = keys[b.owns(keys)]
        vals, _, hit, _ = b.fetch_local(theirs, pin=False)
        assert hit.all()
        assert np.array_equal(vals, b.optimizer.init_for_keys(theirs, seed=0))

    def test_absorb_requires_a_prepared_plan(self, plan_for):
        m = make_mem()
        with pytest.raises(RuntimeError, match="prepared plan"):
            m.absorb_updates(
                np.ones((1, 2), dtype=np.float32), plan_for(m, keys_of([1]))
            )

    def test_apply_gradients_owner_path(self, plan_for):
        m = make_mem()
        keys = keys_of([5])
        vals, _ = m.prepare(plan_for(m, keys))
        m.end_batch()
        m.apply_gradients(keys, np.ones((1, 2), dtype=np.float64), rows=None)
        got, _, _, _ = m.fetch_local(keys, pin=False)
        assert np.allclose(got, vals - 1.0)  # SGD lr=1

    def test_apply_gradients_through_prefetched_rows(self, plan_for):
        """With the round prefetched, the owner queue applies through the
        resolved rows — same arithmetic, no cache probe, no seconds."""
        m = make_mem()
        keys = keys_of([5, 6])
        plan = plan_for(m, keys, prefetch=True)
        pf = plan.prefetch[0]
        m.prefetch(pf)
        vals, stats = m.prepare(plan.nodes[0])
        assert stats.local_seconds == 0.0  # a pure row gather
        hits_before = m.cache.stats.hits
        t = m.apply_gradients(
            keys, np.ones((2, 2), dtype=np.float64), rows=pf.rows[pf.local_pos]
        )
        assert t == 0.0
        assert m.cache.stats.hits == hits_before
        m.end_batch()
        got, _, _, _ = m.fetch_local(keys, pin=False)
        assert np.allclose(got, vals - 1.0)


class TestEviction:
    @staticmethod
    def _round(m, plan_for, keys, value):
        plan = plan_for(m, keys)
        m.prepare(plan)
        m.absorb_updates(
            np.full((keys.size, 2), value, dtype=np.float32), plan
        )
        m.end_batch()

    def test_cache_overflow_flushes_to_ssd(self, plan_for):
        m = make_mem(cache=16)
        for start in range(0, 80, 8):
            self._round(m, plan_for, keys_of(range(start, start + 8)), 1.0)
        assert m.ssd_ps.n_live_params > 0

    def test_evicted_values_recoverable(self, plan_for):
        m = make_mem(cache=16)
        first = keys_of(range(8))
        self._round(m, plan_for, first, 3.0)
        for start in range(8, 64, 8):
            self._round(m, plan_for, keys_of(range(start, start + 8)), 1.0)
        vals, _, _, ssd_found = m.fetch_local(first, pin=False)
        assert ssd_found.any()
        assert np.all(vals == 3.0)

    def test_served_pins_released_at_end_batch(self, plan_for):
        a, b = make_pair(cache=128)
        a.prepare(plan_for(a, keys_of(range(30))))
        # b pinned served keys; before end_batch they are pinned.
        assert b.cache.lru.pinned_count() > 0
        a.end_batch()
        b.end_batch()
        assert b.cache.lru.pinned_count() == 0

    def test_flush_to_ssd_drains_cache(self, plan_for):
        m = make_mem()
        m.prepare(plan_for(m, keys_of(range(10))))
        m.end_batch()
        m.cache.unpin_batch(keys_of(range(10)))
        m.flush_to_ssd()
        assert len(m.cache) == 0
        assert m.ssd_ps.n_live_params == 10


class TestValidation:
    def test_node_id_range(self):
        with pytest.raises(ValueError):
            make_mem(node_id=3, n_nodes=2)
