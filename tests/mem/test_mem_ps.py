"""Tests for the MEM-PS (Section 5), driven through round plans."""

import numpy as np
import pytest

from repro.errors import TierStateError
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
    b.optimizer = a.optimizer
    return a, b


@pytest.fixture
def start_round(round_plan):
    """``start_round(mem, keys, peers=())`` — node ``mem.node_id`` works
    on ``keys`` (every other node's batch is empty) and ``mem`` plus
    ``peers`` run the round's resolve; returns ``(plan, values)``: the
    :class:`RoundPlan` and a zeroed round array (one row per key of the
    round, in key order)."""

    def start(mem, keys, peers=()):
        shards = [[[]] for _ in range(mem.n_nodes)]
        shards[mem.node_id] = [keys]
        plan = round_plan(shards, node_partitioner=mem.partitioner)
        for m in (mem, *peers):
            m.prefetch(plan.prefetch[m.node_id])
        values = np.zeros(
            (plan.keys.size, mem.optimizer.value_dim), dtype=np.float32
        )
        return plan, values

    return start


def peek(mem, keys):
    """Resident values of ``keys`` without touching cache state."""
    values, found = mem.cache.peek_batch(keys)
    assert found.all()
    return values


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
    def test_fresh_keys_initialized_deterministically(self, start_round):
        m = make_mem()
        keys = keys_of([1, 2, 3])
        plan, values = start_round(m, keys)
        stats = m.prepare(plan.nodes[0], values)
        expected = m.optimizer.init_for_keys(keys, seed=0)
        assert np.array_equal(values[plan.nodes[0].codes], expected)
        assert stats.n_fresh == 3
        m.end_batch()

    def test_second_visit_hits_cache(self, start_round):
        m = make_mem()
        keys = keys_of([1, 2, 3])
        plan, values = start_round(m, keys)
        m.prepare(plan.nodes[0], values)
        m.absorb_updates(np.ones_like(values))
        m.end_batch()
        plan, values = start_round(m, keys)
        stats = m.prepare(plan.nodes[0], values)
        assert stats.n_cache_hits == 3
        assert stats.n_fresh == 0

    def test_resolve_records_rows_on_the_prefetch_plan(self, start_round):
        m = make_mem()
        plan, _ = start_round(m, keys_of([4, 5, 6]))
        node, pf = plan.nodes[0], plan.prefetch[0]
        assert np.array_equal(
            m.cache._keys[pf.rows[pf.local_pos]], node.keys[node.local_idx]
        )
        assert not pf.hit.any()
        assert pf.admission.n_runs >= 1

    def test_remote_keys_pulled_from_peer(self, start_round):
        """The requester's remote partition is in the round array once
        its owner has prepared: the peer serves it by filling its rows."""
        a, b = make_pair()
        keys = keys_of(range(40))
        plan, values = start_round(a, keys, peers=[b])
        values[:] = np.nan
        stats = a.prepare(plan.nodes[0], values)
        assert stats.n_local + stats.n_remote == 40
        assert stats.n_remote > 0
        theirs = plan.prefetch[1].codes
        assert theirs.size == stats.n_remote
        assert np.isnan(values[theirs]).all()
        b.prepare(plan.nodes[1], values)
        # All values match the deterministic per-key init regardless of owner.
        assert np.array_equal(values, a.optimizer.init_for_keys(keys, seed=0))
        a.end_batch()
        b.end_batch()

    def test_remote_pull_charges_network_and_only_network(self, start_round):
        a, b = make_pair()
        plan, values = start_round(a, keys_of(range(40)), peers=[b])
        before = a.network.bytes_sent
        stats = a.prepare(plan.nodes[0], values)
        assert a.network.bytes_sent > before
        assert stats.remote_seconds > 0
        solo = make_mem()
        plan, values = start_round(solo, keys_of(range(20)))
        assert solo.prepare(plan.nodes[0], values).remote_seconds == 0.0


class TestUpdates:
    def test_absorb_keeps_only_owned(self, start_round):
        a, b = make_pair()
        keys = keys_of(range(20))
        plan, values = start_round(a, keys, peers=[b])
        a.prepare(plan.nodes[0], values)
        b.prepare(plan.nodes[1], values)
        values[:] = 7.0
        a.absorb_updates(values)
        a.end_batch()
        b.end_batch()
        assert np.all(peek(a, keys[a.owns(keys)]) == 7.0)
        # The peer did not write back: its shard is still the fresh init.
        theirs = keys[b.owns(keys)]
        assert np.array_equal(
            peek(b, theirs), b.optimizer.init_for_keys(theirs, seed=0)
        )

    def test_every_round_op_requires_a_resolved_round(self, round_plan):
        """Outside prefetch..end_batch each per-round method is a typed
        error, never a silent re-probe."""
        m = make_mem()
        plan = round_plan([[keys_of([1])]], node_partitioner=m.partitioner)
        values = np.zeros((1, 2), dtype=np.float32)
        calls = {
            "prepare": lambda: m.prepare(plan.nodes[0], values),
            "serve_remote": lambda: m.serve_remote(keys_of([1]), requester=0),
            "absorb_updates": lambda: m.absorb_updates(values),
            "apply_gradients": lambda: m.apply_gradients(
                np.zeros(1, dtype=np.int64), np.ones((1, 2))
            ),
            "end_batch": m.end_batch,
        }
        for name, call in calls.items():
            with pytest.raises(TierStateError, match="call prefetch first"):
                call()
        m.prefetch(plan.prefetch[0])
        with pytest.raises(TierStateError, match="round boundary"):
            m.prefetch(plan.prefetch[0])  # a round is already in flight
        with pytest.raises(TierStateError, match="round boundary"):
            m.export_state()
        m.end_batch()
        with pytest.raises(RuntimeError, match="call prefetch first"):
            m.end_batch()

    def test_apply_gradients_is_a_device_free_row_op(self, start_round):
        """``apply_gradients`` applies through the resolved rows: same
        arithmetic, no cache probe, nothing returned to account and
        nothing charged — the node ledger does not move."""
        m = make_mem()
        keys = keys_of([5, 6])
        plan, values = start_round(m, keys)
        pf = plan.prefetch[0]
        m.prepare(plan.nodes[0], values)
        hits_before = m.cache.stats.hits
        ledgers_before = dict(m.ledger), dict(m.ssd_ps.ledger)
        result = m.apply_gradients(
            pf.rows[pf.local_pos], np.ones((2, 2), dtype=np.float64)
        )
        assert result is None
        assert (dict(m.ledger), dict(m.ssd_ps.ledger)) == ledgers_before
        assert m.cache.stats.hits == hits_before
        m.end_batch()
        assert np.allclose(peek(m, keys), values - 1.0)  # SGD lr=1

    def test_values_change_only_at_write_back(self, start_round):
        """Filling the round array copies the MEM rows: training writes
        to the array reach the cache only through ``absorb_updates``."""
        m = make_mem()
        keys = keys_of([1, 2, 3])
        plan, values = start_round(m, keys)
        m.prepare(plan.nodes[0], values)
        fresh = values.copy()
        values += 1.0
        assert np.array_equal(peek(m, keys), fresh)
        m.absorb_updates(values)
        assert np.array_equal(peek(m, keys), fresh + 1.0)
        m.end_batch()


class TestEviction:
    @staticmethod
    def _round(m, start_round, keys, value):
        plan, values = start_round(m, keys)
        m.prepare(plan.nodes[0], values)
        values[:] = value
        m.absorb_updates(values)
        m.end_batch()

    def test_cache_overflow_flushes_to_ssd(self, start_round):
        m = make_mem(cache=16)
        for start in range(0, 80, 8):
            self._round(m, start_round, keys_of(range(start, start + 8)), 1.0)
        assert m.ssd_ps.n_live_params > 0

    def test_evicted_values_recoverable(self, start_round):
        m = make_mem(cache=16)
        first = keys_of(range(8))
        self._round(m, start_round, first, 3.0)
        for start in range(8, 64, 8):
            self._round(m, start_round, keys_of(range(start, start + 8)), 1.0)
        plan, values = start_round(m, first)
        stats = m.prepare(plan.nodes[0], values)
        assert plan.prefetch[0].ssd_found.any() and stats.n_ssd_loaded > 0
        assert np.all(values == 3.0)

    def test_served_pins_released_at_end_batch(self, start_round):
        a, b = make_pair(cache=128)
        plan, values = start_round(a, keys_of(range(30)), peers=[b])
        a.prepare(plan.nodes[0], values)
        # b pinned the partition it serves; before end_batch it stays so.
        assert b.cache.pinned_count() > 0
        a.end_batch()
        b.end_batch()
        assert b.cache.pinned_count() == 0

    def test_flush_to_ssd_drains_cache(self, start_round):
        m = make_mem()
        plan, values = start_round(m, keys_of(range(10)))
        m.prepare(plan.nodes[0], values)
        m.end_batch()
        m.flush_to_ssd()
        assert len(m.cache) == 0
        assert m.ssd_ps.n_live_params == 10

    def test_flush_to_ssd_inside_a_round_is_refused(self, start_round):
        """Mid-round the resolved rows index the slab a flush would
        reset (it used to go through, and the next gather read zeros):
        typed error, cache untouched, ``prepare`` unchanged."""
        m = make_mem()
        plan, values = start_round(m, keys_of(range(10)))
        m.prepare(plan.nodes[0], values)
        before = values.copy()
        with pytest.raises(TierStateError, match="round boundary"):
            m.flush_to_ssd()
        assert m.cache.pinned_count() == 10 and len(m.cache) == 10
        m.prepare(plan.nodes[0], values)
        assert np.array_equal(values, before)
        m.end_batch()


class TestValidation:
    def test_node_id_range(self):
        with pytest.raises(ValueError):
            make_mem(node_id=3, n_nodes=2)
