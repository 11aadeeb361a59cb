"""Cache behaviour under memory pressure (paper Section 5, Appendix D).

The working set of an in-flight batch is pinned and must survive any
eviction storm; everything evicted on the way down (LRU→LFU demotion,
LFU→SSD flush) must reach the SSD-PS with its latest value —
losslessness is the Fig. 3(b) contract.
"""

import numpy as np
import pytest

from priced import HARDWARE, ssd_ps
from repro.hardware.ledger import CostLedger
from repro.hardware.network import Network
from repro.mem.cache import CombinedCache
from repro.mem.mem_ps import MemPS
from repro.nn.optim import SparseSGD


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def make_mem(cache=32, seed=0):
    """A MEM-PS whose SSD-PS and NIC charge one node ledger, as in
    ``HPSNode``."""
    opt = SparseSGD(2, lr=1.0)
    ledger = CostLedger()
    ssd = ssd_ps(opt.value_dim, ledger, file_capacity=8, usage_threshold=1.6)
    return MemPS(
        0,
        1,
        opt,
        ssd,
        cache_capacity=cache,
        lru_fraction=0.5,
        network=Network(HARDWARE.network, ledger),
        seed=seed,
    )


@pytest.fixture
def train_keys(round_plan):
    """One planned resolve → prepare → write-back → end_batch cycle on
    ``keys``; returns the values the round started from."""

    def run(m, keys, value):
        plan = round_plan([[keys]], node_partitioner=m.partitioner)
        m.prefetch(plan.prefetch[0])
        values = np.empty((plan.keys.size, 2), np.float32)
        m.prepare(plan.nodes[0], values)
        before = values.copy()
        values[:] = value
        m.absorb_updates(values)
        m.end_batch()
        return before

    return run


class TestPinnedUnderPressure:
    def test_pinned_working_set_survives_overflow_storm(self):
        """A pinned batch outlives an insert stream 10x the cache."""
        cache = CombinedCache(40, lru_fraction=0.5, value_dim=1)
        working = np.arange(10, dtype=np.uint64)
        wvals = np.arange(10, dtype=np.float32).reshape(-1, 1)
        _, _, rows = cache.put_batch(working, wvals, pin=True)
        for start in range(100, 500, 40):
            keys = np.arange(start, start + 40, dtype=np.uint64)
            cache.put_batch(keys, np.zeros((40, 1), np.float32))
        vals, hit = cache.get_batch(working)
        assert hit.all()
        assert np.array_equal(vals, wvals)
        assert np.array_equal(cache.values_at(rows), wvals)  # rows stable
        assert len(cache) <= cache.capacity
        cache.unpin_rows(rows)

    def test_pinned_keys_skipped_in_eviction_order(self):
        cache = CombinedCache(8, lru_fraction=0.5, value_dim=1)
        one = np.zeros((1, 1), np.float32)
        _, _, rows = cache.put_batch(keys_of([0]), one, pin=True)  # oldest, pinned
        for k in range(1, 10):
            cache.put_batch(keys_of([k]), one + k)
        assert cache.peek_batch(keys_of([0]))[1][0]  # despite being least recent
        cache.unpin_rows(rows)

    def test_mem_ps_pins_the_round_until_end_batch(self, round_plan):
        m = make_mem(cache=64)
        keys = keys_of(range(16))
        plan = round_plan([[keys]], node_partitioner=m.partitioner)
        m.prefetch(plan.prefetch[0])
        m.prepare(plan.nodes[0], np.empty((16, 2), np.float32))
        assert m.cache.pinned_count() == 16
        # Overflow pressure while the batch is in flight.
        m.cache.put_batch(
            keys_of(range(100, 160)), np.zeros((60, 2), np.float32)
        )
        _, hit = m.cache.get_batch(keys)
        assert hit.all()
        m.absorb_updates(np.ones((16, 2), np.float32))
        m.end_batch()
        assert m.cache.pinned_count() == 0


class TestLosslessnessUnderChurn:
    def test_lfu_to_lru_promotion_keeps_updated_values(self, train_keys):
        """A value updated, demoted to the LFU, promoted back, and evicted
        again is never lost — it always reads back with its last value."""
        m = make_mem(cache=16)
        first = keys_of(range(4))
        train_keys(m, first, 3.0)
        # Demote `first` out of the LRU tier with fresh traffic.
        for start in range(10, 40, 6):
            train_keys(m, keys_of(range(start, start + 6)), 1.0)
        # Promote them back (cache or SSD, either way: value preserved)...
        assert np.all(train_keys(m, first, 3.0) == 3.0)
        # ...then thrash again and re-check via the SSD path.
        for start in range(100, 200, 8):
            train_keys(m, keys_of(range(start, start + 8)), 1.0)
        assert np.all(train_keys(m, first, 3.0) == 3.0)

    def test_every_put_batch_flush_is_recoverable(self):
        """Whatever put_batch reports as flushed, plus what stays
        resident, accounts for every key ever written (nothing silently
        dropped under pressure)."""
        cache = CombinedCache(30, lru_fraction=0.5, value_dim=1)
        persisted: dict[int, float] = {}
        rng = np.random.default_rng(0)
        written: dict[int, float] = {}
        for round_ in range(40):
            keys = rng.choice(500, size=20, replace=False).astype(np.uint64)
            keys = keys[~cache.peek_batch(keys)[1]]  # the insert's contract
            vals = rng.normal(size=(keys.size, 1)).astype(np.float32)
            for k, v in zip(keys.tolist(), vals[:, 0].tolist()):
                written[k] = v
            fk, fv, _ = cache.put_batch(keys, vals)
            for k, v in zip(fk.tolist(), fv[:, 0].tolist()):
                persisted[k] = v
        resident = cache.export_state()
        ik = np.concatenate([resident["lru_keys"], resident["lfu_keys"]])
        iv = np.concatenate([resident["lru_values"], resident["lfu_values"]])
        current = dict(persisted)
        current.update(zip(ik.tolist(), iv[:, 0].tolist()))
        # Flushed or resident, every key holds its latest write exactly.
        assert current == written
