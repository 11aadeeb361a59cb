"""Tests for the SSD-PS facade (load/dump + compaction coupling)."""

import numpy as np
import pytest

from repro.ssd.ssd_ps import SSDPS


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


@pytest.fixture
def ps():
    return SSDPS(2, file_capacity=4, usage_threshold=1.4)


class TestLoadDump:
    def test_dump_then_load_roundtrip(self, ps):
        keys = keys_of(range(10))
        vals = np.arange(20, dtype=np.float32).reshape(10, 2)
        stats = ps.dump(keys, vals)
        assert stats.seconds > 0
        result, lstats = ps.load(keys)
        assert result.found.all()
        assert np.array_equal(result.values, vals)
        assert lstats.total_seconds > 0

    def test_load_unknown_returns_not_found(self, ps):
        result, _ = ps.load(keys_of([42]))
        assert not result.found.any()

    def test_latest_dump_wins(self, ps):
        keys = keys_of([1])
        ps.dump(keys, np.ones((1, 2), np.float32))
        ps.dump(keys, np.full((1, 2), 9.0, np.float32))
        result, _ = ps.load(keys)
        assert np.all(result.values == 9.0)

    def test_accumulates_io_time(self, ps):
        keys = keys_of(range(8))
        ps.dump(keys, np.zeros((8, 2), np.float32))
        ps.load(keys)
        assert ps.dump_seconds > 0
        assert ps.load_seconds > 0

    def test_n_live_params(self, ps):
        ps.dump(keys_of(range(6)), np.zeros((6, 2), np.float32))
        ps.dump(keys_of(range(3)), np.ones((3, 2), np.float32))
        assert ps.n_live_params == 6


class TestCompactionCoupling:
    def test_dump_triggers_compaction_past_threshold(self, ps):
        keys = keys_of(range(8))
        ps.dump(keys, np.zeros((8, 2), np.float32))
        stats = ps.dump(keys, np.ones((8, 2), np.float32))
        # 2x usage > 1.4 threshold -> compaction reported on this dump.
        assert stats.compaction is not None
        assert stats.compaction.triggered
        assert stats.total_seconds > stats.seconds
        ps.check_invariants()

    def test_no_compaction_below_threshold(self, ps):
        stats = ps.dump(keys_of(range(4)), np.zeros((4, 2), np.float32))
        assert stats.compaction is None

    def test_values_survive_repeated_churn(self, ps):
        rng = np.random.default_rng(0)
        expected = {}
        for i in range(40):
            ks = np.unique(rng.integers(0, 30, 6)).astype(np.uint64)
            vals = np.full((ks.size, 2), float(i), dtype=np.float32)
            ps.dump(ks, vals)
            for k in ks:
                expected[int(k)] = float(i)
        ps.check_invariants()
        keys = keys_of(sorted(expected))
        result, _ = ps.load(keys)
        assert result.found.all()
        assert result.values[:, 0].tolist() == [expected[int(k)] for k in keys]
