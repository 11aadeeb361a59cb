"""Tests for the SSD-PS facade (load/dump + compaction coupling)."""

import numpy as np
import pytest

from priced import ssd_ps
from repro.hardware.ledger import CostLedger
from ssd_oracles import store_mapping


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


@pytest.fixture
def ps():
    return ssd_ps(2, CostLedger(), file_capacity=4, usage_threshold=1.4)


class TestLoadDump:
    def test_dump_then_load_roundtrip(self, ps):
        keys = keys_of(range(10))
        vals = np.arange(20, dtype=np.float32).reshape(10, 2)
        assert ps.dump(keys, vals) > 0
        result = ps.load(keys)
        assert result.found.all()
        assert np.array_equal(result.values, vals)
        assert result.seconds > 0

    def test_load_unknown_returns_not_found(self, ps):
        result = ps.load(keys_of([42]))
        assert not result.found.any()

    def test_latest_dump_wins(self, ps):
        keys = keys_of([1])
        ps.dump(keys, np.ones((1, 2), np.float32))
        ps.dump(keys, np.full((1, 2), 9.0, np.float32))
        result = ps.load(keys)
        assert np.all(result.values == 9.0)

    def test_accumulates_io_time(self, ps):
        keys = keys_of(range(8))
        t_dump = ps.dump(keys, np.zeros((8, 2), np.float32))
        t_load = ps.load(keys).seconds
        assert t_dump == ps.ledger.total("ssd_write") > 0
        assert t_load == ps.ledger.total("ssd_read") > 0

    def test_every_load_is_charged_at_the_device_rate(self, ps):
        """A repeat load re-reads its file: ``load`` returns what the
        store's read priced, and the ledger grows by exactly that."""
        ps.dump(keys_of(range(4)), np.arange(8, dtype=np.float32).reshape(4, 2))
        f = next(iter(ps.store.files()))
        device = ps.store.device.spec.read_seconds(f.keys.size * ps.store.row_bytes)
        for n in (1, 2):
            result = ps.load(keys_of(range(4)))
            assert result.found.all()
            assert result.seconds == device
            assert ps.ledger.total("ssd_read") == pytest.approx(n * device)
        assert ps.store.device.read_ops == 2

    def test_membership_is_mapping_only(self, ps):
        ps.dump(keys_of(range(4)), np.zeros((4, 2), np.float32))
        ps.load(keys_of(range(4)))
        seconds_before = ps.ledger.total("ssd_read")
        mapping = store_mapping(ps.store)
        assert [k in mapping for k in (0, 1, 99)] == [True, True, False]
        assert ps.ledger.total("ssd_read") == seconds_before

    def test_read_modify_write_costs_a_read_plus_a_dump(self):
        """As the MEM tier drives it (``load`` on a miss, ``dump`` on the
        write-back): a device read of the file plus a plain dump."""
        ps = ssd_ps(2, CostLedger(), file_capacity=4, usage_threshold=1.6)
        ps.dump(keys_of(range(4)), np.zeros((4, 2), np.float32))
        read = ps.load(keys_of(range(4)))
        write = ps.dump(keys_of(range(4)), read.values + 1.0)
        f = next(iter(ps.store.files()))
        device = ps.store.device.spec.read_seconds(f.keys.size * ps.store.row_bytes)
        dump_only = ssd_ps(2, CostLedger(), file_capacity=4, usage_threshold=1.6)
        dump_only.dump(keys_of(range(4)), np.zeros((4, 2), np.float32))
        dump_cost = dump_only.dump(keys_of(range(4)), np.ones((4, 2), np.float32))
        assert read.seconds + write == pytest.approx(dump_cost + device)

    def test_n_live_params(self, ps):
        ps.dump(keys_of(range(6)), np.zeros((6, 2), np.float32))
        ps.dump(keys_of(range(3)), np.ones((3, 2), np.float32))
        assert ps.n_live_params == 6


class TestCompactionCoupling:
    def test_dump_triggers_compaction_past_threshold(self, ps):
        keys = keys_of(range(8))
        ps.dump(keys, np.zeros((8, 2), np.float32))
        written = ps.ledger.total("ssd_write")
        seconds = ps.dump(keys, np.ones((8, 2), np.float32))
        # 2x usage > 1.4 threshold -> this dump compacts, and its seconds
        # include the compaction's victim reads.
        assert ps.compactor.total_compactions == 1
        read = ps.ledger.total("ssd_read")
        assert seconds == pytest.approx(ps.ledger.total("ssd_write") - written + read)
        assert read > 0
        ps.check_invariants()

    def test_no_compaction_below_threshold(self, ps):
        ps.dump(keys_of(range(4)), np.zeros((4, 2), np.float32))
        assert ps.compactor.total_compactions == 0

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
        result = ps.load(keys)
        assert result.found.all()
        assert result.values[:, 0].tolist() == [expected[int(k)] for k in keys]
