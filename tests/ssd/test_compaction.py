"""Tests for file compaction (Appendix E)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.compaction import Compactor
from repro.ssd.file_store import FileStore


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def write(store, keys, base=0.0):
    vals = np.full((len(keys), store.value_dim), base, dtype=np.float32)
    store.write(keys_of(keys), vals)


@pytest.fixture
def store():
    return FileStore(1, file_capacity=4)


class TestTrigger:
    def test_no_compaction_below_threshold(self, store):
        comp = Compactor(store, usage_threshold=1.6)
        write(store, range(8))
        assert comp.compact() == 0.0 and comp.total_compactions == 0

    def test_triggers_past_threshold(self, store):
        comp = Compactor(store, usage_threshold=1.5)
        write(store, range(8))
        write(store, range(8), base=1.0)  # 100% stale in old files
        assert comp.should_compact()
        n_files = store.n_files
        assert comp.compact() > 0 and comp.total_compactions == 1
        assert store.n_files < n_files

    def test_validation(self, store):
        for threshold in (0.5, float("nan")):
            with pytest.raises(ValueError, match="usage_threshold"):
                Compactor(store, usage_threshold=threshold)


class TestVictimSelection:
    def test_only_mostly_stale_files_merged(self, store):
        comp = Compactor(store, usage_threshold=1.0)
        write(store, range(4))       # file0
        write(store, range(4, 8))    # file1
        write(store, [0, 1, 2])      # makes file0 75% stale; file1 0%
        victims = [store.file(fid) for fid in comp.victims()]
        assert [f.stale_fraction() for f in victims] == [0.75]

    def test_most_stale_first(self, store):
        comp = Compactor(store, usage_threshold=1.0)
        write(store, range(4))
        write(store, range(4, 8))
        write(store, [0, 1, 2])      # file0 75%
        write(store, [4, 5])         # file1 50%
        fracs = [store.file(fid).stale_fraction() for fid in comp.victims()]
        assert fracs == sorted(fracs, reverse=True)


class TestCompactionCorrectness:
    def test_data_preserved(self, store):
        comp = Compactor(store, usage_threshold=1.2)
        write(store, range(8), base=1.0)
        write(store, range(4), base=2.0)
        write(store, range(2), base=3.0)
        while comp.should_compact():
            if not comp.compact():
                break
        store.check_invariants()
        r = store.read(keys_of(range(8)))
        assert r.found.all()
        expected = [3, 3, 2, 2, 1, 1, 1, 1]
        assert r.values[:, 0].tolist() == expected

    def test_disk_usage_reduced(self, store):
        comp = Compactor(store, usage_threshold=1.2)
        for base in range(5):
            write(store, range(8), base=float(base))
        before = store.total_bytes
        assert comp.compact() > 0
        assert store.total_bytes < before

    def test_all_stale_files_erased_without_rewrite(self, store):
        comp = Compactor(store, usage_threshold=1.0)
        write(store, range(4))
        write(store, range(4), base=1.0)
        written = store.device.bytes_written
        assert comp.compact() > 0 and store.device.bytes_written == written
        assert store.n_files == 1
        r = store.read(keys_of(range(4)))
        assert r.values[:, 0].tolist() == [1.0] * 4

    def test_counts_io(self, store):
        comp = Compactor(store, usage_threshold=1.2)
        write(store, range(8))
        write(store, range(8), base=1.0)
        assert comp.compact() > 0
        assert store.device.bytes_read > 0


class TestUsageBound:
    def test_disk_bounded_by_threshold_under_churn(self, store):
        """Paper: with the 50% rule, usage stays <= ~2x live size."""
        comp = Compactor(store, usage_threshold=1.6)
        rng = np.random.default_rng(0)
        for _ in range(60):
            keys = sorted(rng.choice(40, size=8, replace=False).tolist())
            write(store, keys, base=float(rng.integers(100)))
            comp.compact()
        store.check_invariants()
        # After any compact() pass, victims >=50% stale have been merged;
        # remaining overshoot is bounded by one batch of new writes.
        assert store.total_bytes <= 2.6 * store.live_bytes


@given(st.lists(st.integers(0, 25), min_size=1, max_size=80))
@settings(max_examples=30, deadline=None)
def test_compaction_never_loses_latest_values(key_stream):
    store = FileStore(1, file_capacity=3)
    comp = Compactor(store, usage_threshold=1.3)
    expected = {}
    for i, k in enumerate(key_stream):
        store.write(keys_of([k]), np.array([[float(i)]], dtype=np.float32))
        expected[k] = float(i)
        comp.compact()
        store.check_invariants()
    keys = keys_of(sorted(expected))
    r = store.read(keys)
    assert r.found.all()
    assert r.values[:, 0].tolist() == [expected[int(k)] for k in keys]


class TestIncrementalByteAccounting:
    """``FileStore.total_bytes`` is maintained incrementally (updated on
    write/erase) instead of re-summed over every file per compaction
    check; the Compactor's trigger decisions must be unchanged."""

    def test_cached_total_matches_recomputation(self, store):
        comp = Compactor(store, usage_threshold=1.4)
        rng = np.random.default_rng(0)
        for step in range(30):
            keys = np.unique(rng.integers(0, 40, 12))
            write(store, keys.tolist(), base=float(step))
            comp.compact()
            recomputed = sum(f.keys.size * store.row_bytes for f in store.files())
            assert store.total_bytes == recomputed
            store.check_invariants()

    def test_trigger_decisions_unchanged(self, store):
        """should_compact must equal the decision a fresh O(files)
        recomputation would make, at every point of a churny workload."""
        comp = Compactor(store, usage_threshold=1.5)
        rng = np.random.default_rng(1)
        decisions = []
        for step in range(25):
            keys = np.unique(rng.integers(0, 30, 10))
            write(store, keys.tolist(), base=float(step))
            recomputed = sum(f.keys.size * store.row_bytes for f in store.files())
            live = store.live_bytes
            expected = (
                recomputed > 0
                if live == 0
                else recomputed > comp.usage_threshold * live
            )
            assert comp.should_compact() == expected
            decisions.append(comp.should_compact())
            comp.compact()
        assert any(decisions)  # the workload actually exercised the trigger

    def test_erase_updates_accounting(self, store):
        write(store, range(4))
        write(store, range(4, 8))
        before = store.total_bytes
        first = store.files()[0]
        fid, first_bytes = first.file_id, first.keys.size * store.row_bytes
        write(store, range(4), base=9.0)  # supersede file0 (same size)
        store.erase(fid)
        # +1 equally-sized file, -file0: the footprint is back where it was.
        assert store.total_bytes == before
        assert first_bytes > 0
        store.check_invariants()

    def test_snapshot_roundtrip_restores_accounting(self, store):
        write(store, range(10))
        write(store, range(5), base=2.0)
        state = store.export_state()
        other = FileStore(1, file_capacity=4)
        other.load_state(state)
        assert other.total_bytes == store.total_bytes
        other.check_invariants()
