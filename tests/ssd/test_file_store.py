"""Tests for the SSD parameter-file store (Appendix E)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.file_store import FileStore
from ssd_oracles import assert_same_arrays


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def vals_of(n, dim=2, base=0.0):
    return (np.arange(n * dim, dtype=np.float32) + base).reshape(n, dim)


def copied(state):
    return {k: np.copy(v) for k, v in state.items()}


@pytest.fixture
def store():
    return FileStore(2, file_capacity=4)


class TestWrite:
    def test_chunks_into_files(self, store):
        t, ids = store.write(keys_of(range(10)), vals_of(10))
        assert len(ids) == 3  # 4 + 4 + 2
        assert store.n_files == 3
        assert t > 0

    def test_mapping_points_to_new_files(self, store):
        store.write(keys_of([1, 2]), vals_of(2))
        fids = store.mapping_of(keys_of([1, 2]))
        assert (fids >= 0).all()

    def test_rewrite_marks_old_stale(self, store):
        _, (fid,) = store.write(keys_of([1, 2]), vals_of(2))
        store.write(keys_of([1]), vals_of(1, base=100))
        old = [f for f in store.files() if f.file_id == fid][0]
        assert old.stale_count == 1
        assert old.n_live == 1

    def test_duplicate_keys_rejected(self, store):
        with pytest.raises(ValueError, match="unique"):
            store.write(keys_of([1, 1]), vals_of(2))

    def test_empty_write(self, store):
        t, ids = store.write(keys_of([]), np.zeros((0, 2), np.float32))
        assert t == 0.0
        assert ids == []

    def test_shape_mismatch(self, store):
        with pytest.raises(ValueError):
            store.write(keys_of([1]), np.zeros((1, 3), np.float32))


class TestRead:
    def test_roundtrip(self, store):
        keys = keys_of([5, 1, 9])
        vals = vals_of(3)
        store.write(keys, vals)
        r = store.read(keys)
        assert r.found.all()
        assert np.array_equal(r.values, vals)

    def test_latest_version_wins(self, store):
        store.write(keys_of([1]), vals_of(1))
        new = vals_of(1, base=50)
        store.write(keys_of([1]), new)
        r = store.read(keys_of([1]))
        assert np.array_equal(r.values, new)

    def test_unmapped_keys_not_found(self, store):
        store.write(keys_of([1]), vals_of(1))
        r = store.read(keys_of([1, 77]))
        assert r.found.tolist() == [True, False]
        assert np.all(r.values[1] == 0)

    def test_whole_file_io_amplification(self, store):
        """Reading one key charges the entire containing file."""
        store.write(keys_of(range(4)), vals_of(4))  # one full file
        r = store.read(keys_of([0]))
        assert r.files_read == 1
        assert r.bytes_read == store.file_bytes(store.files()[0])

    def test_read_groups_by_file(self, store):
        store.write(keys_of(range(8)), vals_of(8))  # two files
        r = store.read(keys_of(range(8)))
        assert r.files_read == 2

    def test_empty_read(self, store):
        r = store.read(keys_of([]))
        assert r.seconds == 0.0
        assert r.values.shape == (0, 2)


class TestAccounting:
    def test_live_vs_total_bytes(self, store):
        store.write(keys_of(range(4)), vals_of(4))
        assert store.total_bytes == store.live_bytes
        store.write(keys_of(range(4)), vals_of(4, base=9))
        assert store.total_bytes == 2 * store.live_bytes

    def test_live_rows(self, store):
        _, (fid,) = store.write(keys_of([1, 2]), vals_of(2))
        store.write(keys_of([2]), vals_of(1, base=7))
        k, v = store.live_rows([fid])
        assert k.tolist() == [1]
        assert np.array_equal(v, vals_of(2)[:1])

    def test_erase(self, store):
        _, (fid,) = store.write(keys_of([1]), vals_of(1))
        store.write(keys_of([1]), vals_of(1, base=5))  # fid now all-stale
        store.erase(fid)
        assert store.n_files == 1
        r = store.read(keys_of([1]))
        assert r.found.all()

    def test_invariants_hold(self, store):
        store.write(keys_of(range(10)), vals_of(10))
        store.write(keys_of(range(5)), vals_of(5, base=3))
        store.check_invariants()


class TestDiskBackend:
    def test_roundtrip_on_real_files(self, tmp_path):
        store = FileStore(2, file_capacity=4, directory=str(tmp_path))
        keys = keys_of(range(6))
        vals = vals_of(6)
        store.write(keys, vals)
        r = store.read(keys)
        assert np.array_equal(r.values, vals)
        assert len(list(tmp_path.glob("*.npy"))) == 2

    def test_erase_removes_file(self, tmp_path):
        store = FileStore(1, file_capacity=2, directory=str(tmp_path))
        _, (fid,) = store.write(keys_of([1]), np.ones((1, 1), np.float32))
        store.write(keys_of([1]), np.zeros((1, 1), np.float32))
        store.erase(fid)
        assert len(list(tmp_path.glob("*.npy"))) == 1


@given(
    st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=40),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=10,
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=30, deadline=None)
def test_store_matches_dict_semantics(write_rounds):
    """A sequence of overwriting batch writes == last-writer-wins dict."""
    store = FileStore(1, file_capacity=3)
    expected: dict[int, float] = {}
    for round_ in write_rounds:
        keys = keys_of(sorted(round_))
        vals = np.array([[round_[int(k)]] for k in keys], dtype=np.float32)
        store.write(keys, vals)
        expected.update({int(k): float(v) for k, v in zip(keys, vals[:, 0])})
        store.check_invariants()
    keys = keys_of(sorted(expected))
    r = store.read(keys)
    assert r.found.all()
    assert [round(float(x), 3) for x in r.values[:, 0]] == [
        round(expected[int(k)], 3) for k in keys
    ]


class TestCrashConsistency:
    """Regressions for the durable-write and lost-payload bugfixes."""

    def test_interrupted_write_leaves_no_truncated_payload(
        self, tmp_path, monkeypatch
    ):
        import os

        store = FileStore(2, file_capacity=4, directory=str(tmp_path))
        store.write(keys_of(range(4)), vals_of(4))
        before = store.read(keys_of(range(4)))

        def boom(src, dst):
            raise OSError("power loss")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            store.write(keys_of(range(4)), vals_of(4, base=100.0))
        monkeypatch.undo()

        # The mapping still points at the old (intact) payloads, the
        # failed file never became visible, and no temp debris remains.
        store.check_invariants()
        after = store.read(keys_of(range(4)))
        assert np.array_equal(after.values, before.values)
        assert not list(tmp_path.glob("*.tmp"))
        assert len(list(tmp_path.glob("*.npy"))) == 1

    def test_payload_visible_only_after_replace(self, tmp_path, monkeypatch):
        """The final .npy name must never exist in a partial state."""
        import os

        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append((os.path.exists(dst), src.endswith(".tmp")))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        store = FileStore(2, file_capacity=4, directory=str(tmp_path))
        store.write(keys_of(range(3)), vals_of(3))
        assert seen == [(False, True)]  # written under a temp name first

    def test_erase_raises_on_lost_payload(self, tmp_path):
        import os

        store = FileStore(1, file_capacity=4, directory=str(tmp_path))
        _, (fid,) = store.write(keys_of([1, 2]), np.ones((2, 1), np.float32))
        path = store.file(fid).path
        os.remove(path)  # the only copy of rows 1-2 is gone
        with pytest.raises(FileNotFoundError, match="payload missing"):
            store.erase(fid)
        # The file stays registered so the loss remains observable.
        assert store.file(fid).n_params == 2

    def test_erase_memory_backend_unaffected(self):
        store = FileStore(1, file_capacity=4)
        _, (fid,) = store.write(keys_of([1]), np.ones((1, 1), np.float32))
        store.write(keys_of([1]), np.zeros((1, 1), np.float32))
        store.erase(fid)
        assert fid not in {f.file_id for f in store.files()}


class TestStateSnapshot:
    def test_export_load_round_trip(self, store):
        store.write(keys_of(range(10)), vals_of(10))
        store.write(keys_of(range(4)), vals_of(4, base=50.0))  # stale rows
        state = store.export_state()
        other = FileStore(2, file_capacity=4)
        other.load_state(state)
        other.check_invariants()
        assert other.n_files == store.n_files
        assert other.n_live_params == store.n_live_params
        a, b = store.read(keys_of(range(10))), other.read(keys_of(range(10)))
        assert np.array_equal(a.values, b.values)
        # Stale counters (compaction triggers) survive the round trip.
        for mine, theirs in zip(store.file_table(), other.file_table()):
            assert np.array_equal(mine, theirs)
        assert other._next_file_id == store._next_file_id

    def test_load_state_into_disk_backend(self, store, tmp_path):
        store.write(keys_of(range(6)), vals_of(6))
        disk = FileStore(2, file_capacity=4, directory=str(tmp_path))
        disk.load_state(store.export_state())
        disk.check_invariants()
        assert list(tmp_path.glob("*.npy"))
        r = disk.read(keys_of(range(6)))
        assert r.found.all()
        assert np.array_equal(r.values, vals_of(6))

    def test_load_state_rejects_stale_next_file_id(self, store):
        store.write(keys_of(range(4)), vals_of(4))
        state = store.export_state()
        state["next_file_id"] = np.int64(0)
        other = FileStore(2, file_capacity=4)
        with pytest.raises(ValueError, match="next_file_id"):
            other.load_state(state)

    def test_rejected_snapshot_leaves_store_untouched(self, store):
        store.write(keys_of(range(6)), vals_of(6))
        state = store.export_state()
        state["file_stale"] = state["file_stale"] + 1  # mapping disagrees
        target = FileStore(2, file_capacity=4)
        target.write(keys_of([100, 101]), vals_of(2, base=9.0))
        with pytest.raises(ValueError, match="stale counter"):
            target.load_state(state)
        # Validation rejected the snapshot before anything was erased.
        r = target.read(keys_of([100, 101]))
        assert r.found.all()
        target.check_invariants()

    def test_load_state_rejects_mapping_to_unknown_file(self, store):
        store.write(keys_of(range(4)), vals_of(4))
        state = store.export_state()
        state["map_fids"] = state["map_fids"] + 7
        other = FileStore(2, file_capacity=4)
        with pytest.raises(ValueError, match="unknown files"):
            other.load_state(state)

    def test_load_state_rejects_mapping_row_to_a_file_without_the_key(self):
        """Per-file live *counts* can balance while the rows are wrong:
        files {0: [1, 2], 1: [3, 4]} with keys 2 and 3 swapped.  That used
        to pass validation, erase the target, and only then trip a bare
        AssertionError in check_invariants."""
        source = FileStore(2, file_capacity=2)
        source.write(keys_of([1, 2]), vals_of(2))
        source.write(keys_of([3, 4]), vals_of(2, base=10.0))
        state = source.export_state()
        assert state["map_fids"].tolist() == [0, 0, 1, 1]
        state["map_fids"] = np.array([0, 1, 0, 1], dtype=np.int64)
        target = FileStore(2, file_capacity=2)
        target.write(keys_of([100, 101]), vals_of(2, base=9.0))
        with pytest.raises(ValueError, match=r"key 2 to file 1\b"):
            target.load_state(state)
        r = target.read(keys_of([100, 101]))
        assert r.found.all() and np.array_equal(r.values, vals_of(2, base=9.0))
        assert target.n_files == 1
        target.check_invariants()

    def test_load_delta_rejects_mapping_row_to_a_file_without_the_key(self):
        """Loading a delta is folding it onto its base (pure) and loading
        the result: a delta row naming a shipped file that does not hold
        its key is refused by the fold, nothing mutated."""
        source, base, holder = self._delta_source()
        delta = source.export_delta()
        assert delta["map_fids"].tolist() == [1, 1, 2, 2]
        delta["map_fids"] = np.array([1, 2, 1, 2], dtype=np.int64)
        inputs = [copied(base), copied(delta)]
        with pytest.raises(ValueError, match=r"key 6 to file 2\b"):
            holder.load_state(holder.fold_delta(base, delta))
        assert_same_arrays(inputs[0], base)
        assert_same_arrays(inputs[1], delta)
        # Rejected before any mutation: still exactly the base.
        assert holder.n_files == 1 and holder.n_live_params == 2
        r = holder.read(keys_of([1, 2, 5]))
        assert r.found.tolist() == [True, True, False]
        assert np.array_equal(r.values[:2], vals_of(2))
        holder.check_invariants()
        # The honest delta lands.
        holder.load_state(holder.fold_delta(base, source.export_delta()))
        assert holder.read(keys_of([5, 8])).found.all()

    @staticmethod
    def _delta_source():
        """A store marked at files {0: [1, 2]} that then wrote files 1
        and 2, its export at the mark, and a store holding that export."""
        source = FileStore(2, file_capacity=2)
        source.write(keys_of([1, 2]), vals_of(2))
        base = source.export_state()
        source.mark_snapshot()
        holder = FileStore(2, file_capacity=2)
        holder.load_state(base)
        source.write(keys_of([5, 6, 7, 8]), vals_of(4, base=20.0))  # files 1, 2
        return source, base, holder

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (
                lambda b, d: d.__setitem__("base_next_file_id", np.int64(0)),
                "diffed against next_file_id=0, base is at 1",
            ),
            (
                lambda b, d: b.__setitem__("next_file_id", np.int64(2)),
                "diffed against next_file_id=1, base is at 2",
            ),
            (
                lambda b, d: d.update(
                    file_ids=np.array([0, 2], np.int64),
                    map_fids=np.array([0, 0, 2, 2], np.int64),
                ),
                "pre-base file ids",
            ),
            (
                lambda b, d: d.__setitem__("erased_ids", np.array([7], np.int64)),
                "erases or re-counts unknown file 7",
            ),
            (
                lambda b, d: d.update(
                    stale_ids=np.array([9], np.int64),
                    stale_counts=np.array([1], np.int64),
                ),
                "erases or re-counts unknown file 9",
            ),
        ],
        ids=["delta of another base", "base of another delta", "pre-base file",
             "unknown erased file", "unknown re-counted file"],
    )
    def test_fold_refuses_a_wrong_base(self, corrupt, match):
        source, base, holder = self._delta_source()
        delta = source.export_delta()
        corrupt(base, delta)
        inputs = [copied(base), copied(delta)]
        with pytest.raises(ValueError, match=match):
            holder.fold_delta(base, delta)
        assert_same_arrays(inputs[0], base)
        assert_same_arrays(inputs[1], delta)
