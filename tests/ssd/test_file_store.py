"""Tests for the SSD parameter-file store (Appendix E)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyDomainError
from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec
from repro.ssd.file_store import FileStore
from repro.utils.keys import KEY_DOMAIN_CAP
from ssd_oracles import ReferenceSSDDevice, assert_same_arrays, store_mapping


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
        _, ids = store.write(keys_of([1, 2]), vals_of(2))
        assert store_mapping(store) == {1: ids[0], 2: ids[0]}

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
        assert r.bytes_read == store.files()[0].keys.size * store.row_bytes

    def test_read_groups_by_file(self, store):
        store.write(keys_of(range(8)), vals_of(8))  # two files
        r = store.read(keys_of(range(8)))
        assert r.files_read == 2

    def test_empty_read(self, store):
        r = store.read(keys_of([]))
        assert r.seconds == 0.0
        assert r.values.shape == (0, 2)


def per_key_reference(store: FileStore, keys: np.ndarray):
    """Per-key read against ``store``'s state, charging each touched
    file exactly once (the I/O unit is the whole file, so a correct
    per-key loop must not re-pay a file already read in this call)."""
    pricer = ReferenceSSDDevice(SSDSpec(), CostLedger())
    out = np.zeros((keys.size, store.value_dim), dtype=np.float32)
    found = np.zeros(keys.size, dtype=bool)
    seconds = 0.0
    paid: set[int] = set()
    mapping = store_mapping(store)
    for i, key in enumerate(keys):
        fid = mapping.get(int(key), -1)
        if fid < 0:
            continue
        f = store.file(fid)
        if fid not in paid:
            seconds += pricer.read(f.keys.size * store.row_bytes)
            paid.add(fid)
        row = int(np.searchsorted(f.keys, key))
        out[i] = store._payload(fid)[row]
        found[i] = True
    return out, found, seconds, len(paid)


class TestGroupedReadParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_grouped_vs_per_key(self, seed):
        """Grouped reads == per-key reference: values, found, seconds."""
        rng = np.random.default_rng(seed)
        store = FileStore(3, file_capacity=int(rng.integers(2, 7)))
        universe = np.arange(60, dtype=np.uint64)
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 30))
            ks = rng.choice(universe, size=n, replace=False)
            store.write(np.sort(ks), rng.normal(size=(n, 3)).astype(np.float32))
        probe = rng.choice(
            np.arange(80, dtype=np.uint64),
            size=int(rng.integers(1, 40)),
            replace=True,  # duplicates allowed — grouped path must cope
        )
        ref_vals, ref_found, ref_seconds, ref_files = per_key_reference(
            store, probe
        )
        r = store.read(probe)
        assert np.array_equal(r.values, ref_vals)
        assert np.array_equal(r.found, ref_found)
        assert r.seconds == ref_seconds  # bit-identical, not approx
        assert r.files_read == ref_files

    def test_grouped_read_charges_each_file_once(self):
        store = FileStore(2, file_capacity=4)
        store.write(keys_of(range(8)), vals_of(8))  # two files
        single = store.read(keys_of([0])).seconds
        whole = store.read(keys_of(range(8)))
        assert whole.files_read == 2
        # Eight keys over two files cost two file reads, not eight.
        assert whole.seconds == pytest.approx(2 * single)


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
        assert fid not in {f.file_id for f in store.files()}
        r = store.read(keys_of([1]))
        assert r.found.all()

    def test_invariants_hold(self, store):
        store.write(keys_of(range(10)), vals_of(10))
        store.write(keys_of(range(5)), vals_of(5, base=3))
        store.check_invariants()

    def test_reclaim_after_erase_keeps_every_live_row(self, store):
        """Erasing the all-stale files and repacking the arena moves the
        live rows, never changes them: every key reads its newest value."""
        store.write(keys_of(range(16)), vals_of(16))  # files 0-3
        store.write(keys_of(range(12)), vals_of(12, base=100.0))  # 0-2 stale
        dead = [f.file_id for f in store.files() if f.n_live == 0]
        assert len(dead) == 3
        for fid in dead:
            store.erase(fid)
        store.reclaim()
        store.check_invariants()
        assert store.n_files == 4 and store.total_bytes == store.live_bytes
        r = store.read(keys_of(range(16)))
        assert r.found.all()
        want = np.concatenate([vals_of(12, base=100.0), vals_of(16)[12:]])
        assert np.array_equal(r.values, want)


class TestDirectoryIgnored:
    """``directory=`` is accepted for the frozen ``benchmarks/hps/micro.py``
    and unused: payloads live in the arena whatever it names."""

    @staticmethod
    def _drive(directory):
        store = FileStore(2, file_capacity=4, directory=directory)
        store.write(keys_of(range(10)), vals_of(10))
        _, (fid,) = store.write(keys_of([1]), vals_of(1, base=7.0))
        store.write(keys_of([1]), vals_of(1, base=9.0))  # fid all-stale
        store.erase(fid)
        store.reclaim()
        r = store.read(keys_of(range(10)))
        other = FileStore(2, file_capacity=4, directory=directory)
        other.load_state(store.export_state())
        return store, r, other

    def test_a_directory_receives_no_files(self, tmp_path):
        target = tmp_path / "ssd"
        self._drive(str(target))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_store_matches_the_arena_store(self, tmp_path):
        arena, ra, oa = self._drive(None)
        named, rn, on = self._drive(str(tmp_path))
        assert np.array_equal(ra.values, rn.values)
        assert (ra.seconds, ra.files_read) == (rn.seconds, rn.files_read)
        assert dict(arena.ledger) == dict(named.ledger)
        assert_same_arrays(arena.export_state(), named.export_state())
        assert_same_arrays(oa.export_state(), on.export_state())


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

    def test_snapshot_ships_only_files_and_the_id_counter(self, store):
        """No cache residency or derived mapping in a snapshot: the
        packed files and the next file id are the whole state."""
        store.write(keys_of(range(6)), vals_of(6))
        store.read(keys_of(range(6)))
        assert sorted(store.export_state()) == [
            "file_ids", "file_keys", "file_live", "file_offsets", "file_stale",
            "file_values", "next_file_id",
        ]

    def test_full_export_ships_live_rows_only(self, store):
        """Format v8: one mask bit per row of every file, and keys and
        values for the live rows alone — in file order, then row order."""
        store.write(keys_of(range(10)), vals_of(10))  # files 0, 1, 2
        store.write(keys_of([1, 2, 5, 9]), vals_of(4, base=50.0))  # file 3
        state = store.export_state()
        rows = store.file_table()[1]
        assert state["file_keys"].size == store.n_live_params == 10
        assert state["file_live"].size == -(-int(rows.sum()) // 8)
        live = np.unpackbits(state["file_live"], count=int(rows.sum())).astype(bool)
        assert live.tolist() == [True, False, False, True, True, False, True, True,
                                 True, False, True, True, True, True]
        assert state["file_keys"].tolist() == [0, 3, 4, 6, 7, 8, 1, 2, 5, 9]
        keys, values = store.items()
        order = state["file_keys"].argsort()
        assert np.array_equal(state["file_keys"][order], keys)
        assert np.array_equal(state["file_values"][order], values)

    def test_export_load_export_is_array_equal(self, store):
        """A restored store exports exactly what it loaded, though its
        stale rows hold key 0 and zeros instead of what was written."""
        store.write(keys_of(range(10)), vals_of(10))
        store.write(keys_of([1, 2, 5, 9]), vals_of(4, base=50.0))
        state = store.export_state()
        other = FileStore(2, file_capacity=4)
        other.load_state(copied(state))
        assert_same_arrays(other.export_state(), state)
        assert other.file(0).keys.tolist() == [0, 0, 0, 3]
        assert np.array_equal(other._payload(0)[1:3], np.zeros((2, 2), np.float32))
        other.check_invariants()

    def test_mask_disagreeing_with_a_stale_counter_is_refused(self, store):
        """A live bit moved from file 0 to a stale row of file 1: as many
        bits as shipped keys, but file 0 ships one row fewer than its
        stale counter allows — refused naming it, target untouched."""
        store.write(keys_of(range(10)), vals_of(10))
        store.write(keys_of([1, 2, 5, 9]), vals_of(4, base=50.0))
        state = store.export_state()
        live = np.unpackbits(state["file_live"], count=14)
        live[0], live[5] = 0, 1
        state["file_live"] = np.packbits(live)
        target = FileStore(2, file_capacity=4)
        target.write(keys_of([100, 101]), vals_of(2, base=9.0))
        with pytest.raises(ValueError, match="stale counter of file 0 disagrees"):
            target.load_state(state)
        r = target.read(keys_of([100, 101]))
        assert r.found.all() and np.array_equal(r.values, vals_of(2, base=9.0))
        assert target.n_files == 1
        target.check_invariants()

    def test_restored_store_reads_at_the_device_rate(self, store):
        """A restore leaves nothing resident: the first and the repeat
        read of each file after it are each a full device read, priced
        exactly as on the store that wrote them."""
        store.write(keys_of(range(8)), vals_of(8))  # two files
        first = store.read(keys_of(range(8)))
        other = FileStore(2, file_capacity=4)
        other.load_state(store.export_state())
        for _ in range(2):
            again = other.read(keys_of(range(8)))
            assert (again.seconds, again.files_read) == (first.seconds, 2)
        assert other.device.read_ops == 4
        assert other.extent_cache.stats() == {"hits": 0, "misses": 0}

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

    def test_key_past_the_cap_is_refused_untouched(self, store):
        """A snapshot mapping a key outside the index's domain used to
        pass validation, erase the target and only then raise from the
        index, leaving the snapshot's file behind an empty mapping."""
        store.write(keys_of([1, 2, 3]), vals_of(3))
        state = store.export_state()
        state["file_keys"][-1] = np.uint64(2**64 - 1)
        target = FileStore(2, file_capacity=4)
        target.write(keys_of([100, 101]), vals_of(2, base=9.0))
        with pytest.raises(KeyDomainError, match="snapshot mapping holds key"):
            target.load_state(state)
        with pytest.raises(KeyDomainError, match="write holds key"):
            target.write(keys_of([5, KEY_DOMAIN_CAP]), vals_of(2))
        assert target.n_files == 1 and target.n_live_params == 2
        r = target.read(keys_of([100, 101]))
        assert r.found.all() and np.array_equal(r.values, vals_of(2, base=9.0))
        target.check_invariants()

    def test_load_state_derives_the_mapping_from_the_newest_file(self):
        """No mapping ships: key 2's live copy is the one in file 1, the
        newer of the two files that held it, and the only one shipped.
        The files must still come in ascending id order."""
        source = FileStore(2, file_capacity=2)
        source.write(keys_of([1, 2]), vals_of(2))
        source.write(keys_of([2, 3]), vals_of(2, base=10.0))
        state = source.export_state()
        assert "map_keys" not in state and "map_fids" not in state
        target = FileStore(2, file_capacity=2)
        target.load_state(state)
        assert store_mapping(target) == {1: 0, 2: 1, 3: 1}
        assert np.array_equal(target.read(keys_of([2])).values, vals_of(1, base=10.0))
        target.check_invariants()
        state["file_ids"] = state["file_ids"][::-1].copy()
        with pytest.raises(ValueError, match="file ids do not ascend"):
            FileStore(2, file_capacity=2).load_state(state)

    def test_load_state_rejects_a_file_holding_a_key_twice(self):
        """A file holds each key once: files {0: [1, 2], 1: [3, 3]} is
        refused naming the file and the key, target untouched."""
        source = FileStore(2, file_capacity=2)
        source.write(keys_of([1, 2]), vals_of(2))
        source.write(keys_of([3, 4]), vals_of(2, base=10.0))
        state = source.export_state()
        state["file_keys"][3] = 3
        target = FileStore(2, file_capacity=2)
        target.write(keys_of([100, 101]), vals_of(2, base=9.0))
        with pytest.raises(ValueError, match=r"ships key 3 twice, in file 1 and file 1"):
            target.load_state(state)
        r = target.read(keys_of([100, 101]))
        assert r.found.all() and np.array_equal(r.values, vals_of(2, base=9.0))
        assert target.n_files == 1
        target.check_invariants()

    def test_load_state_rejects_a_key_shipped_by_two_files(self):
        """Each live row ships once, so two files shipping one key is a
        corrupt snapshot, not an older copy to skip."""
        source = FileStore(2, file_capacity=2)
        source.write(keys_of([1, 2]), vals_of(2))
        source.write(keys_of([3, 4]), vals_of(2, base=10.0))
        state = source.export_state()
        state["file_keys"][2] = 2
        with pytest.raises(ValueError, match=r"ships key 2 twice, in file 0 and file 1"):
            FileStore(2, file_capacity=2).load_state(state)

    def test_load_delta_rejects_stale_counters_the_files_contradict(self):
        """Loading a delta is folding it onto its base (pure) and loading
        the result: a delta whose stale counters disagree with the
        mapping its files imply is refused, nothing mutated."""
        source, base, holder = self._delta_source()
        delta = source.export_delta()
        assert "map_keys" not in delta and "map_fids" not in delta
        delta["file_stale"] = np.array([0, 1], dtype=np.int64)
        inputs = [copied(base), copied(delta)]
        with pytest.raises(ValueError, match=r"stale counter of file 2 disagrees"):
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
                lambda b, d: d.__setitem__("file_ids", np.array([0, 2], np.int64)),
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
