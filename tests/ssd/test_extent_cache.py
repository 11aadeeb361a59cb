"""Tests for the cross-round extent cache and grouped miss-path reads.

Covers the two halves of the SSD fast read path:

* grouped ``FileStore.read`` parity — randomized trials proving the
  grouped implementation matches a per-key reference (identical values,
  found masks, and charged seconds) while the cache is disabled;
* :class:`FileHandleCache` staleness — the cache never serves stale rows
  across ``write`` / ``erase`` / compaction, and a disabled cache is
  bit-identical to not having one;
* its batch access against the per-file get-then-put LRU walk
  (``ReferenceFileCache`` in ``tests/ssd_oracles.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec
from repro.ssd.compaction import Compactor
from repro.ssd.extent_cache import FileHandleCache
from repro.ssd.file_store import FileStore
from repro.ssd.ssd_ps import SSDPS
from ssd_oracles import ReferenceFileCache, ReferenceSSDDevice, store_mapping


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


def vals_of(n, dim=2, base=0.0):
    return (np.arange(n * dim, dtype=np.float32) + base).reshape(n, dim)


def access(cache: FileHandleCache, file_ids) -> list[bool]:
    """One batch access (probe, then touch); returns the hit mask."""
    fids = np.asarray(file_ids, dtype=np.int64)
    hits = cache.probe(fids)
    cache.touch(fids, hits)
    return hits.tolist()


def reference_access(cache: ReferenceFileCache, file_ids) -> list[bool]:
    """The same access one file at a time: get, then put on a miss."""
    hits = []
    for fid in file_ids:
        hits.append(cache.get(fid) is not None)
        if not hits[-1]:
            cache.put(fid, True)
    return hits


class TestFileHandleCache:
    def test_disabled_cache_is_inert(self):
        cache = FileHandleCache(0)
        assert not cache.enabled
        assert access(cache, [1]) == [False]
        assert access(cache, [1]) == [False]
        assert len(cache) == 0
        # A disabled cache never even counts misses — bit-identical to
        # not constructing one.
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 0,
            "resident": 0,
            "capacity": 0,
        }

    def test_lru_eviction_order(self):
        cache = FileHandleCache(2)
        access(cache, [1, 2])
        assert access(cache, [1]) == [True]  # refresh 1 → 2 becomes LRU
        access(cache, [3])
        assert 2 not in cache
        assert 1 in cache and 3 in cache
        assert cache.evictions == 1

    def test_invalidate_counts_only_present_entries(self):
        cache = FileHandleCache(4)
        access(cache, [7])
        assert cache.invalidate(7) is True
        assert cache.invalidate(7) is False
        assert cache.invalidations == 1
        assert 7 not in cache

    def test_resident_ids_lru_order(self):
        cache = FileHandleCache(3)
        access(cache, [1, 2, 3])
        access(cache, [1])
        assert cache.resident_ids() == [2, 3, 1]

    def test_earlier_misses_evict_a_resident_before_its_turn(self):
        """File 5 sits at the LRU end; the miss on file 1 ahead of it in
        the batch evicts it before its turn, so it misses too — as the
        per-file get-then-put walk does.  First in the batch, it hits."""
        cache, ref = FileHandleCache(2), ReferenceFileCache(2)
        access(cache, [5, 9])
        reference_access(ref, [5, 9])
        assert access(cache, [1, 5]) == reference_access(ref, [1, 5]) == [False, False]
        assert cache.resident_ids() == ref.resident_ids() == [1, 5]
        assert access(cache, [5, 2]) == reference_access(ref, [5, 2]) == [True, False]
        assert cache.resident_ids() == ref.resident_ids() == [5, 2]
        assert cache.stats() == ref.stats()

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.sampled_from([0, 1, 2, 16]),
        batches=st.lists(
            st.lists(st.integers(0, 40), unique=True, max_size=24), max_size=6
        ),
        invalidate=st.lists(st.integers(0, 40), max_size=3),
    )
    def test_batch_touch_matches_per_file_lru(self, capacity, batches, invalidate):
        """Unique-id batches shorter and longer than the capacity, with
        invalidations between them: the batch access and the per-file
        walk agree on every hit mask, the counters and the LRU order."""
        cache, ref = FileHandleCache(capacity), ReferenceFileCache(capacity)
        for i, batch in enumerate(batches):
            assert access(cache, batch) == reference_access(ref, batch)
            if i < len(invalidate):
                assert cache.invalidate(invalidate[i]) == ref.invalidate(invalidate[i])
            assert cache.resident_ids() == ref.resident_ids()
            assert cache.stats() == ref.stats()


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
            seconds += pricer.read(store.file_bytes(f))
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
        assert store.extent_cache.stats()["hits"] == 0  # disabled by default

    def test_grouped_read_charges_each_file_once(self):
        store = FileStore(2, file_capacity=4)
        store.write(keys_of(range(8)), vals_of(8))  # two files
        single = store.read(keys_of([0])).seconds
        whole = store.read(keys_of(range(8)))
        assert whole.files_read == 2
        # Eight keys over two files cost two file reads, not eight.
        assert whole.seconds == pytest.approx(2 * single)


def warm_cost(store: FileStore) -> float:
    """What one warm (cached) pass over every live file costs."""
    return sum(
        store.device.warm_read_time(store.file_bytes(f))
        for f in store.files()
    )


class TestExtentCacheReads:
    def test_repeat_read_served_at_warm_rate(self):
        store = FileStore(2, file_capacity=4, extent_cache_files=4)
        store.write(keys_of(range(8)), vals_of(8))
        first = store.read(keys_of(range(8)))
        assert first.files_read == 2 and store.extent_cache.stats()["hits"] == 0
        second = store.read(keys_of(range(8)))
        assert second.files_read == 0
        assert store.extent_cache.stats()["hits"] == 2
        # Hits are priced at the host-memory copy rate — cheap but not
        # free, so the cache can default on without forking sim-seconds.
        assert second.seconds == pytest.approx(warm_cost(store))
        assert 0.0 < second.seconds < first.seconds
        assert np.array_equal(second.values, first.values)

    def test_ledger_charged_at_warm_rate_on_hits(self):
        store = FileStore(2, file_capacity=4, extent_cache_files=4)
        store.write(keys_of(range(4)), vals_of(4))
        store.read(keys_of(range(4)))
        before = store.ledger.total("ssd_read")
        r = store.read(keys_of(range(4)))
        assert r.seconds > 0.0
        assert store.ledger.total("ssd_read") == pytest.approx(
            before + r.seconds
        )
        # ...but the device's *read* counters stay put: a hit is a host
        # copy, not an SSD read.
        reads_before = store.device.read_ops
        store.read(keys_of(range(4)))
        assert store.device.read_ops == reads_before

    def test_write_repoints_around_cached_payload(self):
        """Overwriting keys must not let the cache serve the old rows —
        not by invalidating (files are immutable) but because the
        mapping routes the keys to the new file."""
        store = FileStore(2, file_capacity=4, extent_cache_files=4)
        store.write(keys_of(range(4)), vals_of(4))
        store.read(keys_of(range(4)))  # warm the cache with file 0
        new = vals_of(4, base=100.0)
        store.write(keys_of(range(4)), new)
        r = store.read(keys_of(range(4)))
        assert np.array_equal(r.values, new)
        # The old payload may stay resident, but it was never consulted
        # for these keys: the hit count belongs to the new file only.
        assert store.extent_cache.stats()["hits"] == 0

    def test_partial_overwrite_mixes_cached_and_fresh_files(self):
        store = FileStore(1, file_capacity=8, extent_cache_files=4)
        store.write(keys_of(range(6)), vals_of(6, dim=1))
        store.read(keys_of(range(6)))  # cache file 0
        store.write(keys_of([1, 3]), vals_of(2, dim=1, base=50.0))
        r = store.read(keys_of(range(6)))
        # Keys 0,2,4,5 still live in the cached file (1 hit); 1,3 come
        # from the new uncached file (1 device read).
        assert store.extent_cache.stats()["hits"] == 1
        assert r.files_read == 1
        expect = vals_of(6, dim=1)
        expect[[1, 3]] = vals_of(2, dim=1, base=50.0)
        assert np.array_equal(r.values, expect)

    def test_erase_invalidates_exactly_its_file(self):
        store = FileStore(2, file_capacity=4, extent_cache_files=4)
        _, (fid,) = store.write(keys_of(range(4)), vals_of(4))
        store.read(keys_of(range(4)))  # cache the original file
        store.write(keys_of(range(8)), vals_of(8, base=9.0))
        store.read(keys_of(range(8)))  # warm the two new files too
        resident_before = len(store.extent_cache)
        store.erase(fid)  # fid is all-stale by now
        assert fid not in store.extent_cache
        assert len(store.extent_cache) == resident_before - 1
        assert store.extent_cache.invalidations == 1
        r = store.read(keys_of(range(8)))
        assert np.array_equal(r.values, vals_of(8, base=9.0))

    def test_compaction_never_leaves_stale_payloads_cached(self):
        store = FileStore(1, file_capacity=4, extent_cache_files=8)
        compactor = Compactor(store, usage_threshold=1.1, stale_fraction=0.5)
        store.write(keys_of(range(8)), vals_of(8, dim=1))
        store.read(keys_of(range(8)))  # cache both original files
        latest = vals_of(8, dim=1, base=77.0)
        store.write(keys_of(range(8)), latest)  # originals now all-stale
        assert compactor.compact() > 0 and store.n_files == 2
        # Every erased victim's payload left the cache...
        live_ids = {f.file_id for f in store.files()}
        assert set(store.extent_cache.resident_ids()) <= live_ids
        # ...and reads afterwards serve only the latest values.
        r = store.read(keys_of(range(8)))
        assert np.array_equal(r.values, latest)

    def test_capacity_bound_thrashes_instead_of_growing(self):
        store = FileStore(2, file_capacity=2, extent_cache_files=1)
        store.write(keys_of(range(6)), vals_of(6))  # three files
        store.read(keys_of(range(6)))
        assert len(store.extent_cache) == 1
        assert store.extent_cache.evictions == 2

    def test_state_round_trip_preserves_warm_set(self):
        store = FileStore(2, file_capacity=4, extent_cache_files=4)
        store.write(keys_of(range(8)), vals_of(8))
        store.read(keys_of(range(8)))
        other = FileStore(2, file_capacity=4, extent_cache_files=4)
        other.load_state(store.export_state())
        assert other.extent_cache.resident_ids() == (
            store.extent_cache.resident_ids()
        )
        r = other.read(keys_of(range(8)))  # replay stays warm, like the
        assert other.extent_cache.stats()["hits"] == 2  # original run was
        assert r.seconds == pytest.approx(warm_cost(other))

    def test_old_snapshot_without_cache_field_restores_cold(self):
        store = FileStore(2, file_capacity=4)
        store.write(keys_of(range(4)), vals_of(4))
        state = store.export_state()
        del state["extent_cache_fids"]  # pre-cache snapshot shape
        other = FileStore(2, file_capacity=4, extent_cache_files=4)
        other.load_state(state)
        assert len(other.extent_cache) == 0


class TestSSDPSAccounting:
    """A warm hit is charged exactly once — ``load`` returns what the
    store's read priced and never re-prices it."""

    def test_get_batch_counts_hits_once(self):
        ps = SSDPS(2, file_capacity=4, extent_cache_files=4)
        ps.dump(keys_of(range(4)), vals_of(4))
        ps.load(keys_of(range(4)))  # miss → charged at device rate
        charged = ps.ledger.total("ssd_read")
        result = ps.load(keys_of(range(4)))  # hit → warm rate
        assert result.found.all()
        assert np.array_equal(result.values, vals_of(4))
        assert ps.store.extent_cache.stats()["hits"] == 1
        # The hit pays the host-copy rate, far below the device read.
        warm = warm_cost(ps.store)
        assert 0.0 < warm < charged
        assert result.seconds == pytest.approx(warm)
        assert ps.ledger.total("ssd_read") == pytest.approx(charged + warm)

    def test_contains_is_mapping_only(self):
        ps = SSDPS(2, file_capacity=4, extent_cache_files=4)
        ps.dump(keys_of(range(4)), vals_of(4))
        ps.load(keys_of(range(4)))  # warm the cache
        hits_before = ps.store.extent_cache.stats()
        seconds_before = ps.ledger.total("ssd_read")
        mapping = store_mapping(ps.store)
        assert [k in mapping for k in (0, 1, 99)] == [True, True, False]
        # Membership touched neither the device nor the hit counters.
        assert ps.store.extent_cache.stats() == hits_before
        assert ps.ledger.total("ssd_read") == seconds_before

    def test_transform_hits_are_warm_reads(self):
        """Read-modify-write as the MEM tier drives it (``load`` on a
        miss, ``dump`` on the write-back): the read half of a cached
        file costs the warm rate, the write half what a plain dump does."""
        ps = SSDPS(2, file_capacity=4, extent_cache_files=4)
        ps.dump(keys_of(range(4)), vals_of(4))
        ps.load(keys_of(range(4)))
        read = ps.load(keys_of(range(4)))
        write = ps.dump(keys_of(range(4)), read.values + 1.0)
        assert ps.store.extent_cache.stats()["hits"] == 1
        f = next(iter(ps.store.files()))
        warm = ps.store.device.warm_read_time(ps.store.file_bytes(f))
        dump_only = SSDPS(2, file_capacity=4)
        dump_only.dump(keys_of(range(4)), vals_of(4))
        dump_cost = dump_only.dump(keys_of(range(4)), vals_of(4, base=1.0))
        assert read.seconds + write == pytest.approx(dump_cost + warm)


class TestRewarmCapacity:
    """Satellite regression: re-warm must respect the *live* capacity,
    which may be smaller than the snapshot's residency (a restore into
    a smaller store)."""

    def test_warm_admits_only_newest_ids_without_spurious_evictions(self):
        cache = FileHandleCache(2)
        access(cache, [9])
        cache.warm([1, 2, 3, 4, 5])
        # The snapshot's residency replaces the live one; dropped ids
        # were never churned through the cache.
        assert cache.resident_ids() == [4, 5]
        assert cache.evictions == 0

    def test_restore_into_smaller_store_respects_live_capacity(self):
        big = FileStore(2, file_capacity=2, extent_cache_files=3)
        big.write(keys_of(range(6)), vals_of(6))  # three files
        big.read(keys_of(range(6)))
        assert len(big.extent_cache) == 3
        small = FileStore(2, file_capacity=2, extent_cache_files=1)
        small.load_state(big.export_state())
        assert small.extent_cache.resident_ids() == (
            big.extent_cache.resident_ids()[-1:]
        )
        assert small.extent_cache.evictions == 0
