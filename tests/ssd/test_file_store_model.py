"""The row-addressed ``FileStore`` against the per-file store it replaced.

A ``RuleBasedStateMachine`` drives a ``FileStore`` — memory and disk
backend, extent cache off / small / roomy — in lockstep
with ``ReferenceFileStore`` (``tests/ssd_oracles.py``: the parent's
per-file implementation) and a plain dict.  After every step the two
stores must agree on everything observable — values, found masks, every
``ReadResult`` field, device counters, ledger lines **bit-equal**,
extent-cache residency and statistics, checkpoint arrays byte for byte —
and the store's own invariants must hold.  The simulated clock is a
contract: a reordered charge shows up here as a last-digit difference in
``ssd_read``.
"""

import random
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.errors import TierStateError
from repro.faults.errors import PayloadLostError
from repro.faults.policy import FaultArm, RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.ssd.compaction import Compactor
from repro.ssd.file_store import FileStore
from ssd_oracles import ReferenceFileStore, assert_same_arrays, assert_stores_agree

#: extent-cache capacities in files: off, thrashing, roomy
CACHES = {"off": 0, "small": 2, "roomy": 16}


def values_for(keys, dim: int, stamp: int) -> np.ndarray:
    """Distinct per (key, write) so a stale row can never pass for live."""
    k = np.asarray(keys, dtype=np.float32)[:, None]
    return k * 1000.0 + stamp + np.arange(dim, dtype=np.float32) / 8.0


#: a small universe, so most writes overwrite and files go stale quickly
key_sets = st.sets(st.integers(0, 24), min_size=1, max_size=14).map(sorted)


class FileStoreVsReference(RuleBasedStateMachine):
    @initialize(
        disk=st.booleans(),
        capacity=st.sampled_from([1, 3, 4, 8]),
        dim=st.integers(1, 3),
        cache=st.sampled_from(sorted(CACHES)),
    )
    def build(self, disk, capacity, dim, cache):
        self.disk, self.capacity, self.dim = disk, capacity, dim
        self.cache = CACHES[cache]
        self.dirs: list[str] = []
        self.store, self.ref = self.fresh_pair()
        self.model: dict[int, np.ndarray] = {}
        self.stamp = 0
        self.repacks = 0
        self.rebase()

    def fresh_pair(self):
        directory = None
        if self.disk:
            directory = tempfile.mkdtemp(prefix="filestore-model-")
            self.dirs.append(directory)
        store = FileStore(
            self.dim, self.capacity, directory=directory, extent_cache_files=self.cache
        )
        reclaim = store.reclaim

        def checked_reclaim():
            garbage = store._arena_used - store._arena_live
            reclaim()
            if garbage > 0.25 * (garbage + store._arena_live):
                self.repacks += 1
                # Packed: exactly the live files' rows, nothing between.
                assert store._arena_used == store._arena_live
                assert store._arena_used == int(store.file_table()[1].sum())

        store.reclaim = checked_reclaim
        return store, ReferenceFileStore(self.dim, self.capacity, self.cache)

    def rebase(self):
        """Snapshot the store and mark it there; keep the full export
        (the base the next delta folds onto) and a pair of stores holding
        exactly the snapshot (the oracle applies the next delta to its
        own)."""
        state = self.store.export_state()
        assert_same_arrays(state, self.ref.export_state())
        self.store.mark_snapshot()
        holder, holder_ref = self.fresh_pair()
        holder.load_state(state)
        holder_ref.load_state(state)
        # Loaded, not yet marked: nothing to diff against.
        with pytest.raises(TierStateError, match="mark"):
            holder.export_delta()
        self.base = (state, holder, holder_ref)

    def teardown(self):
        for directory in getattr(self, "dirs", ()):
            shutil.rmtree(directory, ignore_errors=True)

    # -- verbs -----------------------------------------------------------
    @rule(keys=key_sets, shuffle=st.randoms(use_true_random=False))
    def write(self, keys, shuffle):
        """Fresh and overwriting keys, unsorted, partial last chunk."""
        shuffle.shuffle(keys)
        self.stamp += 1
        values = values_for(keys, self.dim, self.stamp)
        mine = self.store.write(np.asarray(keys, dtype=np.uint64), values)
        theirs = self.ref.write(keys, values)
        assert mine == theirs
        self.model.update(zip(keys, values))

    @rule(keys=key_sets.map(lambda keys: keys[:3]))
    def write_few(self, keys):
        """Small dumps: many files, each going stale a row at a time."""
        self.write(keys, random.Random(0))

    @rule(keys=st.lists(st.integers(0, 30), max_size=30))
    def read(self, keys):
        """Duplicates, unmapped keys, the empty batch."""
        mine = self.store.read(np.asarray(keys, dtype=np.uint64))
        theirs = self.ref.read(keys)
        assert np.array_equal(mine.values, theirs.values)
        assert np.array_equal(mine.found, theirs.found)
        assert mine.seconds == theirs.seconds
        assert (mine.files_read, mine.bytes_read, mine.cache_hits) == (
            theirs.files_read,
            theirs.bytes_read,
            theirs.cache_hits,
        )
        assert mine.found.tolist() == [k in self.model for k in keys]
        for k, row in zip(keys, mine.values):
            if k in self.model:
                assert np.array_equal(row, self.model[k])

    @rule(
        threshold=st.sampled_from([1.0, 1.2, 1.5]),
        fraction=st.sampled_from([0.3, 0.5, 1.0]),
    )
    def compact(self, threshold, fraction):
        stats = Compactor(
            self.store, usage_threshold=threshold, stale_fraction=fraction
        ).compact()
        seconds = self.ref.compact(threshold, fraction)
        assert stats.triggered == (seconds is not None)
        if stats.triggered:
            assert stats.seconds == seconds

    @rule(pick=st.integers(0, 1 << 16))
    def erase_dead_file(self, pick):
        dead = [f.file_id for f in self.store.files() if f.n_live == 0]
        if dead:
            fid = dead[pick % len(dead)]
            self.store.erase(fid)
            self.store.reclaim()
            self.ref.erase(fid)

    @rule()
    def restore_from_full_snapshot(self):
        """export_state -> load_state; the fresh store carries on."""
        self.rebase()
        _, self.store, self.ref = self.base
        self.rebase()

    @rule()
    def restore_from_delta(self):
        """export_delta (against the store's own mark) folded onto the
        full export taken at the mark is, byte for byte, the store's
        export now; loading it into a fresh store agrees with the oracle
        applying the delta member by member to its copy of the base, and
        that store carries on as the live one.  A file store's write set
        is exact — files are immutable, ids monotone — so the delta is
        array for array what the oracle gets by diffing the retained full
        export."""
        state, _, holder_ref = self.base
        delta = self.store.export_delta()
        assert_same_arrays(delta, self.ref.export_delta(state))
        inputs = [{k: np.copy(v) for k, v in d.items()} for d in (state, delta)]
        folded = self.store.fold_delta(state, delta)
        for before, after in zip(inputs, (state, delta)):
            assert_same_arrays(before, after)  # the fold mutates nothing
        assert_same_arrays(folded, self.store.export_state())
        holder, _ = self.fresh_pair()
        holder.load_state(folded)
        holder_ref.load_delta(delta)
        self.store, self.ref = holder, holder_ref
        self.rebase()

    # -- after every step --------------------------------------------------
    @invariant()
    def agrees_with_reference_and_model(self):
        if not hasattr(self, "store"):
            return
        self.store.check_invariants()
        assert_stores_agree(self.store, self.ref)
        keys, values = self.store.items()
        assert keys.tolist() == sorted(self.model)
        for k, row in zip(keys.tolist(), values):
            assert np.array_equal(row, self.model[k])


TestFileStoreVsReference = FileStoreVsReference.TestCase
TestFileStoreVsReference.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


# ----------------------------------------------------------------------
# (b) armed reads: the fault arm sees the same files in the same order
# ----------------------------------------------------------------------
def armed_pair(script, recovery_of):
    """A store and the oracle with identical contents, each behind its own
    ``FaultArm`` on an identical scripted schedule."""
    store = FileStore(2, 4, extent_cache_files=2)
    ref = ReferenceFileStore(2, 4, max_files=2)
    seen = {"store": [], "ref": []}
    for name, target in (("store", store), ("ref", ref)):
        for stamp, keys in enumerate(([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [2, 3, 9, 11])):
            target.write(
                np.asarray(keys, dtype=np.uint64), values_for(keys, 2, stamp)
            )
        arm = FaultArm(
            FaultSchedule(3, script=script),
            RetryPolicy(max_attempts=3),
            target.ledger,
            surface="ssd",
            node=0,
            incidents=[],
            recovery=recovery_of(target) if recovery_of else None,
        )
        ssd_read = arm.ssd_read

        def recording(s, f, ssd_read=ssd_read, log=seen[name]):
            log.append((f.file_id, f.keys.tolist()))
            return ssd_read(s, f)

        arm.ssd_read = recording
        target.faults = arm
    return store, ref, seen


def checkpointed_copy(target):
    """A quarantine source serving each file's own payload, as a
    checkpoint chain would."""

    def recovery(file_id, expected_keys):
        values = np.array(target._payload(file_id), dtype=np.float32)
        return values, 4096, 0.125

    return recovery


class TestArmedRead:
    PROBE = np.asarray([9, 0, 5, 11, 40, 2, 2], dtype=np.uint64)

    def test_retries_are_priced_identically(self):
        script = {("ssd_read_error", 0, 1): 2, ("ssd_torn_payload", 0, 2): 1}
        store, ref, seen = armed_pair(script, None)
        mine, theirs = store.read(self.PROBE), ref.read(self.PROBE)
        assert seen["store"] == seen["ref"]
        assert [fid for fid, _ in seen["store"]] == sorted(
            {fid for fid, _ in seen["store"]}
        )
        assert np.array_equal(mine.values, theirs.values)
        assert mine.seconds == theirs.seconds
        assert store.faults.incidents == ref.faults.incidents
        assert len(store.faults.incidents) == 2
        assert_stores_agree(store, ref)

    def test_quarantine_rematerializes_through_the_arena(self):
        script = {("ssd_read_error", 0, 0): 8}  # exhaust every retry
        store, ref, seen = armed_pair(script, checkpointed_copy)
        before = store.read(self.PROBE).values  # quarantines file 0 on the way
        theirs = ref.read(self.PROBE)
        assert seen["store"] == seen["ref"]
        assert store.faults.incidents == ref.faults.incidents
        assert [i.action for i in store.faults.incidents] == ["quarantine"]
        assert store.faults.bytes_reread == ref.faults.bytes_reread == 4096
        assert np.array_equal(before, theirs.values)
        assert_stores_agree(store, ref)
        store.check_invariants()

    def test_an_escaping_fault_charges_and_caches_nothing(self):
        """The second cold file of a read is lost for good (exhausted, no
        checkpointed copy): PayloadLostError leaves the ``ssd_read`` line,
        the device counters and the extent cache's counters and LRU order
        exactly as before the call.  Only the arm's own ``fault_retry``
        seconds — here a retried first cold file — stay charged."""
        script = {("ssd_read_error", 0, 1): 1, ("ssd_read_error", 0, 2): 8}
        store, _, seen = armed_pair(script, None)
        store.read(np.asarray([9], dtype=np.uint64))  # file 3 now resident

        def observed():
            cache = store.extent_cache
            return (
                store.ledger.total("ssd_read"),
                store.ledger.count("ssd_read"),
                store.device.bytes_read,
                store.device.read_ops,
                cache.stats(),
                cache.resident_ids(),
            )

        before, retried = observed(), store.ledger.total("fault_retry")
        with pytest.raises(PayloadLostError) as lost:
            store.read(self.PROBE)  # files 0, 1 cold; 3 warm
        assert lost.value.file_id == 1
        assert [fid for fid, _ in seen["store"]] == [3, 0, 1]
        assert observed() == before
        assert store.ledger.total("fault_retry") > retried
        store.check_invariants()

    def test_rematerialized_rows_are_the_rows_reads_gather(self):
        """``_store_payload`` — the quarantine's write — lands in the
        arena rows the locators point at, wherever a repack moved them."""
        store = FileStore(2, 4)
        for stamp in range(3):
            store.write(np.arange(8, dtype=np.uint64), values_for(range(8), 2, stamp))
        for fid in (0, 1, 2, 3):  # all-stale: two thirds of the arena is garbage
            store.erase(fid)
        store.reclaim()
        assert store._arena_used == store._arena_live == 8  # repacked
        store.write(np.asarray([20], dtype=np.uint64), values_for([20], 2, 9))
        f = store.file(5)
        recovered = store._payload(5) + 1.0
        store._store_payload(5, recovered)
        assert np.array_equal(store.read(f.keys).values, recovered)
        store.check_invariants()


# ----------------------------------------------------------------------
# (c) the arena is packed, not slotted by capacity
# ----------------------------------------------------------------------
def test_arena_holds_packed_rows_not_capacity_sized_slots():
    """200 three-hundred-row files in a ``2**16``-capacity store occupy
    60 000 arena rows, not 200 capacity-sized slots: the memory the arena
    ever touches stays under twice the live payload (it *is* the live
    payload), and even its untouched address space is a small multiple."""
    dim = 8
    store = FileStore(dim, 2**16)
    for i in range(200):
        keys = np.arange(i * 300, (i + 1) * 300, dtype=np.uint64)
        store.write(keys, np.full((300, dim), float(i), dtype=np.float32))
    assert store.n_files == 200
    assert store._arena_used == 200 * 300  # touched rows == live rows
    assert store._arena.shape[0] <= 4 * 200 * 300  # address space, not memory
    r = store.read(np.asarray([0, 299, 300, 59_999], dtype=np.uint64))
    assert r.values[:, 0].tolist() == [0.0, 0.0, 1.0, 199.0]
    store.check_invariants()


# ----------------------------------------------------------------------
# (d) victim order fixes the order of the compactor's read charges
# ----------------------------------------------------------------------
def test_victims_most_stale_first_ties_by_ascending_file_id():
    store = FileStore(1, 4)

    def write(keys):
        store.write(
            np.asarray(keys, dtype=np.uint64), np.zeros((len(keys), 1), np.float32)
        )

    for lo in (0, 4, 8, 12, 16):  # files 0..4, four rows each
        write(range(lo, lo + 4))
    write([0, 1])  # file 0: 2/4 stale
    write([4, 5, 6])  # file 1: 3/4
    write([8, 9])  # file 2: 2/4
    write([12, 13, 14, 15])  # file 3: 4/4
    write([16])  # file 4: 1/4 — below the bar
    comp = Compactor(store, usage_threshold=1.0, stale_fraction=0.5)
    assert comp.victims() == [3, 1, 0, 2]

    # Recycled slots must not leak into the order: erase file 3, let new
    # files take its slot, and the ranking still follows file ids.
    store.erase(3)
    write([20, 21, 22, 23])  # file 10 (recycles file 3's slot)
    write([20, 21])  # file 10: 2/4 — ties with files 0 and 2
    assert comp.victims() == [1, 0, 2, 10]

    charged = []
    read_files = store.device.read_files
    store.device.read_files = lambda sizes: charged.extend(sizes.tolist()) or read_files(sizes)
    stats = comp.compact()
    assert stats.files_merged == 4
    assert charged == [4 * store.row_bytes] * 4
