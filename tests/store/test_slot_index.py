"""Tests for the vectorized open-addressing SlotIndex."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.slot_index import SlotIndex
from repro.utils.keys import EMPTY_KEY, TOMBSTONE_KEY


def keys_of(xs):
    return np.array(xs, dtype=np.uint64)


class TestBasics:
    def test_get_on_empty(self):
        idx = SlotIndex()
        vals, found = idx.get(keys_of([1, 2, 3]))
        assert not found.any()
        assert (vals == -1).all()

    def test_set_then_get(self):
        idx = SlotIndex()
        old, existed = idx.set(keys_of([5, 6]), np.array([50, 60]))
        assert not existed.any()
        assert (old == -1).all()
        vals, found = idx.get(keys_of([6, 5, 7]))
        assert vals.tolist() == [60, 50, -1]
        assert found.tolist() == [True, True, False]
        assert len(idx) == 2

    def test_overwrite_returns_old(self):
        idx = SlotIndex()
        idx.set(keys_of([5]), np.array([50]))
        old, existed = idx.set(keys_of([5]), np.array([51]))
        assert old.tolist() == [50]
        assert existed.tolist() == [True]
        assert len(idx) == 1

    def test_remove(self):
        idx = SlotIndex()
        idx.set(keys_of([1, 2]), np.array([10, 20]))
        old, existed = idx.remove(keys_of([2, 3]))
        assert old.tolist() == [20, -1]
        assert existed.tolist() == [True, False]
        assert len(idx) == 1
        _, found = idx.get(keys_of([2]))
        assert not found[0]

    def test_reinsert_after_remove_reuses_tombstone(self):
        idx = SlotIndex()
        idx.set(keys_of([1]), np.array([10]))
        idx.remove(keys_of([1]))
        idx.set(keys_of([1]), np.array([11]))
        vals, found = idx.get(keys_of([1]))
        assert found[0] and vals[0] == 11

    def test_reserved_keys_rejected(self):
        idx = SlotIndex()
        with pytest.raises(ValueError, match="reserved"):
            idx.set(keys_of([int(TOMBSTONE_KEY)]), np.array([1]))
        with pytest.raises(ValueError, match="reserved"):
            idx.set(keys_of([int(EMPTY_KEY)]), np.array([1]))

    def test_items(self):
        idx = SlotIndex()
        idx.set(keys_of([3, 1, 2]), np.array([30, 10, 20]))
        ks, vs = idx.items()
        assert dict(zip(ks.tolist(), vs.tolist())) == {1: 10, 2: 20, 3: 30}


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        idx = SlotIndex(capacity_hint=8)
        n = 5_000
        ks = np.arange(n, dtype=np.uint64)
        idx.set(ks, np.arange(n))
        vals, found = idx.get(ks)
        assert found.all()
        assert np.array_equal(vals, np.arange(n))

    def test_tombstone_churn_does_not_degrade(self):
        idx = SlotIndex(capacity_hint=8)
        for start in range(0, 2_000, 100):
            ks = np.arange(start, start + 100, dtype=np.uint64)
            idx.set(ks, np.arange(100))
            idx.remove(ks)
        assert len(idx) == 0
        # A full insert/get cycle still works after heavy churn.
        ks = np.arange(64, dtype=np.uint64)
        idx.set(ks, np.arange(64))
        _, found = idx.get(ks)
        assert found.all()


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "remove", "get"]),
            st.sets(st.integers(0, 50), min_size=1, max_size=8).map(sorted),
        ),
        max_size=200,
    ),
    st.sampled_from([None, 40]),
)
@settings(max_examples=40, deadline=None)
def test_matches_python_dict(ops, key_domain):
    """The batch verbs against a dict, over a generated sequence: tombstone
    reuse, growth from a 4-key hint, and (``key_domain=40`` with keys up to
    50) the escape from direct addressing to probing."""
    idx = SlotIndex(capacity_hint=4, key_domain=key_domain)
    model: dict[int, int] = {}
    for i, (op, ks) in enumerate(ops):
        keys = keys_of(ks)
        expected = [model.get(k, -1) for k in ks]
        if op == "set":
            payloads = np.arange(len(ks)) + 10 * i
            old, existed = idx.set(keys, payloads)
            model.update(zip(ks, payloads.tolist()))
        elif op == "remove":
            old, existed = idx.remove(keys)
            for k in ks:
                model.pop(k, None)
        else:
            old, existed = idx.get(keys)
        assert old.tolist() == expected
        assert existed.tolist() == [e >= 0 for e in expected]
        assert len(idx) == len(model)
    ks, vs = idx.items()
    assert dict(zip(ks.tolist(), vs.tolist())) == model
