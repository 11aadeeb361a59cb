"""Tests for the direct-addressed SlotIndex."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyDomainError, PayloadRangeError
from repro.store.slot_index import SlotIndex
from repro.utils.keys import EMPTY_KEY, KEY_DOMAIN_CAP


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

    def test_items(self):
        idx = SlotIndex()
        idx.set(keys_of([3, 1, 2]), np.array([30, 10, 20]))
        ks, vs = idx.items()
        assert ks.tolist() == [1, 2, 3]  # ascending by construction
        assert vs.tolist() == [10, 20, 30]

    def test_keys_past_the_cap_are_refused(self):
        idx = SlotIndex()
        idx.set(keys_of([7]), np.array([70]))
        for key in (KEY_DOMAIN_CAP, int(EMPTY_KEY)):
            for verb in (idx.get, idx.remove, lambda k: idx.set(k, np.array([0]))):
                with pytest.raises(KeyDomainError, match=str(key)):
                    verb(keys_of([key]))
        assert [a.tolist() for a in idx.items()] == [[7], [70]]
        assert len(idx) == 1
        idx.set(keys_of([KEY_DOMAIN_CAP - 1]), np.array([1]))  # the last key
        assert len(idx) == 2

    @pytest.mark.parametrize("bad", [2**31, 2**40, -1, -2])
    def test_payloads_outside_int32_are_refused(self, bad):
        """Payloads are int32: one at or past 2**31, or negative, used to
        be stored as it came.  The refusal leaves the index as it was."""
        idx = SlotIndex()
        idx.set(keys_of([3, 9]), np.array([30, 2**31 - 1]))  # the last payload
        with pytest.raises(PayloadRangeError, match=str(bad)):
            idx.set(keys_of([3, 5000]), np.array([31, bad]))
        vals, found = idx.get(keys_of([3, 9, 5000]))
        assert vals.tolist() == [30, 2**31 - 1, -1]
        assert found.tolist() == [True, True, False]
        assert [a.tolist() for a in idx.items()] == [[3, 9], [30, 2**31 - 1]]
        assert len(idx) == 2


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        idx = SlotIndex()
        n = 5_000
        ks = np.arange(n, dtype=np.uint64)
        idx.set(ks, np.arange(n))
        vals, found = idx.get(ks)
        assert found.all()
        assert np.array_equal(vals, np.arange(n))


#: keys below the first allocation and across three doublings of it
_KEYS = st.one_of(st.integers(0, 60), st.integers(0, 9_000))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["set", "remove", "get"]),
            st.sets(_KEYS, min_size=1, max_size=8).map(sorted),
            st.one_of(st.none(), st.integers(KEY_DOMAIN_CAP, 2**64 - 1)),
        ),
        max_size=120,
    )
)
@settings(max_examples=60, deadline=None)
def test_matches_python_dict(ops):
    """The batch verbs against a dict over a generated sequence whose
    keys grow the index several times.  A batch holding a key past the
    cap raises ``KeyDomainError`` with the contents unchanged."""
    idx = SlotIndex()
    model: dict[int, int] = {}
    for i, (op, ks, outside) in enumerate(ops):
        keys = keys_of(ks)
        payloads = np.arange(len(ks)) + 10 * i
        if outside is not None:
            batch = keys_of([*ks, outside])
            with pytest.raises(KeyDomainError):
                if op == "set":
                    idx.set(batch, np.append(payloads, 0))
                else:
                    getattr(idx, op)(batch)
            assert idx.items()[0].tolist() == sorted(model)
        expected = [model.get(k, -1) for k in ks]
        if op == "set":
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
    assert ks.tolist() == sorted(model)
    assert vs.tolist() == [model[k] for k in sorted(model)]
