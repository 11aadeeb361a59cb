"""Property tests for the whole-row gather/scatter primitives.

``take_rows`` / ``put_rows`` / take-add-put are held bit for bit to the
fancy-index forms they replace — ``a[idx]``, ``a[idx] = v`` and
``a[idx] += v`` — on float32 and float64 rows of width 1–16, on row
slices of a wider table, with empty and repeated indices; and
``put_rows`` must refuse what fancy assignment refuses (or what a void
view would silently reshape) with the destination untouched.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rows import put_rows, take_rows

DTYPES = (np.float32, np.float64)


@st.composite
def row_case(draw):
    """A ``(rows, width)`` destination — possibly ``table[:, :width]`` of a
    wider table — an index with repeats / negatives, and a value array
    (float64 values may land in float32 rows)."""
    dtype = draw(st.sampled_from(DTYPES))
    width = draw(st.integers(1, 16))
    extra = draw(st.integers(0, 3))
    n = draw(st.integers(1, 24))
    idx = np.array(
        draw(st.lists(st.integers(-n, n - 1), max_size=40)), dtype=np.int64
    )
    val_dtype = draw(st.sampled_from(DTYPES))
    broadcast = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Wide magnitudes so float64 -> float32 rounding is exercised.
    scale = 10.0 ** rng.integers(-30, 30, size=(1, width))
    table = (rng.standard_normal((n, width + extra)) * scale[:, :1]).astype(dtype)
    v_rows = 1 if broadcast else idx.size
    values = (rng.standard_normal((v_rows, width)) * scale).astype(val_dtype)
    return table, width, idx, values


def _same(x: np.ndarray, y: np.ndarray) -> None:
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


@settings(max_examples=300, deadline=None)
@given(row_case())
def test_take_rows_is_fancy_gather(case):
    table, width, idx, _ = case
    a = table[:, :width]
    _same(take_rows(a, idx), a[idx])


@settings(max_examples=300, deadline=None)
@given(row_case())
def test_put_rows_is_fancy_assignment(case):
    table, width, idx, values = case
    ref, got = table.copy(), table.copy()
    ref[:, :width][idx] = values
    put_rows(got[:, :width], idx, values)
    # The columns past the slice are part of the comparison.
    _same(got, ref)


@settings(max_examples=300, deadline=None)
@given(row_case())
def test_take_add_put_is_fancy_add(case):
    table, width, idx, values = case
    ref, got = table.copy(), table.copy()
    ref[:, :width][idx] += values
    a = got[:, :width]
    acc = take_rows(a, idx)
    acc += values
    put_rows(a, idx, acc)
    _same(got, ref)


def _refused(table, idx, values):
    before = table.tobytes()
    with pytest.raises(ValueError):
        put_rows(table, idx, values)
    assert table.tobytes() == before


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [1, 4, 8])
class TestRefusals:
    def _table(self, dtype, width):
        return np.arange(6 * width, dtype=dtype).reshape(6, width)

    def test_narrow_rows_are_refused(self, dtype, width):
        table = self._table(dtype, width + 1)
        _refused(table, np.array([0, 2]), np.ones((2, width), dtype=dtype))

    def test_wide_rows_are_refused(self, dtype, width):
        table = self._table(dtype, width)
        _refused(table, np.array([0, 2]), np.ones((2, width + 1), dtype=dtype))

    def test_row_count_mismatch_is_refused(self, dtype, width):
        table = self._table(dtype, width)
        _refused(table, np.array([0, 2, 4]), np.ones((2, width), dtype=dtype))
        _refused(table, np.array([0, 2]), np.ones((3, width), dtype=dtype))
        _refused(table, np.array([0, 2]), np.ones(width, dtype=dtype))

    def test_boolean_index_is_refused(self, dtype, width):
        table = self._table(dtype, width)
        mask = np.zeros(6, dtype=bool)
        mask[[1, 3]] = True
        _refused(table, mask, np.ones((2, width), dtype=dtype))

    def test_row_slice_refusal_leaves_the_table(self, dtype, width):
        table = np.arange(6 * (width + 2), dtype=dtype).reshape(6, width + 2)
        before = table.tobytes()
        with pytest.raises(ValueError):
            put_rows(table[:, :width], np.array([1]), np.ones((1, width + 1)))
        assert table.tobytes() == before
