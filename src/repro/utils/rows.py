"""Whole-row gather and scatter for ``(rows, width)`` parameter arrays.

Every round moves each working parameter across a tier boundary twice
(paper Section 5, Algorithm 1 lines 3–4 and 16–18): MEM slab → round
array → MEM slab, plus the HBM gradient buffer, the all-reduce partials,
the sync apply and the predict lookup.  Those rows are 16–64 bytes, and a
2-D NumPy fancy index moves them element by element.  These two
primitives move a row as one unit instead:

* :func:`take_rows` is ``a[idx]`` — the ``ndarray.take`` method along
  axis 0 (not the ``np.take`` Python wrapper), which copies whole rows;
* :func:`put_rows` is ``a[idx] = values`` — a scatter through a view of
  ``a`` with one ``np.void`` element per row.

``a[idx] += v`` is take, add in place, put: fancy ``+=`` is itself
gather → add → scatter, so repeated indices resolve the same way (the
last write wins) and the result is bit-identical.

A bare void-view scatter silently pads a narrow row or truncates a wide
one where fancy assignment raises, so :func:`put_rows` keeps fancy
assignment's checks: a ``values`` array that is neither one row per
index nor one row to broadcast, or a boolean index, is refused with
``ValueError`` before anything is written.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["take_rows", "put_rows"]


def take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[idx]`` for an integer row index — a new ``(len(idx), width)``
    array."""
    return a.take(idx, axis=0)


@cache
def _void(nbytes: int) -> np.dtype:
    return np.dtype((np.void, nbytes))


def _void_rows(a: np.ndarray) -> np.ndarray:
    """``a`` (2-D, unit-stride rows) as a 1-D view of one ``np.void`` per
    row; row slices such as ``table[:, :dim]`` qualify."""
    return a.view(_void(a.shape[1] * a.itemsize))[:, 0]


def put_rows(a: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``a[idx] = values`` for an integer row index, one row at a time.

    ``values`` is ``(len(idx), width)`` or ``(1, width)`` (broadcast to
    every index) and is cast to ``a``'s dtype exactly as fancy assignment
    casts it.  Repeated indices keep the last row, as fancy assignment
    does.  Raises ``ValueError``, with ``a`` untouched, for any other
    ``values`` shape or for a boolean index.
    """
    idx = np.asarray(idx)
    if idx.dtype == np.bool_:
        raise ValueError(
            "put_rows takes integer row indices, not a boolean mask — "
            "pass np.flatnonzero(mask)"
        )
    if a.ndim != 2 or idx.ndim != 1:
        raise ValueError(
            f"put_rows scatters a 1-D index into the rows of a 2-D array, "
            f"got a {idx.ndim}-D index into a {a.ndim}-D array"
        )
    vals = np.ascontiguousarray(values, dtype=a.dtype)
    if vals.shape != (idx.size, a.shape[1]) and vals.shape != (1, a.shape[1]):
        raise ValueError(
            f"put_rows values of shape {vals.shape} do not fit {idx.size} "
            f"rows of width {a.shape[1]}"
        )
    _void_rows(a)[idx] = _void_rows(vals)
