"""Key utilities shared by every parameter-server layer.

Parameter keys are unsigned 64-bit integers end-to-end (the paper's sparse
feature ids reach ``10**11``, far beyond 32 bits).  All helpers here are
vectorized over NumPy ``uint64`` arrays; none of them loop per key.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KeyDomainError

__all__ = [
    "KEY_DTYPE",
    "EMPTY_KEY",
    "KEY_DOMAIN_CAP",
    "as_keys",
    "all_unique",
    "splitmix64",
    "mix_hash",
    "unique_keys",
    "check_key_cap",
]

KEY_DTYPE = np.uint64

#: Sentinel stored in empty hash-table slots and free cache rows.
#: ``2**64 - 1`` is never a valid feature id in any of the generators
#: (they draw from ``[0, n_sparse)``).
EMPTY_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)

#: The compact key domain ``[0, KEY_DOMAIN_CAP)``.  The store index
#: (:class:`~repro.store.SlotIndex`) addresses keys directly inside it —
#: one int32 per possible key, 16 MiB at the cap — and refuses keys past
#: it; :func:`compact_unique` and the partitioner's bucket table switch to
#: sort / hash paths at it.
KEY_DOMAIN_CAP = 1 << 22

_U64 = np.uint64


def as_keys(values) -> np.ndarray:
    """Coerce ``values`` to a contiguous ``uint64`` key array.

    Accepts lists, ranges, or arrays of any integer dtype.  Raises
    ``ValueError`` for negative inputs rather than silently wrapping.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return np.empty(arr.shape, dtype=KEY_DTYPE)
    if arr.dtype.kind == "f":
        raise ValueError("parameter keys must be integers, got floats")
    if arr.dtype.kind == "i" and arr.size and arr.min() < 0:
        raise ValueError("parameter keys must be non-negative")
    if arr.dtype != KEY_DTYPE:
        arr = arr.astype(KEY_DTYPE)
    return np.ascontiguousarray(arr)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — a strong, cheap 64-bit mixer.

    Used to scatter sequential feature ids across hash-table slots and
    partitions, mirroring the murmur-style mixing cuDF's
    ``concurrent_unordered_map`` applies before the modulo.
    """
    x = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        x += _U64(0x9E3779B97F4A7C15)
        x ^= x >> _U64(30)
        x *= _U64(0xBF58476D1CE4E5B9)
        x ^= x >> _U64(27)
        x *= _U64(0x94D049BB133111EB)
        x ^= x >> _U64(31)
    return x


def mix_hash(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Mix ``keys`` with an optional ``seed`` salt (vectorized)."""
    k = as_keys(keys)
    if seed:
        with np.errstate(over="ignore"):
            k = k ^ splitmix64(np.full(1, seed, dtype=_U64))[0]
    return splitmix64(k)


def all_unique(keys: np.ndarray) -> bool:
    """Cheap duplicate test for key batches.

    Working sets are usually the sorted output of :func:`unique_keys`, so
    a strictly-increasing scan (O(n)) short-circuits before paying the
    O(n log n) ``np.unique`` sort.
    """
    if keys.size <= 1:
        return True
    if bool((keys[1:] > keys[:-1]).all()):
        return True
    return np.unique(keys).size == keys.size


def compact_unique(keys: np.ndarray, *, return_inverse: bool = False):
    """``np.unique`` — sorted dedup, optional inverse — for key arrays.

    Compact key domains (max key below :data:`KEY_DOMAIN_CAP`, e.g.
    the functional models' ``[0, n_sparse)`` ids) dedup via one boolean
    scatter over the domain instead of the O(n log n) sort/hash; results
    are identical.  Larger domains fall back to ``np.unique``.
    """
    if keys.size == 0:
        empty = keys[:0].copy()
        return (empty, np.empty(0, dtype=np.int64)) if return_inverse else empty
    mx = int(keys.max())
    if mx >= KEY_DOMAIN_CAP:
        if return_inverse:
            return np.unique(keys, return_inverse=True)
        return np.unique(keys)
    idx = keys.astype(np.int64)
    member = np.zeros(mx + 1, dtype=bool)
    member[idx] = True
    upos = np.flatnonzero(member)
    uniq = upos.astype(keys.dtype)
    if not return_inverse:
        return uniq
    rank = np.empty(mx + 1, dtype=np.int64)
    rank[upos] = np.arange(upos.size, dtype=np.int64)
    return uniq, rank[idx]


def unique_keys(*key_arrays: np.ndarray) -> np.ndarray:
    """Union of several key arrays, sorted, deduplicated.

    This implements the "identify the union of the referenced parameters in
    the current received batch" step of Algorithm 1 (line 3).
    """
    non_empty = [as_keys(a) for a in key_arrays if np.asarray(a).size]
    if not non_empty:
        return np.empty(0, dtype=KEY_DTYPE)
    return compact_unique(np.concatenate(non_empty))


def check_key_cap(max_key: int, what: str) -> None:
    """Refuse a largest key at or past :data:`KEY_DOMAIN_CAP` with a
    :class:`~repro.errors.KeyDomainError` naming ``what``."""
    if max_key >= KEY_DOMAIN_CAP:
        raise KeyDomainError(
            f"{what} holds key {max_key}, outside the key domain "
            f"[0, KEY_DOMAIN_CAP = {KEY_DOMAIN_CAP}) the store index serves"
        )
