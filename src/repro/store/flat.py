"""Flat in-memory parameter store (the reference trainer's backend).

One growable float32 slab plus a :class:`SlotIndex` — the vectorized
replacement for the reference trainer's ``dict[int, np.ndarray]``.  No
eviction: this models the MPI baseline's "whole model in memory"
assumption, so ``put_batch`` never flushes.
"""

from __future__ import annotations

import numpy as np

from repro.store.slot_index import SlotIndex
from repro.utils.keys import as_keys

__all__ = ["FlatStore"]


class FlatStore:
    """Unbounded batch-first key→value store over a growable slab."""

    def __init__(
        self,
        value_dim: int,
        *,
        capacity: int = 1024,
        key_domain: int | None = None,
    ) -> None:
        """``key_domain`` promises keys in ``[0, key_domain)`` (a model's
        ``n_sparse``): the index then addresses them directly, as every
        production index does (see :class:`SlotIndex`)."""
        if value_dim <= 0:
            raise ValueError("value_dim must be positive")
        self.value_dim = value_dim
        self._index = SlotIndex(capacity, key_domain=key_domain)
        self._values = np.zeros((max(1, capacity), value_dim), dtype=np.float32)
        self._n_rows = 0

    def __len__(self) -> int:
        return self._n_rows

    def _grow_to(self, n: int) -> None:
        if n <= self._values.shape[0]:
            return
        cap = self._values.shape[0]
        while cap < n:
            cap *= 2
        grown = np.zeros((cap, self.value_dim), dtype=np.float32)
        grown[: self._n_rows] = self._values[: self._n_rows]
        self._values = grown

    # ------------------------------------------------------------------
    def get_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values + found mask; missing rows are zero-filled."""
        keys = as_keys(keys)
        out = np.zeros((keys.size, self.value_dim), dtype=np.float32)
        slots, found = self._index.get(keys)
        out[found] = self._values[slots[found]]
        return out, found

    def put_batch(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Upsert unique ``keys``; never evicts (returns empty flushes)."""
        keys = as_keys(keys)
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (keys.size, self.value_dim):
            raise ValueError("values shape mismatch")
        if keys.size == 0:
            return as_keys([]), np.zeros((0, self.value_dim), dtype=np.float32)
        slots, found = self._index.get(keys)
        self._values[slots[found]] = values[found]
        new_idx = np.flatnonzero(~found)
        if new_idx.size:
            rows = np.arange(
                self._n_rows, self._n_rows + new_idx.size, dtype=np.int64
            )
            self._grow_to(self._n_rows + new_idx.size)
            self._n_rows += new_idx.size
            self._values[rows] = values[new_idx]
            self._index.set(keys[new_idx], rows)
        return as_keys([]), np.zeros((0, self.value_dim), dtype=np.float32)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        _, found = self._index.get(as_keys(keys))
        return found

    def transform(self, keys: np.ndarray, fn) -> None:
        """Apply ``new = fn(old)`` to resident ``keys`` (all must exist)."""
        keys = as_keys(keys)
        if keys.size == 0:
            return
        slots, found = self._index.get(keys)
        if not np.all(found):
            missing = keys[~found][:5]
            raise KeyError(f"transform on absent keys, e.g. {missing.tolist()}")
        self._values[slots] = np.asarray(fn(self._values[slots]), dtype=np.float32)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All resident ``(keys, values)``, sorted by key."""
        keys, slots = self._index.items()
        order = np.argsort(keys)
        return keys[order], self._values[slots[order]].copy()
