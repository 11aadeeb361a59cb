"""Batch and mini-batch containers.

A :class:`Batch` stores a set of CTR examples in CSR-like form: a flat key
array plus row offsets, with one binary label per example.  This is the unit
streamed from HDFS (paper: ~4M examples per batch).  ``shard`` implements
Algorithm 1 line 5 — splitting a batch into per-GPU mini-batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.keys import as_keys, unique_keys

__all__ = ["Batch"]


@dataclass
class Batch:
    """CSR-encoded sparse examples.

    Attributes
    ----------
    keys:
        Flat ``uint64`` array of all non-zero feature ids, row-major.
    offsets:
        ``int64`` array of length ``n_examples + 1``; example ``i`` owns
        ``keys[offsets[i]:offsets[i+1]]``.
    labels:
        ``float32`` array of 0/1 click labels, length ``n_examples``.
    """

    keys: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.keys = as_keys(self.keys)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.float32)
        if self.offsets.ndim != 1 or self.offsets.size == 0:
            raise ValueError("offsets must be a 1-D array with >= 1 entry")
        if self.offsets[0] != 0 or self.offsets[-1] != self.keys.size:
            raise ValueError("offsets must start at 0 and end at len(keys)")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if self.labels.size != self.offsets.size - 1:
            raise ValueError("labels length must equal number of examples")
        self._unique: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def n_examples(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def n_nonzeros(self) -> int:
        return int(self.keys.size)

    def unique_keys(self) -> np.ndarray:
        """Sorted unique feature keys referenced by this batch —
        the batch's *working parameters* (Algorithm 1 line 3).

        Memoized (batches are immutable once built, and the plan builder
        and every stage ask for the same set); treat the returned array
        as read-only.
        """
        if self._unique is None:
            self._unique = unique_keys(self.keys)
        return self._unique

    def row_lengths(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    # ------------------------------------------------------------------
    @classmethod
    def _trusted(
        cls, keys: np.ndarray, offsets: np.ndarray, labels: np.ndarray
    ) -> "Batch":
        """Construct from arrays that already satisfy the invariants.

        For internal producers (contiguous shard slices of an
        already-validated batch) whose CSR structure is correct by
        construction — skips ``__post_init__`` validation scans.
        """
        b = cls.__new__(cls)
        b.keys = keys
        b.offsets = offsets
        b.labels = labels
        b._unique = None
        return b

    def shard(self, n_shards: int) -> list["Batch"]:
        """Split into ``n_shards`` contiguous mini-batches (Alg. 1 line 5).

        Shard sizes differ by at most one example.  Empty shards are
        produced when ``n_shards > n_examples``.
        """
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        bounds = np.linspace(0, self.n_examples, n_shards + 1).astype(np.int64)
        # Shards are contiguous example ranges, so each is a pure slice
        # of the CSR arrays.
        offsets, keys, labels = self.offsets, self.keys, self.labels
        out = []
        for i in range(n_shards):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            ks, ke = int(offsets[lo]), int(offsets[hi])
            out.append(
                Batch._trusted(
                    keys[ks:ke],
                    offsets[lo : hi + 1] - offsets[lo],
                    labels[lo:hi],
                )
            )
        return out

    # ------------------------------------------------------------------
    def nbytes_raw_log(self, *, bytes_per_key: int = 8, header: int = 16) -> int:
        """Approximate on-disk click-log footprint of this batch.

        Drives the HDFS read-time model: each example is a header (label,
        ids, timestamps) plus one encoded key per non-zero.
        """
        return self.n_examples * header + self.n_nonzeros * bytes_per_key
