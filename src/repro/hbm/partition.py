"""Partition policies: key → GPU and key → node.

The paper uses modulo hashing for both levels (Section 5, Appendix C.1):
it is constant-memory, balanced for randomly distributed feature ids, and
cheap.  We hash with splitmix64 before the modulo so that structured key
spaces (our generator's slot-banded ids) still balance; a plain ``key % n``
policy is also provided for tests and for the Appendix-A worked example.
"""

from __future__ import annotations

import numpy as np

from repro.utils.keys import KEY_DTYPE, as_keys, mix_hash

__all__ = ["ModuloPartitioner", "partition_arrays", "bucket_order"]

#: Largest key domain served by the memoized bucket table (mirrors the
#: dense caps in :mod:`repro.store.slot_index` and :mod:`repro.utils.keys`).
#: Compact domains pay the hashed modulo once per key ever, then gather.
_PART_TABLE_CAP = 1 << 22


def bucket_order(parts: np.ndarray, n_parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared grouping primitive: ``(order, bounds)`` from bucket ids.

    ``order[bounds[b]:bounds[b+1]]`` are the positions of bucket ``b``'s
    elements in ascending original order (stable sort).  Every consumer of
    a bucket split — :meth:`ModuloPartitioner.split`, the plan builder's
    ``group_indices``, the distributed table's shard dispatch — routes
    through this one function so the grouping contract stays in one place.
    Bucket ids (all in ``[0, n_parts)``) are sorted in the narrowest
    unsigned dtype that holds them: NumPy's stable sort of 8- and 16-bit
    integers is an O(n) radix sort.
    """
    narrow = parts.astype(np.min_scalar_type(n_parts - 1))
    order = np.argsort(narrow, kind="stable")
    bounds = np.searchsorted(narrow[order], np.arange(n_parts + 1))
    return order, bounds


class ModuloPartitioner:
    """Maps keys to ``n_parts`` buckets by hashed modulo.

    Parameters
    ----------
    n_parts:
        Number of buckets (GPUs on a node, or nodes in the cluster).
    salt:
        Distinct salts give independent partitions for the two levels, so
        a node's shard still spreads evenly over its GPUs.
    hashed:
        If False, uses raw ``key % n_parts`` (the paper's round-robin
        example in Appendix A).
    """

    def __init__(self, n_parts: int, *, salt: int = 0, hashed: bool = True) -> None:
        if n_parts <= 0:
            raise ValueError("n_parts must be positive")
        self.n_parts = n_parts
        self.salt = salt
        self.hashed = hashed
        self._table: np.ndarray | None = None
        self._untabled = 0

    def part_of(self, keys: np.ndarray) -> np.ndarray:
        """Bucket index for every key (vectorized)."""
        keys = as_keys(keys)
        if not self.hashed:
            return (keys % np.uint64(self.n_parts)).astype(np.int64)
        if keys.size:
            mx = int(keys.max())
            if mx < _PART_TABLE_CAP:
                tab = self._table
                if tab is not None and tab.size > mx:
                    return tab[keys.astype(np.int64)]
                # Build the table only once the keys hashed without it
                # would have paid for the build — a one-shot large batch
                # (e.g. a cold 100k-key prepare) keeps the direct hash,
                # a steady stream over a compact domain converts.
                self._untabled += keys.size
                if self._untabled >= mx + 1:
                    # Doubling amortizes rebuilds while the observed
                    # domain grows toward its true bound (n_sparse).
                    dom = np.arange(max(1024, 2 * (mx + 1)), dtype=KEY_DTYPE)
                    self._table = (
                        mix_hash(dom, seed=self.salt)
                        % np.uint64(self.n_parts)
                    ).astype(np.int64)
                    return self._table[keys.astype(np.int64)]
        h = mix_hash(keys, seed=self.salt)
        return (h % np.uint64(self.n_parts)).astype(np.int64)

    def split(self, keys: np.ndarray, *arrays: np.ndarray):
        """Partition ``keys`` (and parallel ``arrays``) into buckets.

        Returns a list of tuples, one per bucket: ``(keys_b, *arrays_b)``.
        This is the ``parallel_partition`` of Algorithm 2 line 2.
        """
        keys = as_keys(keys)
        parts = self.part_of(keys)
        order, bounds = bucket_order(parts, self.n_parts)
        out = []
        for b in range(self.n_parts):
            sel = order[bounds[b] : bounds[b + 1]]
            out.append((keys[sel], *(np.asarray(a)[sel] for a in arrays)))
        return out

    def counts(self, keys: np.ndarray) -> np.ndarray:
        """Number of keys per bucket."""
        return np.bincount(self.part_of(keys), minlength=self.n_parts)


def partition_arrays(
    partitioner: ModuloPartitioner, keys: np.ndarray, values: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Convenience wrapper returning ``[(keys_b, values_b), ...]``."""
    return [
        (k, v) for k, v in partitioner.split(keys, values)
    ]
