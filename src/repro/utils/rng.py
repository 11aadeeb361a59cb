"""Deterministic random-number plumbing.

Every stochastic component in the library takes an explicit integer seed and
derives independent child streams through :func:`spawn`.  Experiments are
therefore reproducible bit-for-bit, which the test suite relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn", "derive_seed"]


def make_rng(seed: int | None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from an integer seed."""
    return np.random.default_rng(seed)


def derive_seed(seed: int, *tags: int | str) -> int:
    """Derive a child seed from ``seed`` and a sequence of tags.

    Tags may be strings (component names) or integers (shard ids).  The
    derivation is stable across processes and Python versions — it does not
    use :func:`hash`.  ``seed`` must lie in ``[0, 2**64)``; any other
    raises ``ValueError`` naming it.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    h = np.uint64(seed) ^ np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        for tag in tags:
            if isinstance(tag, str):
                for ch in tag.encode():
                    h = (h ^ np.uint64(ch)) * np.uint64(0x100000001B3)
            else:
                h = (h ^ np.uint64(int(tag) & 0xFFFFFFFFFFFFFFFF)) * np.uint64(
                    0x100000001B3
                )
    return int(h & np.uint64(0x7FFFFFFF))


def spawn(seed: int, *tags: int | str) -> np.random.Generator:
    """Child generator keyed by ``(seed, *tags)``."""
    return make_rng(derive_seed(seed, *tags))
