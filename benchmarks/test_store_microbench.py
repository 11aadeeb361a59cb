"""Microbenchmark: vectorized MEM tier vs the seed per-key implementation.

The batch-first refactor's acceptance bar: at 100k-key batches the
slab-backed :class:`~repro.mem.cache.CombinedCache` must beat the
original dict-of-ndarray per-key code (preserved in
``tests/cache_oracles.py``) by at least 5x wall clock.
In practice the gap is one to two orders of magnitude — the point of the
paper's batch-everything discipline.

Methodology: every measurement is best-of-3 on fresh state, after a
throwaway warm-up round so one-time NumPy dispatch costs don't land on
whichever implementation happens to run first.
"""

import os
import pathlib
import sys
import time

import numpy as np

from repro.bench.report import format_table
from repro.mem.cache import CombinedCache

# The per-key baseline is test code; make it importable when this file
# is run on its own (the full suite already has tests/ on the path).
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from cache_oracles import DictCombinedCache  # noqa: E402

N_KEYS = 100_000
VALUE_DIM = 4
#: Wall-clock assertions are relaxed on shared CI runners, where noisy
#: neighbours can shave 2x off any timing ratio; the full 5x bar is
#: enforced on dedicated machines (the tier-1 gate).
REQUIRED_SPEEDUP = 3.0 if os.environ.get("CI") else 5.0
REPS = 3

IMPLEMENTATIONS = (
    ("slab (vectorized)", CombinedCache),
    ("seed (per-key)", DictCombinedCache),
)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _working_set(rng, n: int) -> np.ndarray:
    """Sorted unique keys — the shape ``unique_keys()`` hands the tiers."""
    return np.sort(rng.choice(10 * n, size=n, replace=False).astype(np.uint64))


def _best_of(measure, reps: int = REPS) -> tuple[float, ...]:
    """Min over ``reps`` runs of ``measure()`` (a tuple of timings)."""
    runs = [measure() for _ in range(reps)]
    return tuple(min(col) for col in zip(*runs))


def test_microbench_cache_batch_ops():
    """CombinedCache.get_batch / put_batch at 100k-key batches."""
    rows = []
    timings = {}
    for name, factory in IMPLEMENTATIONS:

        def measure():
            rng = np.random.default_rng(7)
            cache = factory(400_000, lru_fraction=0.5, value_dim=VALUE_DIM)
            warm_keys = _working_set(rng, N_KEYS)
            cache.put_batch(
                warm_keys, rng.normal(size=(N_KEYS, VALUE_DIM)).astype(np.float32)
            )
            cache.get_batch(warm_keys)
            put_keys = _working_set(rng, N_KEYS)
            put_vals = rng.normal(size=(N_KEYS, VALUE_DIM)).astype(np.float32)
            t_put = _timed(lambda: cache.put_batch(put_keys, put_vals))
            t_get = _timed(lambda: cache.get_batch(put_keys))
            return t_put, t_get

        t_put, t_get = _best_of(measure)
        timings[name] = (t_put, t_get)
        rows.append((name, t_put, t_get))
    print(
        "\n"
        + format_table(
            ["implementation", "put_batch s", "get_batch s"],
            rows,
            title=f"Store microbench: {N_KEYS // 1000}k-key cache batches",
        )
    )
    put_speedup = timings["seed (per-key)"][0] / timings["slab (vectorized)"][0]
    get_speedup = timings["seed (per-key)"][1] / timings["slab (vectorized)"][1]
    print(f"put_batch speedup: {put_speedup:.1f}x, get_batch: {get_speedup:.1f}x")
    assert put_speedup >= REQUIRED_SPEEDUP
    assert get_speedup >= REQUIRED_SPEEDUP
