"""Synthetic CTR click-log generator.

Substitutes the paper's production search-ads logs.  What matters for every
experiment in the paper is preserved:

* **Slot structure** — each example has one (or a few) active ids per
  feature slot (query, ad, user, context, …), i.e. one-hot/multi-hot groups.
* **Skew** — feature popularity is Zipfian, so a small set of hot keys
  recurs across batches (this is what makes the MEM-PS cache reach a stable
  ~46% hit rate in Fig. 4(c)).
* **Planted signal** — labels come from a ground-truth sparse logistic model
  with pairwise interaction terms, so a DNN beats LR (Table 1/2) and AUC is
  a meaningful, improvable metric.
"""

from __future__ import annotations

import numpy as np

from repro.config import ModelSpec
from repro.data.batching import Batch
from repro.utils.keys import KEY_DTYPE, splitmix64
from repro.utils.rng import spawn

__all__ = ["CTRDataGenerator", "zipf_probabilities"]


def zipf_probabilities(n: int, exponent: float = 1.05) -> np.ndarray:
    """Normalized Zipf pmf over ``n`` ranks (rank 1 most popular)."""
    if n <= 0:
        raise ValueError("n must be positive")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks ** (-exponent)
    return p / p.sum()


def _median(x: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array, minus its wrapper overhead."""
    mid = x.size // 2
    if x.size % 2:
        return np.partition(x, mid)[mid]
    part = np.partition(x, (mid - 1, mid))
    return (part[mid - 1] + part[mid]) / 2.0


class CTRDataGenerator:
    """Streaming generator of :class:`Batch` objects for a model spec.

    Parameters
    ----------
    spec:
        Model shape: key-space size, slots, nonzeros per example.
    seed:
        Master seed; batch ``i`` is a pure function of ``(seed, i)``.
    zipf_exponent:
        Popularity skew.  ``~1.05`` reproduces production-like reuse.
    noise:
        Label noise scale added to the planted logit.
    """

    def __init__(
        self,
        spec: ModelSpec,
        *,
        seed: int = 0,
        zipf_exponent: float = 1.05,
        noise: float = 0.3,
    ) -> None:
        if zipf_exponent <= 1.0:
            raise ValueError("zipf_exponent must exceed 1.0")
        self.spec = spec
        self.seed = seed
        self.zipf_exponent = zipf_exponent
        self.noise = noise
        vocab = spec.n_sparse // spec.n_slots
        if vocab == 0:
            raise ValueError("n_sparse must be >= n_slots")
        # Every slot draws from the same law — one vocabulary size, one
        # exponent — and differs only in its key band; that is what lets
        # ``batch`` draw all slots at once.
        self._vocab = vocab
        self._slot_bases = np.arange(spec.n_slots, dtype=KEY_DTYPE) * KEY_DTYPE(vocab)
        # Planted ground-truth weights are derived lazily per key via
        # hashing, so the generator never materializes the full key space.
        self._w_seed = spawn(seed, "truth").integers(0, 2**31)

    # ------------------------------------------------------------------
    def _ground_truth_weight(self, keys: np.ndarray) -> np.ndarray:
        """Deterministic per-key weight in roughly N(0, 0.35)."""
        h = splitmix64(keys ^ np.uint64(self._w_seed))
        # Map 64-bit hash to (-1, 1) uniformly, then shape it.
        u = (h >> np.uint64(11)).astype(np.float64) / float(2**53)
        return (u - 0.5) * 1.4

    # ------------------------------------------------------------------
    def batch(self, batch_index: int, n_examples: int) -> Batch:
        """Generate batch ``batch_index`` with ``n_examples`` examples.

        The batch's digest rests on the RNG call order — uniform ranks
        (slot-major), label noise, label uniforms — and on float64
        summation order; both are pinned by ``tests/data``.
        """
        if n_examples <= 0:
            raise ValueError("n_examples must be positive")
        rng = spawn(self.seed, "batch", batch_index)
        n, n_slots = n_examples, self.spec.n_slots
        ids_per_slot = max(1, self.spec.nonzeros_per_example // n_slots)
        row_len = n_slots * ids_per_slot
        # Inverse-CDF sampling of Zipf ranks for every slot in one draw
        # (slot-major, the stream of one draw per slot).  Inverting the
        # truncated harmonic CDF is expensive; use the standard
        # approximation rank ~ u^(-1/(a-1)) clipped to the vocab, which
        # preserves the heavy head.
        u = rng.random(n_slots * n * ids_per_slot)
        a = max(self.zipf_exponent, 1.0001)
        with np.errstate(over="ignore"):
            raw_rank = np.floor(np.clip(u, 1e-12, None) ** (-1.0 / (a - 1.0)))
        ranks = np.minimum(float(self._vocab - 1), raw_rank).astype(KEY_DTYPE)
        # Ranks offset into each slot's key band (slot-major, as drawn),
        # then laid out example-major, slot-minor.
        banded = ranks.reshape(n_slots, -1) + self._slot_bases[:, None]
        key_rows = np.ascontiguousarray(
            banded.reshape(n_slots, n, ids_per_slot).transpose(1, 0, 2)
        ).reshape(n, row_len)
        keys = key_rows.reshape(-1)
        offsets = np.arange(n + 1, dtype=np.int64) * row_len

        logit = self._ground_truth_weight(keys).reshape(n, -1).sum(axis=1)
        if row_len > 1:
            # Pairwise-interaction signal: hash each id with the next id
            # of the same example — non-linear structure a logistic model
            # cannot express but an embedding DNN can.
            with np.errstate(over="ignore"):
                pair_hash = splitmix64(
                    key_rows[:, :-1] * np.uint64(0x9E3779B97F4A7C15)
                    ^ key_rows[:, 1:]
                )
            contrib = (
                (pair_hash >> np.uint64(11)).astype(np.float64) / float(2**53)
                - 0.5
            ) * 2.0
            # Each example's pairs summed left to right from +0.0 (not
            # ``sum(axis=1)``, whose pairwise reduction rounds otherwise).
            pair_sum = contrib[:, 0] + 0.0
            for j in range(1, row_len - 1):
                pair_sum += contrib[:, j]
            logit += pair_sum
        logit += rng.normal(0.0, self.noise, size=n)
        logit -= _median(logit)  # balanced-ish classes
        prob = 1.0 / (1.0 + np.exp(-logit))
        labels = (rng.random(n) < prob).astype(np.float32)
        # Correct by construction (uint64 C-contiguous keys, uniform
        # int64 offsets, float32 labels): skip the validating constructor.
        return Batch._trusted(keys, offsets, labels)

    def batches(self, n_batches: int, n_examples: int):
        """Yield ``n_batches`` consecutive batches."""
        for i in range(n_batches):
            yield self.batch(i, n_examples)
