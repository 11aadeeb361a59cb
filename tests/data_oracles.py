"""Generator oracle: the per-slot batch draw.

:class:`ReferenceCTRDataGenerator` is the ``CTRDataGenerator.batch`` this
repo shipped before the batch was drawn in one vectorised sweep: one
``_SlotSampler`` pass per feature slot, a ``stack`` / ``reshape`` to the
example-major layout, pair positions by index arithmetic (with the
generic non-uniform-row branch), ``np.median``, and a validating
``Batch(...)`` construction.  It inherits the constructor and the
per-key ground-truth hash from production and overrides the draw;
``tests/data/test_generator.py`` requires the two to agree byte for
byte and pins SHA-256 digests recorded on that commit, so the pair
cannot drift together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.batching import Batch
from repro.data.generator import CTRDataGenerator
from repro.utils.keys import KEY_DTYPE, splitmix64
from repro.utils.rng import spawn

__all__ = ["ReferenceCTRDataGenerator"]


@dataclass
class _SlotSampler:
    """Draws ids for one feature slot from a Zipf-over-hashed-ranks law."""

    slot: int
    vocab: int
    key_base: int
    exponent: float

    def sample(self, rng: np.random.Generator, n: int, ids_per_slot: int) -> np.ndarray:
        u = rng.random(n * ids_per_slot)
        a = max(self.exponent, 1.0001)
        with np.errstate(over="ignore"):
            raw_rank = np.floor(np.clip(u, 1e-12, None) ** (-1.0 / (a - 1.0)))
        ranks = np.minimum(float(self.vocab - 1), raw_rank).astype(np.int64)
        return (self.key_base + ranks).astype(KEY_DTYPE)


class ReferenceCTRDataGenerator(CTRDataGenerator):
    """``CTRDataGenerator`` with the slot-by-slot ``batch``."""

    def _interaction_logit(self, batch_keys: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        lengths = np.diff(offsets)
        n = lengths.size
        out = np.zeros(n, dtype=np.float64)
        if batch_keys.size == 0:
            return out
        # Pair each key with the next key of the same example.
        if n and bool(np.all(lengths == lengths[0])):
            L = int(lengths[0])
            if L < 2:
                return out
            idx = np.arange(n * (L - 1), dtype=np.int64)
            row_of_pair = idx // (L - 1)
            pair_idx = idx + row_of_pair
        else:
            row = np.repeat(np.arange(n), lengths)
            same_row = row[:-1] == row[1:]
            pair_idx = np.flatnonzero(same_row)
            row_of_pair = row[:-1][same_row]
        with np.errstate(over="ignore"):
            pair_hash = splitmix64(
                batch_keys[pair_idx] * np.uint64(0x9E3779B97F4A7C15)
                ^ batch_keys[pair_idx + 1]
            )
        u = (pair_hash >> np.uint64(11)).astype(np.float64) / float(2**53)
        contrib = (u - 0.5) * 2.0
        # Sequential float64 accumulation, bit-identical to np.add.at.
        out += np.bincount(row_of_pair, weights=contrib, minlength=n)
        return out

    def batch(self, batch_index: int, n_examples: int) -> Batch:
        if n_examples <= 0:
            raise ValueError("n_examples must be positive")
        rng = spawn(self.seed, "batch", batch_index)
        spec = self.spec
        vocab = spec.n_sparse // spec.n_slots
        samplers = [
            _SlotSampler(s, vocab, s * vocab, self.zipf_exponent)
            for s in range(spec.n_slots)
        ]
        ids_per_slot = max(1, spec.nonzeros_per_example // spec.n_slots)
        cols = []
        for sampler in samplers:
            cols.append(sampler.sample(rng, n_examples, ids_per_slot))
        # Layout: example-major, slot-minor.
        keys = (
            np.stack([c.reshape(n_examples, ids_per_slot) for c in cols], axis=1)
            .reshape(n_examples, -1)
            .ravel()
        )
        nnz_per_example = spec.n_slots * ids_per_slot
        offsets = np.arange(n_examples + 1, dtype=np.int64) * nnz_per_example

        logit = self._ground_truth_weight(keys).reshape(n_examples, -1).sum(axis=1)
        logit += self._interaction_logit(keys, offsets)
        logit += rng.normal(0.0, self.noise, size=n_examples)
        logit -= np.median(logit)  # balanced-ish classes
        prob = 1.0 / (1.0 + np.exp(-logit))
        labels = (rng.random(n_examples) < prob).astype(np.float32)
        return Batch(keys, offsets, labels)
