"""The Adagrad pair: one optimizer per side, at one learning rate.

The sparse side is unusual: embedding parameters live in the parameter
server as opaque fixed-width float32 *values*, so the Adagrad
accumulator must travel with the value.  :class:`SparseAdagrad`
therefore defines the value layout (``value_dim = 2 * dim`` floats per
key: embedding, then accumulator — the ~36–48 B/key payload the paper's
Table 3 sizes imply) and transforms ``(old_value, grad) -> new_value``
for a batch of keys at once.  :class:`DenseAdagrad` updates the dense
tower's arrays in place.  Both step at :data:`LEARNING_RATE` with
:data:`EPS`; every trainer reads them here, so the cluster and the
single-store reference cannot drift apart (the Fig. 3(b) oracle).
"""

from __future__ import annotations

import numpy as np

from repro.utils.keys import as_keys, splitmix64

__all__ = ["LEARNING_RATE", "EPS", "SparseAdagrad", "DenseAdagrad"]

#: The step size of both sides, in every trainer.
LEARNING_RATE = 0.05
#: Adagrad's denominator floor, on both sides.
EPS = 1e-6


class SparseAdagrad:
    """Per-coordinate Adagrad over PS-resident sparse values."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def spec(self) -> dict:
        """Identity of this optimizer for checkpoint manifests.

        The optimizer *state* travels inside the value payload, so the
        only thing a checkpoint must record is the value layout and the
        hyperparameters — a restore with a different layout would
        reinterpret the payload columns and silently corrupt training.
        """
        return {
            "type": "SparseAdagrad",
            "dim": self.dim,
            "lr": LEARNING_RATE,
            "value_dim": self.value_dim,
            "eps": EPS,
        }

    @property
    def value_dim(self) -> int:
        """Total floats stored per key (embedding + accumulator)."""
        return 2 * self.dim

    def init_for_keys(self, keys: np.ndarray, *, seed: int = 0) -> np.ndarray:
        """Deterministic per-key initialization.

        The result depends only on the key (and ``seed``), never on draw
        order — so a distributed trainer and a
        single-store reference initialize a key identically no matter which
        node first touches it.  Embedding coordinates are ~N(0, 0.01) via
        hashed Box–Muller; the accumulator starts at zero.
        """
        keys = as_keys(keys)
        out = np.zeros((keys.size, self.value_dim), dtype=np.float32)
        if keys.size == 0:
            return out
        base = splitmix64(keys ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        # One splitmix pass over an (n, 2*dim) grid — per-element math is
        # identical to hashing each (key, coordinate) pair separately, so
        # initialization stays key-deterministic across batch shapes.
        offsets = np.arange(1, 2 * self.dim + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            h = splitmix64(base[:, None] + offsets[None, :])
        u = (h >> np.uint64(11)).astype(np.float64) / float(2**53)
        u1, u2 = u[:, 0::2], u[:, 1::2]
        z = np.sqrt(-2.0 * np.log(np.clip(u1, 1e-300, None))) * np.cos(
            2.0 * np.pi * u2
        )
        out[:, : self.dim] = (0.01 * z).astype(np.float32)
        return out

    def embedding(self, values: np.ndarray) -> np.ndarray:
        """Embedding slice of the value payload."""
        return values[:, : self.dim]

    def apply(self, values: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """New values after applying ``grads`` (does not mutate input)."""
        if values.shape[1] != self.value_dim or grads.shape[1] != self.dim:
            raise ValueError("value/grad width mismatch")
        if values.shape[0] != grads.shape[0]:
            raise ValueError("value/grad length mismatch")
        emb = values[:, : self.dim].astype(np.float64)
        acc = values[:, self.dim :].astype(np.float64)
        acc = acc + grads**2
        emb = emb - LEARNING_RATE * grads / (np.sqrt(acc) + EPS)
        return np.hstack([emb, acc]).astype(np.float32)


class DenseAdagrad:
    """Per-coordinate Adagrad over the dense tower, updated in place."""

    def __init__(self) -> None:
        self._acc: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("params/grads length mismatch")
        if self._acc is None:
            self._acc = [np.zeros_like(p, dtype=np.float64) for p in params]
        for p, g, a in zip(params, grads, self._acc):
            a += g.astype(np.float64) ** 2
            p -= (LEARNING_RATE * g / (np.sqrt(a) + EPS)).astype(p.dtype)

    def spec(self) -> dict:
        """Identity of this optimizer for checkpoint manifests."""
        return {"type": "DenseAdagrad", "lr": LEARNING_RATE, "eps": EPS}

    def get_state(self) -> list[np.ndarray]:
        """Copies of the accumulator arrays (empty before the first step)."""
        return [a.copy() for a in self._acc] if self._acc is not None else []

    def set_state(self, state: list[np.ndarray]) -> None:
        """Restore accumulators saved by :meth:`get_state`."""
        if not state:
            self._acc = None
            return
        self._acc = [np.asarray(a, dtype=np.float64).copy() for a in state]

    def sync_from(self, lead: "DenseAdagrad") -> None:
        """Make this replica's accumulators equal ``lead``'s, in place.

        Data-parallel replicas apply the same all-reduced gradient to the
        same parameters, so one replica steps and the others copy its
        parameters and state instead of repeating the arithmetic.
        """
        if self._acc is None or lead._acc is None:
            self.set_state(lead.get_state())
            return
        for mine, theirs in zip(self._acc, lead._acc):
            np.copyto(mine, theirs)
