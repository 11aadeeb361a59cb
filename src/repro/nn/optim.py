"""Optimizers.

The sparse side is unusual: embedding parameters live in the parameter
server as opaque fixed-width float32 *values*, so sparse optimizer state
(e.g. the Adagrad accumulator) must travel with the value.  A
:class:`SparseOptimizer` therefore defines the value layout
(``value_dim`` floats per key = embedding ``dim`` + state) and transforms
``(old_value, grad) -> new_value`` for a batch of keys at once.

Dense parameters are plain arrays updated in place.
"""

from __future__ import annotations

import numpy as np

from repro.utils.keys import as_keys, splitmix64

__all__ = [
    "SparseOptimizer",
    "SparseSGD",
    "SparseAdagrad",
    "DenseOptimizer",
    "DenseSGD",
    "DenseAdagrad",
]


class SparseOptimizer:
    """Interface for optimizers over PS-resident sparse values."""

    def __init__(self, dim: int, lr: float) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.dim = dim
        self.lr = lr

    def spec(self) -> dict:
        """Identity of this optimizer for checkpoint manifests.

        Sparse optimizer *state* travels inside the value payload, so the
        only thing a checkpoint must record is the value layout and the
        hyperparameters — a restore with a different optimizer would
        reinterpret the payload columns and silently corrupt training.
        """
        return {
            "type": type(self).__name__,
            "dim": self.dim,
            "lr": self.lr,
            "value_dim": self.value_dim,
        }

    @property
    def value_dim(self) -> int:
        """Total floats stored per key (embedding + optimizer state)."""
        raise NotImplementedError

    def init_values(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Fresh values for ``n`` previously-unseen keys."""
        raise NotImplementedError

    def init_for_keys(self, keys: np.ndarray, *, seed: int = 0) -> np.ndarray:
        """Deterministic per-key initialization.

        Unlike :meth:`init_values`, the result depends only on the key (and
        ``seed``), never on draw order — so a distributed trainer and a
        single-store reference initialize a key identically no matter which
        node first touches it.  Embedding coordinates are ~N(0, 0.01) via
        hashed Box–Muller; optimizer state starts at zero.
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
        raise NotImplementedError


class SparseSGD(SparseOptimizer):
    """Stateless SGD: value == embedding."""

    @property
    def value_dim(self) -> int:
        return self.dim

    def init_values(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, 0.01, size=(n, self.dim)).astype(np.float32)

    def apply(self, values: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if values.shape != grads.shape:
            raise ValueError("value/grad shape mismatch")
        return (values - self.lr * grads).astype(np.float32)


class SparseAdagrad(SparseOptimizer):
    """Per-coordinate Adagrad; accumulator stored alongside the embedding.

    This mirrors production CTR training, where Adagrad-family sparse
    optimizers are standard and their state is part of the ~36–48 B/key
    payload implied by the paper's Table 3 sizes.
    """

    def __init__(self, dim: int, lr: float, eps: float = 1e-6) -> None:
        super().__init__(dim, lr)
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = eps

    def spec(self) -> dict:
        out = super().spec()
        out["eps"] = self.eps
        return out

    @property
    def value_dim(self) -> int:
        return 2 * self.dim

    def init_values(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.zeros((n, self.value_dim), dtype=np.float32)
        out[:, : self.dim] = rng.normal(0.0, 0.01, size=(n, self.dim))
        return out

    def apply(self, values: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if values.shape[1] != self.value_dim or grads.shape[1] != self.dim:
            raise ValueError("value/grad width mismatch")
        if values.shape[0] != grads.shape[0]:
            raise ValueError("value/grad length mismatch")
        emb = values[:, : self.dim].astype(np.float64)
        acc = values[:, self.dim :].astype(np.float64)
        acc = acc + grads**2
        emb = emb - self.lr * grads / (np.sqrt(acc) + self.eps)
        return np.hstack([emb, acc]).astype(np.float32)


class DenseOptimizer:
    """Interface for in-place dense parameter updates."""

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        raise NotImplementedError

    def spec(self) -> dict:
        """Identity of this optimizer for checkpoint manifests."""
        return {"type": type(self).__name__, "lr": self.lr}

    def get_state(self) -> list[np.ndarray]:
        """Copies of the optimizer's accumulator arrays (may be empty)."""
        return []

    def set_state(self, state: list[np.ndarray]) -> None:
        """Restore accumulators saved by :meth:`get_state`."""
        if state:
            raise ValueError(f"{type(self).__name__} carries no state")

    def sync_from(self, lead: "DenseOptimizer") -> None:
        """Make this replica's accumulators equal ``lead``'s, in place.

        Data-parallel replicas apply the same all-reduced gradient to the
        same parameters, so one replica steps and the others copy its
        parameters and state instead of repeating the arithmetic.
        """


class DenseSGD(DenseOptimizer):
    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("params/grads length mismatch")
        for p, g in zip(params, grads):
            p -= (self.lr * g).astype(p.dtype)


class DenseAdagrad(DenseOptimizer):
    def __init__(self, lr: float, eps: float = 1e-6) -> None:
        super().__init__(lr)
        self.eps = eps
        self._acc: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError("params/grads length mismatch")
        if self._acc is None:
            self._acc = [np.zeros_like(p, dtype=np.float64) for p in params]
        for p, g, a in zip(params, grads, self._acc):
            a += g.astype(np.float64) ** 2
            p -= (self.lr * g / (np.sqrt(a) + self.eps)).astype(p.dtype)

    def spec(self) -> dict:
        out = super().spec()
        out["eps"] = self.eps
        return out

    def get_state(self) -> list[np.ndarray]:
        return [a.copy() for a in self._acc] if self._acc is not None else []

    def set_state(self, state: list[np.ndarray]) -> None:
        if not state:
            self._acc = None
            return
        self._acc = [np.asarray(a, dtype=np.float64).copy() for a in state]

    def sync_from(self, lead: "DenseAdagrad") -> None:
        if self._acc is None or lead._acc is None:
            self.set_state(lead.get_state())
            return
        for mine, theirs in zip(self._acc, lead._acc):
            np.copyto(mine, theirs)
