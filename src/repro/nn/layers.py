"""Dense layers for the CTR tower.

A deliberately small autograd-free implementation: each layer exposes
``forward`` and ``backward`` and owns its parameters as NumPy arrays.  The
dense tower is tiny by construction (paper: at most a few million dense
parameters vs 10^11 sparse ones), so clarity wins over micro-optimization.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import TierStateError
from repro.utils.rng import spawn

__all__ = ["Dense", "ReLU", "MLP", "Workspace"]


class Workspace:
    """One reusable buffer, regrown only when a larger batch arrives.

    ``rows(shape, dtype)`` is a C-contiguous view of the first
    ``shape[0]`` rows; it stays valid until the next ``rows`` call on the
    same workspace.
    """

    def __init__(self) -> None:
        self._buf = np.empty(0)

    def rows(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        buf = self._buf
        if (
            buf.shape[0] < shape[0]
            or buf.shape[1:] != shape[1:]
            or buf.dtype != dtype
        ):
            buf = self._buf = np.empty(shape, dtype=dtype)
        return buf[: shape[0]]


class Dense:
    """Fully-connected layer ``y = x @ W + b``, computed in float64.

    Parameters are float32; the matmuls run against float64 shadows of
    ``W`` and ``W.T`` that are re-cast lazily, once after each time the parameters are
    handed out for writing (``W`` / :meth:`parameters`) — i.e. once per
    optimizer step instead of on every forward *and* backward.  Anything
    that mutates ``W`` must therefore fetch it afresh rather than hold an
    array across forwards.

    A training ``forward`` / ``backward`` writes into per-layer workspaces:
    the returned array and ``dW`` / ``db`` are overwritten by the next
    training call.  ``forward(x, training=False)`` touches no workspace
    and records nothing for ``backward``.
    """

    def __init__(self, in_dim: int, out_dim: int, *, seed: int = 0) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dims must be positive")
        rng = spawn(seed, "dense", in_dim, out_dim)
        scale = np.sqrt(2.0 / in_dim)
        self._W = rng.normal(0.0, scale, size=(in_dim, out_dim)).astype(np.float32)
        self.b = np.zeros(out_dim, dtype=np.float32)
        self._W64 = np.empty((in_dim, out_dim), dtype=np.float64)
        self._WT64 = np.empty((out_dim, in_dim), dtype=np.float64)
        self._stale = True
        self._x: np.ndarray | None = None
        self._out = Workspace()
        self._grad_in = Workspace()
        self._dW = Workspace()
        self._db = Workspace()
        #: per-minibatch weight gradients of the last ``backward``, float64,
        #: shapes ``(n_minibatches, in_dim, out_dim)`` / ``(n_minibatches,
        #: out_dim)``
        self.dW = np.empty((0, in_dim, out_dim))
        self.db = np.empty((0, out_dim))

    @property
    def W(self) -> np.ndarray:
        """The float32 weights, writable; marks the float64 shadow stale."""
        self._stale = True
        return self._W

    def _weights64(self) -> tuple[np.ndarray, np.ndarray]:
        """Float64 ``(W, W.T)``, both C-contiguous — the operands the
        implicit float32 cast of ``x @ W`` / ``g @ W.T`` hands to BLAS."""
        if self._stale:
            np.copyto(self._W64, self._W)
            np.copyto(self._WT64, self._W.T)
            self._stale = False
        return self._W64, self._WT64

    @property
    def n_params(self) -> int:
        return self._W.size + self.b.size

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        out = None
        if training:
            self._x = x
            out = self._out.rows((x.shape[0], self.b.size))
        y = np.matmul(x, self._weights64()[0], out=out)
        y += self.b
        return y

    def backward(
        self, grad_out: np.ndarray, bounds: Sequence[int] | None = None
    ) -> np.ndarray:
        """Input gradient of every row; ``dW[w]`` / ``db[w]`` are the
        weight gradients of minibatch ``w``, rows ``bounds[w]:bounds[w +
        1]`` (default: one minibatch of every row), each computed on its
        own rows."""
        x = self._x
        if x is None:
            raise TierStateError("backward called before forward")
        if bounds is None:
            bounds = (0, x.shape[0])
        n = len(bounds) - 1
        self.dW = self._dW.rows((n, *self._W.shape))
        self.db = self._db.rows((n, self.b.size))
        for w, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            np.matmul(x[lo:hi].T, grad_out[lo:hi], out=self.dW[w])
            np.add.reduce(grad_out[lo:hi], axis=0, out=self.db[w])
        return np.matmul(
            grad_out, self._weights64()[1], out=self._grad_in.rows(x.shape)
        )

    def parameters(self) -> list[np.ndarray]:
        return [self.W, self.b]


class ReLU:
    """Elementwise rectifier.

    A training ``forward`` / ``backward`` writes its result over its
    input — in the tower, a :class:`Dense` workspace nothing reads
    afterwards (a Dense layer's backward needs its input, not its
    output) — so the layer keeps only its mask workspace.
    ``forward(x, training=False)`` allocates its result.
    """

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None
        self._mask_ws = Workspace()

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        out = None
        if training:
            self._mask = np.greater(x, 0, out=self._mask_ws.rows(x.shape, bool))
            out = x
        # ``where(x > 0, x, 0.0)`` for every input: fmax drops NaN, and
        # adding +0.0 turns the -0.0 it may pass through into +0.0.
        y = np.fmax(x, 0.0, out=out)
        y += 0.0
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise TierStateError("backward called before forward")
        return np.multiply(grad_out, self._mask, out=grad_out)


class MLP:
    """ReLU tower ending in a single logit."""

    def __init__(self, in_dim: int, hidden: tuple[int, ...], *, seed: int = 0):
        dims = [in_dim, *hidden, 1]
        self.layers: list = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            self.layers.append(Dense(a, b, seed=seed + i))
            if i < len(dims) - 2:
                self.layers.append(ReLU())

    @property
    def n_params(self) -> int:
        return sum(l.n_params for l in self.layers if isinstance(l, Dense))

    def forward(self, x: np.ndarray, *, training: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x[:, 0]

    def backward(
        self, grad_logit: np.ndarray, bounds: Sequence[int] | None = None
    ) -> np.ndarray:
        """Input gradient; ``bounds`` cuts the rows into minibatches whose
        weight gradients :meth:`gradients` reads one by one."""
        g = grad_logit[:, None]
        for layer in reversed(self.layers):
            if isinstance(layer, Dense):
                g = layer.backward(g, bounds)
            else:
                g = layer.backward(g)
        return g

    def dense_layers(self) -> list[Dense]:
        return [l for l in self.layers if isinstance(l, Dense)]

    def parameters(self) -> list[np.ndarray]:
        return [p for l in self.dense_layers() for p in l.parameters()]

    def gradients(self, w: int = 0) -> list[np.ndarray]:
        """Minibatch ``w``'s ``[dW, db, ...]`` from the last backward
        (workspace views, overwritten by the next one)."""
        return [g for l in self.dense_layers() for g in (l.dW[w], l.db[w])]

    def get_state(self) -> list[np.ndarray]:
        """Copies of all dense parameters (for sync / checkpoint)."""
        return [p.copy() for p in self.parameters()]

    def set_state(self, state: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError("state length mismatch")
        for p, s in zip(params, state):
            if p.shape != s.shape:
                raise ValueError("state shape mismatch")
            p[...] = s

    def state_dict(self) -> dict[str, np.ndarray]:
        """Named parameter copies (``layer<i>.W`` / ``layer<i>.b``).

        The names are stable across processes, so a checkpoint shard can
        store them flat (e.g. in an ``.npz``) and a restore can detect a
        tower-shape mismatch by key set rather than by position.
        """
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.dense_layers()):
            out[f"layer{i}.W"] = layer.W.copy()
            out[f"layer{i}.b"] = layer.b.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        expected = {
            name
            for i in range(len(self.dense_layers()))
            for name in (f"layer{i}.W", f"layer{i}.b")
        }
        if set(state) != expected:
            raise ValueError(
                f"dense state keys {sorted(state)} do not match the tower "
                f"layout {sorted(expected)}"
            )
        for i, layer in enumerate(self.dense_layers()):
            for attr, name in (("W", f"layer{i}.W"), ("b", f"layer{i}.b")):
                p = getattr(layer, attr)
                s = np.asarray(state[name], dtype=p.dtype)
                if p.shape != s.shape:
                    raise ValueError(f"state shape mismatch for {name}")
                p[...] = s
