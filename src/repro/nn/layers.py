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

__all__ = ["Dense", "ReLU", "MLP", "Workspace", "INFER_BLOCK_BYTES"]

#: Byte budget of one inference row block's widest activation.  Two such
#: buffers plus a layer's weights fit a 2 MiB L2 cache.
INFER_BLOCK_BYTES = 512 * 1024


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
    ``W`` and ``W.T``, made on first use (a replica that never computes
    holds none) and re-cast lazily, once after each time the parameters
    are handed out for writing (``W`` / :meth:`parameters`) — i.e. once per
    optimizer step instead of on every forward *and* backward.  Anything
    that mutates ``W`` must therefore fetch it afresh rather than hold an
    array across forwards.

    A training ``forward`` / ``backward`` writes into per-layer workspaces:
    the returned array is overwritten by the next training call.
    ``backward`` computes only the input gradient and keeps its operands;
    :meth:`gradients` computes a minibatch's weight gradients from them.
    ``forward(x, training=False)`` touches no workspace and records
    nothing for ``backward``.  A ``forward`` given ``out``
    (C-contiguous float64, ``(rows, out_dim)``) writes its result there
    instead of into the workspace or a new array.
    """

    def __init__(self, in_dim: int, out_dim: int, *, seed: int = 0) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dims must be positive")
        rng = spawn(seed, "dense", in_dim, out_dim)
        scale = np.sqrt(2.0 / in_dim)
        self._W = rng.normal(0.0, scale, size=(in_dim, out_dim)).astype(np.float32)
        self.b = np.zeros(out_dim, dtype=np.float32)
        self._W64: np.ndarray | None = None
        self._WT64: np.ndarray | None = None
        self._stale = True
        self._x: np.ndarray | None = None
        #: ``(x, grad_out, bounds)`` of the last ``backward``
        self._grad_src: tuple[np.ndarray, np.ndarray, Sequence[int]] | None = None
        self._out = Workspace()
        self._grad_in = Workspace()
        self._dW = Workspace()
        self._db = Workspace()

    @property
    def W(self) -> np.ndarray:
        """The float32 weights, writable; marks the float64 shadow stale."""
        self._stale = True
        return self._W

    def _weights64(self) -> tuple[np.ndarray, np.ndarray]:
        """Float64 ``(W, W.T)``, both C-contiguous — the operands the
        implicit float32 cast of ``x @ W`` / ``g @ W.T`` hands to BLAS."""
        if self._W64 is None or self._WT64 is None:
            self._W64 = np.empty(self._W.shape)
            self._WT64 = np.empty(self._W.T.shape)
        if self._stale:
            np.copyto(self._W64, self._W)
            np.copyto(self._WT64, self._W.T)
            self._stale = False
        return self._W64, self._WT64

    @property
    def n_params(self) -> int:
        return self._W.size + self.b.size

    def forward(
        self,
        x: np.ndarray,
        *,
        training: bool = True,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        if training:
            self._x = x
            if out is None:
                out = self._out.rows((x.shape[0], self.b.size))
        y = np.matmul(x, self._weights64()[0], out=out)
        y += self.b
        return y

    def backward(
        self, grad_out: np.ndarray, bounds: Sequence[int] | None = None
    ) -> np.ndarray:
        """Input gradient of every row.  ``bounds`` cuts the rows into
        minibatches ``bounds[w]:bounds[w + 1]`` (default: one of every
        row) whose weight gradients :meth:`gradients` computes; the
        operands are kept, not copied, until the next ``backward``."""
        x = self._x
        if x is None:
            raise TierStateError("backward called before forward")
        self._grad_src = (x, grad_out, (0, x.shape[0]) if bounds is None else bounds)
        return np.matmul(
            grad_out, self._weights64()[1], out=self._grad_in.rows(x.shape)
        )

    def gradients(self, w: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Float64 ``(dW, db)`` of minibatch ``w`` of the last ``backward``,
        computed on its own rows into one buffer each, overwritten by the
        next call.  Valid until the next training forward."""
        if self._grad_src is None:
            raise TierStateError("gradients read before backward")
        x, g, bounds = self._grad_src
        lo, hi = bounds[w], bounds[w + 1]
        dW = np.matmul(x[lo:hi].T, g[lo:hi], out=self._dW.rows(self._W.shape))
        db = np.add.reduce(g[lo:hi], axis=0, out=self._db.rows(self.b.shape))
        return dW, db

    def parameters(self) -> list[np.ndarray]:
        return [self.W, self.b]


class ReLU:
    """Elementwise rectifier.

    A training ``forward`` / ``backward`` writes its result over its
    input — in the tower, a :class:`Dense` workspace nothing reads
    afterwards (a Dense layer's backward needs its input, not its
    output) — so the layer keeps only its mask workspace.
    ``forward(x, training=False)`` allocates its result, or writes it
    into ``out`` when given (``out=x`` rectifies in place).
    """

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None
        self._mask_ws = Workspace()

    def forward(
        self,
        x: np.ndarray,
        *,
        training: bool = True,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        if training:
            self._mask = np.greater(x, 0, out=self._mask_ws.rows(x.shape, bool))
            if out is None:
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
    """ReLU tower ending in a single logit.

    Inference (``forward(x, training=False)``) streams ``x`` through the
    tower one row block at a time.  The block is the largest multiple of 4
    rows (at least 8) whose widest layer output fits
    :data:`INFER_BLOCK_BYTES`.  Layer by layer a block ping-pongs between
    two buffers allocated for the call, and its logits land in the
    returned ``(n,)`` array: besides its input and result a call holds
    at most ``2 * block * widest`` float64, keeps nothing afterwards and
    leaves the training workspaces alone.

    Blocks start at multiples of 4 rows because there OpenBLAS computes a
    row of a product independently of the rows around it — the premise
    :meth:`repro.nn.model.CTRModel.train_minibatch` rests on — so the blocked
    logits equal one pass over all rows bit for bit.  OpenBLAS 0.3.31
    keeps that premise for towers shaped like the workloads' (widths
    multiples of 8, layer inputs at most 256 wide); ragged or wider
    layers pick different kernels for small and large products, so
    there a row's last bits already depend on the batch around it.
    """

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
        if training:
            for layer in self.layers:
                x = layer.forward(x)
            return x[:, 0]
        n = x.shape[0]
        logits = np.empty(n)
        # Dense and ReLU alternate: Dense k writes buffer k % 2, except
        # the last, which writes the logits.
        widths = [layer.b.size for layer in self.layers[::2]]
        block = max(8, INFER_BLOCK_BYTES // (8 * max(widths)) // 4 * 4)
        rows = min(n, block)
        bufs = [np.empty(rows * max(widths[k:-1:2], default=0)) for k in (0, 1)]
        edges = [*range(0, n, block), n]
        if len(edges) > 2 and n - edges[-2] == 1:
            # NumPy hands a 1-row product to gemv, which rounds unlike the
            # gemm of a single pass: end the previous block 4 rows early.
            edges[-2] -= 4
        last = self.layers[-1]
        for lo, hi in zip(edges[:-1], edges[1:]):
            h = x[lo:hi]
            rows = hi - lo
            for i, layer in enumerate(self.layers):
                if isinstance(layer, ReLU):
                    out = h
                elif layer is last:
                    out = logits[lo:hi].reshape(rows, 1)
                else:
                    out = bufs[i // 2 % 2][: rows * layer.b.size]
                    out = out.reshape(rows, layer.b.size)
                h = layer.forward(h, training=False, out=out)
        return logits

    def backward(
        self, grad_logit: np.ndarray, bounds: Sequence[int] | None = None
    ) -> np.ndarray:
        """Input gradient; ``bounds`` cuts the rows into minibatches whose
        weight gradients :meth:`gradients` computes one by one."""
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
        """Minibatch ``w``'s ``[dW, db, ...]`` from the last backward,
        computed now into one buffer per layer: valid until the next
        call (any minibatch's) or training step."""
        return [g for l in self.dense_layers() for g in l.gradients(w)]

    def get_state(self) -> list[np.ndarray]:
        """Copies of all dense parameters (for sync / checkpoint)."""
        return [p.copy() for p in self.parameters()]

    def state_dict(self) -> dict[str, np.ndarray]:
        """Named parameter copies (``layer<i>.W`` / ``layer<i>.b``).

        The names are stable across processes, so a checkpoint shard can
        store them flat (one array per name) and a restore can detect a
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
