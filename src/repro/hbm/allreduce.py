"""Inter-node GPU parameter synchronization (paper §4.2, Appendix C.3).

After every mini-batch, each GPU must receive all parameter updates from
all other GPUs and reduce them — an all-reduce.  The paper's communication
schedule (Figure 9) is hierarchical:

1. ``log2(n_nodes)`` **inter-node** recursive-doubling steps: in step *s*,
   node *i* exchanges its current partial update with node ``i XOR 2^s``,
   GPU *j* talking to GPU *j* over RDMA; all node pairs run in parallel.
2. ``log2(gpus_per_node)`` **intra-node** tree steps over NVLink.

Node counts that are not powers of two (the paper's Fig. 4(b)/5(b) sweep
includes 3) use the standard MPI trick: surplus nodes fold their update
into a partner before the doubling phase and receive the result after it.

The functional reduction (key-union + gradient sum) and the timing model
run together: message sizes at each step are the true partial-update sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.gpu import NVLink
from repro.hardware.network import Network
from repro.utils.keys import KEY_DTYPE, as_keys, compact_unique

__all__ = [
    "SparseUpdate",
    "hierarchical_allreduce",
    "allreduce_dense",
    "DenseGradAccumulator",
]


@dataclass(frozen=True)
class SparseUpdate:
    """Sorted-unique keys with one gradient row per key."""

    keys: np.ndarray
    grads: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", as_keys(self.keys))
        # Gradient accumulation is deliberately float64: summation must be
        # order-independent across ring/tree reduce topologies for the
        # bit-exact parity oracles.
        # repro: allow(f64-hot-path)
        g = np.asarray(self.grads, dtype=np.float64)
        object.__setattr__(self, "grads", g)
        if self.keys.shape[0] != g.shape[0]:
            raise ValueError("keys/grads length mismatch")
        if self.keys.size > 1 and np.any(np.diff(self.keys.astype(np.uint64)) == 0):
            raise ValueError("keys must be unique")
        if self.keys.size > 1 and np.any(
            self.keys[1:] < self.keys[:-1]
        ):
            raise ValueError("keys must be sorted")

    @property
    def n_keys(self) -> int:
        return int(self.keys.size)

    def nbytes(self) -> int:
        """Wire size: 8 B key + 4 B float per gradient coordinate."""
        if self.grads.ndim == 1:
            per_key = 4
        else:
            per_key = 4 * self.grads.shape[1]
        return self.n_keys * (8 + per_key)

    @staticmethod
    def empty(dim: int) -> "SparseUpdate":
        return SparseUpdate(
            np.empty(0, dtype=KEY_DTYPE),
            np.zeros((0, dim), dtype=np.float64),  # repro: allow(f64-hot-path)
        )

    @staticmethod
    def trusted(keys: np.ndarray, grads: np.ndarray) -> "SparseUpdate":
        """Wrap arrays that already satisfy the invariants.

        For producers whose keys are sorted-unique *by construction*
        (plan-derived key sets, already-validated updates) and whose
        grads are already float64 — skips the per-construction
        validation scans of ``__post_init__``.
        """
        u = object.__new__(SparseUpdate)
        object.__setattr__(u, "keys", keys)
        object.__setattr__(u, "grads", grads)
        return u


def hierarchical_allreduce(
    node_updates: list[SparseUpdate],
    *,
    networks: list[Network] | None = None,
    nvlinks: list[NVLink] | None = None,
    gpus_per_node: int = 8,
    union: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> tuple[SparseUpdate, float]:
    """All-reduce per-node sparse updates; returns (global update, seconds).

    ``networks``/``nvlinks`` are each node's fabric models; when omitted the
    call is purely functional (zero simulated time).  The returned time is
    the critical path: max over participating nodes per step, summed over
    steps.

    ``union`` is ``(keys, positions)`` when the caller already has them
    (the round's :class:`~repro.plan.SyncPlan`): the sorted union of
    every node's keys and, per node, the positions of its keys inside
    that union.  Otherwise both are derived here with one dedup.

    Functionally only node 0's reduction tree is evaluated — after a
    doubling step every node of a block holds the same key union and the
    same sums, so the sibling merges are dead work whose *sizes* (all the
    timing model needs) equal their block leader's.  A partial is a
    dense gradient array over the union's positions plus a presence
    mask; merging scatters a leaf in (``out[pos] += grads``) or adds two
    dense partials.  Each key therefore sees exactly the additions of
    the pairwise key-merge tree, in the same order, starting from +0.0.
    """
    n = len(node_updates)
    if n == 0:
        raise ValueError("need at least one node")
    sizes = [u.n_keys for u in node_updates]
    if union is None:
        union_keys, inverse = compact_unique(
            np.concatenate([u.keys for u in node_updates]), return_inverse=True
        )
        positions = np.split(inverse, np.cumsum(sizes)[:-1])
    else:
        union_keys, positions = union
        assert all(
            np.array_equal(union_keys[pos], u.keys)
            for pos, u in zip(positions, node_updates)
        ), "union does not cover the drained updates"
    row_shape = node_updates[0].grads.shape[1:]
    row_bytes = 8 + 4 * int(np.prod(row_shape))
    total_time = 0.0
    #: node -> (dense sums, presence mask) once it has absorbed a merge
    dense: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _xchg_time(node: int, n_keys: int) -> float:
        if networks is None:
            return 0.0
        # GPU j of one node talks to GPU j of the other: gpus_per_node
        # parallel flows sharing one NIC -> the NIC moves all bytes but
        # pays only one latency per parallel lane.
        return networks[node].transfer_time(
            n_keys * row_bytes, n_messages=gpus_per_node
        )

    def _scatter(out: np.ndarray, present: np.ndarray, k: int) -> None:
        """Add node ``k``'s own update into a dense partial."""
        out[positions[k]] += node_updates[k].grads
        present[positions[k]] = True

    def _merge(i: int, j: int) -> None:
        """partial[i] <- merge(partial[i], partial[j]); consumes j's."""
        if i not in dense:
            # float64 like the updates themselves (SparseUpdate contract).
            # repro: allow(f64-hot-path)
            out = np.zeros((union_keys.size,) + row_shape, dtype=np.float64)
            dense[i] = (out, np.zeros(union_keys.size, dtype=bool))
            _scatter(*dense[i], i)
        out, present = dense[i]
        if j in dense:
            other, other_present = dense.pop(j)
            out += other
            present |= other_present
        else:
            _scatter(out, present, j)
        sizes[i] = int(np.count_nonzero(present))

    # --- fold surplus nodes into partners (non-power-of-two case) -------
    p = 1
    while p * 2 <= n:
        p *= 2
    surplus = list(range(p, n))
    step_t = 0.0
    for i in surplus:
        step_t = max(step_t, _xchg_time(i, sizes[i]))
        _merge(i - p, i)
    total_time += step_t

    # --- recursive doubling among the first p nodes ---------------------
    step = 1
    while step < p:
        step_t = max(_xchg_time(i, sizes[i ^ step]) for i in range(p))
        for i in range(0, p, 2 * step):
            _merge(i, i + step)
            sizes[i : i + 2 * step] = [sizes[i]] * (2 * step)
        total_time += step_t
        step *= 2

    if 0 in dense:
        result = SparseUpdate.trusted(union_keys, dense[0][0])
    else:
        result = node_updates[0]
    # --- send result back to surplus nodes ------------------------------
    step_t = 0.0
    for i in surplus:
        step_t = max(step_t, _xchg_time(i - p, result.n_keys))
    total_time += step_t

    # --- intra-node NVLink tree (Figure 9 step 3) ------------------------
    if nvlinks is not None and gpus_per_node > 1:
        rounds = int(np.ceil(np.log2(gpus_per_node)))
        shard_bytes = result.nbytes() / gpus_per_node
        t_intra = 0.0
        for nv in nvlinks:
            t_node = rounds * nv.transfer_time(int(shard_bytes), n_messages=1)
            nv.bytes_moved += int(shard_bytes) * rounds
            nv.ledger.add("allreduce", t_node)
            t_intra = max(t_intra, t_node)
        total_time += t_intra

    if networks is not None:
        for net in networks:
            net.ledger.add("allreduce", total_time / max(len(networks), 1))
    return result, total_time


class DenseGradAccumulator:
    """Reused float32 accumulation buffers for dense gradients.

    The gradient hot path used to allocate fresh ``float64`` temporaries
    per mini-batch (one ``astype(float64).copy()`` per worker plus a
    ``zeros_like`` inside :func:`allreduce_dense`); this accumulator keeps
    one set of float32 buffers alive and overwrites them in place.  Dense
    towers are tiny and their per-step gradients are summed over at most
    ``n_nodes * gpus_per_node`` contributions, so float32 accumulation is
    well within tolerance (verified by a regression test).
    """

    def __init__(self) -> None:
        self._bufs: list[np.ndarray] | None = None

    def _ensure(self, templates: list[np.ndarray]) -> list[np.ndarray]:
        if self._bufs is None or len(self._bufs) != len(templates) or any(
            b.shape != t.shape for b, t in zip(self._bufs, templates)
        ):
            self._bufs = [
                np.zeros(t.shape, dtype=np.float32) for t in templates
            ]
        return self._bufs

    @property
    def arrays(self) -> list[np.ndarray]:
        if self._bufs is None:
            raise RuntimeError("accumulator used before start()/start_zero()")
        return self._bufs

    def start(self, grads: list[np.ndarray]) -> "DenseGradAccumulator":
        """Overwrite the buffers with ``grads`` (the first contribution)."""
        for b, g in zip(self._ensure(grads), grads):
            np.copyto(b, g)
        return self

    def start_zero(self, templates: list[np.ndarray]) -> "DenseGradAccumulator":
        """Zero the buffers (a node that contributed no examples)."""
        for b in self._ensure(templates):
            b.fill(0.0)
        return self

    def add(self, grads: list[np.ndarray]) -> None:
        """In-place ``buf += grad`` for each buffer."""
        for b, g in zip(self.arrays, grads):
            b += g


def allreduce_dense(
    node_grads: list[list[np.ndarray]],
    *,
    networks: list[Network] | None = None,
    out: DenseGradAccumulator | None = None,
) -> tuple[list[np.ndarray], float]:
    """Sum dense-parameter gradients across nodes (Appendix C.4).

    Dense towers are replicated on every GPU; their gradients are tiny
    (≤ a few million floats), so a flat recursive-doubling reduce suffices.
    The sum accumulates in float32; pass a :class:`DenseGradAccumulator`
    as ``out`` to reuse its buffers across calls (the returned arrays are
    then views of the accumulator and are overwritten by the next call).
    """
    n = len(node_grads)
    if n == 0:
        raise ValueError("need at least one node")
    shapes = [g.shape for g in node_grads[0]]
    for grads in node_grads[1:]:
        if [g.shape for g in grads] != shapes:
            raise ValueError("dense gradient shapes differ across nodes")
    acc = out if out is not None else DenseGradAccumulator()
    acc.start(node_grads[0])
    for grads in node_grads[1:]:
        acc.add(grads)
    total = acc.arrays
    nbytes = int(sum(4 * g.size for g in total))
    steps = int(np.ceil(np.log2(n))) if n > 1 else 0
    t = 0.0
    if networks is not None and steps:
        per_step = max(net.transfer_time(nbytes) for net in networks)
        t = steps * per_step
        for net in networks:
            net.ledger.add("allreduce", t / len(networks))
    return total, t
