"""Inter-node GPU parameter synchronization (paper §4.2, Appendix C.3).

After every mini-batch, each GPU must receive all parameter updates from
all other GPUs and reduce them — an all-reduce.  The paper's schedule
(Figure 9) is written once, in :func:`exchange_steps` and
:func:`tree_rounds`:

1. **Inter-node** recursive doubling among the first ``p`` nodes, ``p``
   the largest power of two ≤ ``n_nodes``: in the step at stride *s*,
   node *i* exchanges its current partial with node ``i XOR s``, GPU *j*
   talking to GPU *j* over RDMA; all node pairs run in parallel.  Node
   counts that are not powers of two (the paper's Fig. 4(b)/5(b) sweep
   includes 3) use the standard MPI trick: surplus nodes fold their
   update into a partner in one step before the doubling and receive the
   result in one step after it, so 3 nodes take 3 steps, 5–7 take 4.
2. ``ceil(log2(gpus_per_node))`` **intra-node** tree rounds over NVLink.

Both collectives and :class:`~repro.bench.analytical.AnalyticalHPS`
price these counts, and each collective charges its returned seconds
once, an equal share on every node's ledger (:func:`_charge`).  The
functional reduction (key-union + gradient sum) and the timing model
run together: message sizes at each step are the true partial-update
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.gpu import NVLink
from repro.hardware.network import Network
from repro.utils.keys import KEY_DTYPE, as_keys, compact_unique
from repro.utils.rows import put_rows, take_rows

__all__ = [
    "SparseUpdate",
    "exchange_steps",
    "tree_rounds",
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

    @property
    def row_bytes(self) -> int:
        """Wire size of one row: 8 B key + 4 B float per gradient coordinate."""
        return 8 + 4 * int(np.prod(self.grads.shape[1:]))

    def nbytes(self) -> int:
        return self.n_keys * self.row_bytes

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


def exchange_steps(n_nodes: int) -> list[list[tuple[int, int]]]:
    """The inter-node schedule: one list of ``(dst, src)`` transfers per
    step, every transfer of a step running in parallel.

    Recursive doubling runs among the first ``p`` nodes (``p`` the largest
    power of two ≤ ``n_nodes``): at stride ``s`` = 1, 2, …, ``p/2`` node
    ``i`` swaps partials with ``i ^ s``.  Each surplus node ``i ≥ p``
    folds into ``i - p`` in a step before the first stride and gets the
    result back in a step after the last.
    """
    p = 1
    while 2 * p <= n_nodes:
        p *= 2
    steps = [[(i, i ^ (1 << k)) for i in range(p)] for k in range(p.bit_length() - 1)]
    fold = [(i - p, i) for i in range(p, n_nodes)]
    if fold:
        steps = [fold, *steps, [(src, dst) for dst, src in fold]]
    return steps


def tree_rounds(gpus_per_node: int) -> int:
    """Rounds of the intra-node NVLink tree: ``ceil(log2(gpus_per_node))``."""
    return int(gpus_per_node - 1).bit_length()


def _charge(fabrics: list[Network] | list[NVLink], seconds: float) -> None:
    """Charge a collective's ``seconds`` once: an equal share on each
    participating node's ledger, under ``allreduce``."""
    for fabric in fabrics:
        fabric.ledger.add("allreduce", seconds / len(fabrics))


def hierarchical_allreduce(
    node_updates: list[SparseUpdate],
    *,
    gpus_per_node: int,
    networks: list[Network] | None = None,
    nvlinks: list[NVLink] | None = None,
    union: tuple[np.ndarray, list[np.ndarray]] | None = None,
) -> tuple[SparseUpdate, float]:
    """All-reduce per-node sparse updates; returns (global update, seconds).

    ``networks``/``nvlinks`` are each node's fabric models; each node's
    ledger is charged an equal share of the returned seconds.  The time
    is the critical path: per :func:`exchange_steps` step, the slowest
    sender; then the slowest node's NVLink tree.  Omitting both prices
    nothing: only ``benchmarks/hps/micro.py`` does; drop that path at
    benchmark v2.

    ``union`` is ``(keys, positions)`` when the caller already has them
    (the round's :class:`~repro.plan.SyncPlan`): the sorted union of
    every node's keys and, per node, the positions of its keys inside
    that union.  Otherwise both are derived here with one dedup.

    Functionally one partial per block of nodes is evaluated: a transfer
    between nodes holding different partials merges them into the lower
    node's, which every node of the block then holds (``lead``).  The
    sibling merges are dead work — the same key union and the same sums —
    whose *sizes* (all the timing model needs) equal the block's.  A
    partial is a dense gradient array over the union's positions plus a
    presence mask; merging scatters a leaf in (``out[pos] += grads``) or
    adds two dense partials.  Each key therefore sees exactly the
    additions of the pairwise key-merge tree, in the same order, starting
    from +0.0.
    """
    n = len(node_updates)
    if n == 0:
        raise ValueError("need at least one node")
    #: keys in each partial, indexed by the node that leads it
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
    row_bytes = node_updates[0].row_bytes
    #: node -> (dense sums, presence mask) once it has absorbed a merge
    dense: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _xchg_time(node: int, n_keys: int) -> float:
        if networks is None:
            return 0.0
        # GPU j of one node talks to GPU j of the other: gpus_per_node
        # parallel flows sharing one NIC -> the NIC moves all bytes but
        # pays only one latency per parallel lane.
        return networks[node].spec.transfer_seconds(
            n_keys * row_bytes, gpus_per_node
        )

    def _scatter(out: np.ndarray, present: np.ndarray, k: int) -> None:
        """Add node ``k``'s own update into a dense partial."""
        pos = positions[k]
        acc = take_rows(out, pos)
        acc += node_updates[k].grads
        put_rows(out, pos, acc)
        present[pos] = True

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

    total_time = 0.0
    lead = list(range(n))  # node -> the node whose partial it holds
    for step in exchange_steps(n):
        total_time += max(_xchg_time(src, sizes[lead[src]]) for _, src in step)
        for dst, src in step:
            i, j = sorted((lead[dst], lead[src]))
            if i != j:  # two partials meet: the lower node leads the merge
                _merge(i, j)
                lead = [i if k == j else k for k in lead]

    result = (
        SparseUpdate.trusted(union_keys, dense[0][0]) if 0 in dense else node_updates[0]
    )

    # --- intra-node NVLink tree (Figure 9 step 3) ------------------------
    if nvlinks is not None:
        rounds = tree_rounds(gpus_per_node)
        shard_bytes = int(result.nbytes() / gpus_per_node)
        for nv in nvlinks:
            nv.bytes_moved += shard_bytes * rounds
        total_time += max(
            rounds * nv.spec.transfer_seconds(shard_bytes) for nv in nvlinks
        )
    _charge(networks or nvlinks or [], total_time)
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
    networks: list[Network],
    out: DenseGradAccumulator | None = None,
) -> tuple[list[np.ndarray], float]:
    """Sum dense-parameter gradients across nodes (Appendix C.4); returns
    (sum, seconds), each node's ledger charged an equal share.

    Dense towers are replicated on every GPU; their gradients are tiny
    (≤ a few million floats), so the :func:`exchange_steps` schedule over
    ``networks`` (one NIC per node; the slowest prices each step, every
    step moving the whole sum) suffices.
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
    t = len(exchange_steps(n)) * max(
        net.spec.transfer_seconds(nbytes) for net in networks
    )
    _charge(networks, t)
    return total, t
