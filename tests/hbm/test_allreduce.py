"""Tests for the hierarchical all-reduce (Figure 9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.network import Network
from repro.hardware.specs import NetworkSpec
from repro.hbm.allreduce import (
    DenseGradAccumulator,
    SparseUpdate,
    allreduce_dense,
    hierarchical_allreduce,
)
from repro.utils.keys import compact_unique


def upd(d):
    keys = np.array(sorted(d), dtype=np.uint64)
    grads = np.array([[d[int(k)]] for k in keys], dtype=np.float64)
    return SparseUpdate(keys, grads)


def merge_updates(a: SparseUpdate, b: SparseUpdate) -> SparseUpdate:
    """Reference pairwise merge: union of keys, shared keys sum
    (concatenate, sort, unbuffered ``np.add.at`` in arrival order)."""
    if a.n_keys == 0:
        return b
    if b.n_keys == 0:
        return a
    keys = np.concatenate([a.keys, b.keys])
    grads = np.concatenate([a.grads, b.grads])
    uniq, inv = compact_unique(keys, return_inverse=True)
    out = np.zeros((uniq.size,) + a.grads.shape[1:], dtype=np.float64)
    np.add.at(out, inv, grads)
    return SparseUpdate(uniq, out)


def reference_allreduce(updates, networks=None, gpus_per_node=8):
    """Full recursive doubling (Figure 9): *every* node merges with its
    partner at every step, surplus nodes fold in first.  Returns node 0's
    result and the inter-node critical-path seconds."""
    n = len(updates)
    partial = list(updates)

    def xchg(node, nbytes):
        if networks is None:
            return 0.0
        return networks[node].transfer_time(nbytes, n_messages=gpus_per_node)

    p = 1
    while p * 2 <= n:
        p *= 2
    seconds = step_t = 0.0
    for i in range(p, n):
        step_t = max(step_t, xchg(i, partial[i].nbytes()))
        partial[i - p] = merge_updates(partial[i - p], partial[i])
    seconds += step_t
    step = 1
    while step < p:
        seconds += max(xchg(i, partial[i ^ step].nbytes()) for i in range(p))
        partial[:p] = [
            merge_updates(partial[i], partial[i ^ step]) for i in range(p)
        ]
        step *= 2
    step_t = 0.0
    for i in range(p, n):
        step_t = max(step_t, xchg(i - p, partial[0].nbytes()))
    return partial[0], seconds + step_t


class TestSparseUpdate:
    def test_validates_sorted_unique(self):
        with pytest.raises(ValueError):
            SparseUpdate(np.array([2, 1], dtype=np.uint64), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            SparseUpdate(np.array([1, 1], dtype=np.uint64), np.zeros((2, 1)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SparseUpdate(np.array([1], dtype=np.uint64), np.zeros((2, 1)))

    def test_nbytes(self):
        u = upd({1: 1.0, 2: 2.0})
        assert u.nbytes() == 2 * (8 + 4)

    def test_empty(self):
        u = SparseUpdate.empty(3)
        assert u.n_keys == 0
        assert u.grads.shape == (0, 3)


class TestMerge:
    def test_disjoint_union(self):
        m = merge_updates(upd({1: 1.0}), upd({2: 2.0}))
        assert m.keys.tolist() == [1, 2]
        assert m.grads[:, 0].tolist() == [1.0, 2.0]

    def test_shared_keys_sum(self):
        m = merge_updates(upd({1: 1.0, 2: 5.0}), upd({2: 2.0}))
        assert m.grads[:, 0].tolist() == [1.0, 7.0]

    def test_empty_identity(self):
        u = upd({3: 1.5})
        assert merge_updates(SparseUpdate.empty(1), u) is u
        assert merge_updates(u, SparseUpdate.empty(1)) is u


class TestHierarchicalAllreduce:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 8])
    def test_equals_flat_sum(self, n_nodes):
        rng = np.random.default_rng(n_nodes)
        updates = []
        for _ in range(n_nodes):
            keys = np.unique(rng.integers(0, 50, 20).astype(np.uint64))
            grads = rng.normal(size=(keys.size, 2))
            updates.append(SparseUpdate(keys, grads))
        result, t = hierarchical_allreduce(updates)
        # Flat reference: sum everything per key.
        acc: dict[int, np.ndarray] = {}
        for u in updates:
            for k, g in zip(u.keys.tolist(), u.grads):
                acc[k] = acc.get(k, 0) + g
        assert result.keys.tolist() == sorted(acc)
        for k, g in zip(result.keys.tolist(), result.grads):
            assert np.allclose(g, acc[k])

    def test_no_networks_zero_time(self):
        result, t = hierarchical_allreduce([upd({1: 1.0}), upd({1: 2.0})])
        assert t == 0.0

    def test_time_positive_with_networks(self):
        nets = [Network(NetworkSpec()) for _ in range(4)]
        updates = [upd({i: 1.0}) for i in range(4)]
        _, t = hierarchical_allreduce(updates, networks=nets, gpus_per_node=8)
        assert t > 0
        assert sum(n.ledger.total("allreduce") for n in nets) == pytest.approx(t)

    def test_more_nodes_more_time(self):
        def run(n):
            nets = [Network(NetworkSpec()) for _ in range(n)]
            updates = [upd({i: 1.0, 100 + i: 2.0}) for i in range(n)]
            return hierarchical_allreduce(updates, networks=nets)[1]

        assert run(4) > run(2)

    def test_single_node_no_internode_time(self):
        nets = [Network(NetworkSpec())]
        _, t = hierarchical_allreduce([upd({1: 1.0})], networks=nets)
        assert t == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_allreduce([])

    def test_rdma_faster_than_cpu_bounce(self):
        """Figure 8: removing RDMA adds PCIe copies + CPU overhead."""
        def run(rdma):
            nets = [Network(NetworkSpec(rdma=rdma)) for _ in range(4)]
            updates = [
                SparseUpdate(
                    np.arange(1000, dtype=np.uint64) + i,
                    np.ones((1000, 4)),
                )
                for i in range(4)
            ]
            return hierarchical_allreduce(updates, networks=nets)[1]

        assert run(True) < run(False)


class TestAllreduceDense:
    def test_sums_across_nodes(self):
        grads = [[np.ones((2, 2)), np.ones(3)] for _ in range(4)]
        total, t = allreduce_dense(grads)
        assert np.all(total[0] == 4.0)
        assert np.all(total[1] == 4.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allreduce_dense([[np.ones(2)], [np.ones(3)]])

    def test_single_node_zero_time(self):
        nets = [Network(NetworkSpec())]
        _, t = allreduce_dense([[np.ones(5)]], networks=nets)
        assert t == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            allreduce_dense([])

    def test_float32_sum_matches_float64_within_tolerance(self):
        """Regression for the reused-float32-buffer accumulation: the sum
        must agree with an exact float64 reduction to float32 precision."""
        rng = np.random.default_rng(5)
        grads = [
            [rng.normal(size=(32, 16)), rng.normal(size=48)] for _ in range(4)
        ]
        total, _ = allreduce_dense(grads)
        exact = [
            np.sum([g[j] for g in grads], axis=0, dtype=np.float64)
            for j in range(2)
        ]
        for got, want in zip(total, exact):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_out_buffers_are_reused_across_calls(self):
        """No per-call temporaries: the accumulator's arrays are written
        in place on every call."""
        acc = DenseGradAccumulator()
        grads_a = [[np.ones((3, 3))], [np.ones((3, 3))]]
        total_a, _ = allreduce_dense(grads_a, out=acc)
        first = [id(t) for t in total_a]
        grads_b = [[np.full((3, 3), 2.0)], [np.full((3, 3), 3.0)]]
        total_b, _ = allreduce_dense(grads_b, out=acc)
        assert [id(t) for t in total_b] == first
        assert np.all(total_b[0] == 5.0)

    def test_accumulator_reallocates_on_shape_change(self):
        acc = DenseGradAccumulator()
        allreduce_dense([[np.ones(4)]], out=acc)
        total, _ = allreduce_dense([[np.ones((2, 2))]], out=acc)
        assert total[0].shape == (2, 2)
        assert np.all(total[0] == 1.0)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_allreduce_total_mass_conserved(n_nodes, seed):
    rng = np.random.default_rng(seed)
    updates = []
    total = 0.0
    for _ in range(n_nodes):
        keys = np.unique(rng.integers(0, 30, 10).astype(np.uint64))
        grads = rng.normal(size=(keys.size, 1))
        total += grads.sum()
        updates.append(SparseUpdate(keys, grads))
    result, _ = hierarchical_allreduce(updates)
    assert result.grads.sum() == pytest.approx(total, abs=1e-9)


@st.composite
def _node_updates(draw):
    """1..8 nodes; per node an empty, a shared-range (overlapping) or a
    private-range (disjoint) key set, gradients of width 1..3."""
    n_nodes = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    updates = []
    for i in range(n_nodes):
        kind = draw(st.sampled_from(["empty", "overlap", "disjoint"]))
        if kind == "empty":
            updates.append(SparseUpdate.empty(dim))
            continue
        lo = 0 if kind == "overlap" else 1000 * (i + 1)
        keys = np.unique(rng.integers(lo, lo + 40, 25).astype(np.uint64))
        updates.append(SparseUpdate(keys, rng.normal(size=(keys.size, dim))))
    return updates


@given(_node_updates(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_allreduce_equals_full_recursive_doubling(updates, planned):
    """Node 0's reduction tree alone reproduces the all-nodes reference
    bit for bit — keys, every float64 sum, and the simulated seconds —
    whether the key union and each node's positions in it are derived
    or handed in by the plan."""
    nets = [Network(NetworkSpec()) for _ in updates]
    want, want_s = reference_allreduce(updates, networks=nets, gpus_per_node=2)
    union = None
    if planned:
        keys = np.unique(np.concatenate([u.keys for u in updates]))
        union = (keys, [keys.searchsorted(u.keys) for u in updates])
    got, got_s = hierarchical_allreduce(
        updates, networks=nets, gpus_per_node=2, union=union
    )
    assert np.array_equal(got.keys, want.keys)
    assert got.grads.dtype == np.float64
    assert np.array_equal(got.grads, want.grads)
    assert got_s == want_s
