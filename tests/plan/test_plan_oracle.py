"""The code-space plan builder against its per-key-set predecessor.

``build_round_plan`` derives every set from one dedup and one pair of
partitioner evaluations; ``reference_round_plan`` (``tests/plan_oracles.py``)
rediscovers each set with its own dedup, partition and lookup.  Every
field of every plan dataclass must agree in value and dtype on generated
topologies and batches — empty shards, uneven nodes, compact and sparse
key domains (the reference switches lookup idiom at 2**22; the builder
has one path), hashed and plain-modulo partitioners.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plan_oracles import assert_plans_equal, reference_round_plan
from repro.data.batching import Batch
from repro.hbm.partition import ModuloPartitioner
from repro.plan import build_round_plan

#: key ranges ``(span, base)``: tiny (heavy reuse), compact, a compact
#: span lifted past the 2**22 dense cap, and the whole 62-bit space
_KEY_DOMAINS = [(50, 0), (5_000, 0), (5_000, 1 << 40), (1 << 62, 0)]


@st.composite
def _rounds(draw):
    n_nodes = draw(st.integers(1, 4))
    n_gpus = draw(st.integers(1, 4))
    mb_rounds = draw(st.integers(1, 3))
    span, base = draw(st.sampled_from(_KEY_DOMAINS))
    hashed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batches = []
    for _ in range(n_nodes):
        # From one example (most shards empty) upward, uneven across nodes.
        lengths = rng.integers(0, 6, draw(st.integers(1, 40)))
        keys = rng.integers(0, span, int(lengths.sum())).astype(np.uint64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        batches.append((keys + np.uint64(base), offsets))
    return n_nodes, n_gpus, mb_rounds, hashed, batches


def _plan(builder, case):
    n_nodes, n_gpus, mb_rounds, hashed, arrays = case
    # Fresh batches and partitioners per builder: both memoize.
    batches = [Batch(k, o, np.zeros(o.size - 1)) for k, o in arrays]
    plan = builder(
        batches,
        node_partitioner=ModuloPartitioner(n_nodes, salt=1, hashed=hashed),
        gpu_partitioner=ModuloPartitioner(n_gpus, salt=2, hashed=hashed),
        n_gpus=n_gpus,
        mb_rounds=mb_rounds,
    )
    return batches, plan


@given(_rounds())
@settings(max_examples=200, deadline=None)
def test_round_plan_equals_reference(case):
    got_batches, got = _plan(build_round_plan, case)
    want_batches, want = _plan(reference_round_plan, case)
    assert_plans_equal(got, want)
    # The builder seeds each batch's unique-key memo the way
    # ``unique_keys()`` would have filled it (the shards' memos are
    # compared inside the plan).
    for g, w in zip(got_batches, want_batches):
        assert g._unique.dtype == w._unique.dtype
        assert np.array_equal(g._unique, w._unique)
        assert g.unique_keys() is g._unique
