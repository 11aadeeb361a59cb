"""Plan reuse across stages: the key metadata is computed exactly once.

Call-counting shims around the two metadata primitives —
``Batch.unique_keys`` (the ``np.unique`` producer) and
``ModuloPartitioner.part_of`` (the hash + modulo partitioner, which both
``split`` and ``counts`` route through) — prove that
every derivation happens in ``stage_read`` and the prepare/load/train
stages run on the plan's precomputed indices alone.
"""

import contextlib

import pytest

from repro.core.cluster import HPSCluster, RoundContext
from repro.data.batching import Batch
from repro.hbm.partition import ModuloPartitioner


class CallCounter:
    def __init__(self):
        self.unique_keys = 0
        self.part_of = 0

    def reset(self):
        self.unique_keys = 0
        self.part_of = 0


@contextlib.contextmanager
def counting_shims(monkeypatch):
    counter = CallCounter()
    orig_unique = Batch.unique_keys
    orig_part = ModuloPartitioner.part_of

    def counted_unique(self):
        counter.unique_keys += 1
        return orig_unique(self)

    def counted_part(self, keys):
        counter.part_of += 1
        return orig_part(self, keys)

    monkeypatch.setattr(Batch, "unique_keys", counted_unique)
    monkeypatch.setattr(ModuloPartitioner, "part_of", counted_part)
    yield counter


@pytest.fixture
def cluster(tiny_spec, small_config):
    return HPSCluster(tiny_spec, small_config, functional_batch_size=128)


def _run_stages(cluster, counter):
    """One round through the four stages; returns per-stage call counts."""
    ctx = RoundContext(round_index=cluster.rounds_completed)
    per_stage = {}
    for name, fn in cluster.stage_functions():
        counter.reset()
        fn(ctx)
        per_stage[name] = (counter.unique_keys, counter.part_of)
    return per_stage


class TestPlanReuse:
    def test_round_derives_metadata_only_in_read(
        self, cluster, monkeypatch
    ):
        cluster.train(1)  # warm caches so every tier participates
        with counting_shims(monkeypatch) as counter:
            per_stage = _run_stages(cluster, counter)
        # All uniquing/partitioning happened while building the plan.
        assert per_stage["read"][0] > 0
        assert per_stage["read"][1] > 0
        for stage in ("prepare", "load", "train"):
            uniques, parts = per_stage[stage]
            assert uniques == 0, f"{stage} re-derived unique keys"
            assert parts == 0, f"{stage} re-partitioned keys"
