"""Plan reuse across stages: the key metadata is computed exactly once.

Call-counting shims around the two metadata primitives — the sorted
dedup (``compact_unique`` as bound in ``repro.plan.batch_plan``, and in
``repro.utils.keys`` where ``Batch.unique_keys`` reaches it) and
``ModuloPartitioner.part_of`` (the hash + modulo partitioner, which both
``split`` and ``counts`` route through) — prove that ``stage_read``
makes **one** dedup and **two** partitioner evaluations per round
whatever the topology, that the prepare/load/train stages run on the
plan's precomputed indices alone, and that ``unique_keys()`` on the
round's batches and shards is served from the memo the plan seeded.
"""

import dataclasses

import pytest

import repro.plan.batch_plan as batch_plan
import repro.utils.keys as keys_module
from repro.core.cluster import HPSCluster, RoundContext
from repro.hbm.partition import ModuloPartitioner


class CallCounter:
    def __init__(self):
        self.reset()

    def reset(self):
        self.dedups = 0
        self.part_of = 0


@pytest.fixture
def counter(monkeypatch):
    counter = CallCounter()
    orig_unique = keys_module.compact_unique
    orig_part = ModuloPartitioner.part_of

    def counted_unique(*args, **kwargs):
        counter.dedups += 1
        return orig_unique(*args, **kwargs)

    def counted_part(self, keys):
        counter.part_of += 1
        return orig_part(self, keys)

    monkeypatch.setattr(batch_plan, "compact_unique", counted_unique)
    monkeypatch.setattr(keys_module, "compact_unique", counted_unique)
    monkeypatch.setattr(ModuloPartitioner, "part_of", counted_part)
    return counter


def _run_stages(cluster, counter):
    """One round through the four stages; returns the round's context
    and per-stage ``(dedups, part_of)`` call counts."""
    ctx = RoundContext(round_index=cluster.rounds_completed)
    per_stage = {}
    for name, fn in cluster.stage_functions():
        counter.reset()
        fn(ctx)
        per_stage[name] = (counter.dedups, counter.part_of)
    return ctx, per_stage


class TestPlanReuse:
    def test_round_derives_metadata_only_in_read(
        self, tiny_spec, small_config, counter
    ):
        for n_nodes, gpus_per_node, mb_rounds in [(2, 2, 2), (1, 1, 1), (3, 2, 3)]:
            config = dataclasses.replace(
                small_config,
                n_nodes=n_nodes,
                gpus_per_node=gpus_per_node,
                minibatches_per_gpu=mb_rounds,
            )
            cluster = HPSCluster(tiny_spec, config, functional_batch_size=128)
            cluster.train(1)  # warm caches so every tier participates
            ctx, per_stage = _run_stages(cluster, counter)
            # One dedup of the round's flat keys, one evaluation of each
            # partitioner on the round universe — whatever the topology.
            assert per_stage["read"] == (1, 2)
            for stage in ("prepare", "load", "train"):
                dedups, parts = per_stage[stage]
                assert dedups == 0, f"{stage} re-derived unique keys"
                assert parts == 0, f"{stage} re-partitioned keys"
            # The plan seeded every memo: asking again costs no dedup.
            counter.reset()
            for timed, nplan in zip(ctx.timed, ctx.plan.nodes):
                assert timed.batch.unique_keys() is nplan.keys
                for shard, mbp in zip(nplan.shards, nplan.minibatches):
                    assert shard.unique_keys() is mbp.keys
            assert counter.dedups == 0
