"""The once-per-round MEM resolve: scheduling, parity, pinning.

The resolve pulls each node's full MEM working set (every key of the
round it owns: its local partition and the partitions peers stage)
through the cache in one pass, pins it for the round, and every later
MEM access is a pure row gather.  It is the MEM tier's only path;
``config.prefetch`` merely schedules it — as its own ``prefetch``
pipeline stage or inline at the head of ``prepare``.  Every schedule trains **bit-identical
parameters**, within a schedule lockstep and pipelined agree on every
simulated second, and a cluster whose caches are shadowed op by op on
the per-key seed implementation trains through without a single
disagreement.
"""

import dataclasses

import numpy as np
import pytest

from cache_oracles import shadow_caches
from repro.config import ClusterConfig
from repro.core.cluster import HPSCluster
from repro.core.trainer import ReferenceTrainer
from repro.mem.mem_ps import MemPS
from repro.plan import build_round_plan
from repro.store.slot_index import SlotIndex

N_ROUNDS = 16


def _build(spec, config, **kwargs):
    return HPSCluster(spec, config, functional_batch_size=192, **kwargs)


def _probe(cluster):
    return cluster.generator.batch(10_000, 1024).unique_keys()


def _assert_param_parity(a, b):
    probe = _probe(a)
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(
        a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()
    ):
        assert np.array_equal(pa, pb)


def _assert_stats_parity(stats_a, stats_b):
    assert len(stats_a) == len(stats_b)
    for sa, sb in zip(stats_a, stats_b):
        for f in dataclasses.fields(sa):
            va, vb = getattr(sa, f.name), getattr(sb, f.name)
            assert va == vb, f"BatchStats.{f.name}: {va} != {vb}"


@pytest.fixture
def pressured(small_config):
    # Small enough MEM tier that misses, evictions, and the SSD engage.
    return dataclasses.replace(small_config, mem_capacity_params=1_400)


@pytest.fixture
def pressured_prefetch(pressured):
    return dataclasses.replace(pressured, prefetch=True)


class TestStageRegistration:
    def test_prefetch_splices_into_the_pipeline(
        self, tiny_spec, pressured_prefetch
    ):
        cluster = _build(tiny_spec, pressured_prefetch)
        names = [n for n, _ in cluster.stage_functions()]
        assert names == ["read", "prefetch", "prepare", "load", "train"]

    def test_base_pipeline_unchanged_without_prefetch(
        self, tiny_spec, pressured
    ):
        cluster = _build(tiny_spec, pressured)
        names = [n for n, _ in cluster.stage_functions()]
        assert names == ["read", "prepare", "load", "train"]

    def test_register_validates(self, tiny_spec, pressured):
        cluster = _build(tiny_spec, pressured)
        with pytest.raises(ValueError, match="already registered"):
            cluster.register_stage("read", lambda ctx: 0.0, after="train")
        with pytest.raises(ValueError, match="unknown stage"):
            cluster.register_stage("extra", lambda ctx: 0.0, after="nope")
        # A registered stage really is driven by both execution modes.
        fired = []
        cluster.register_stage(
            "probe", lambda ctx: fired.append(ctx.round_index) or 0.0,
            after="load",
        )
        cluster.train(1)
        cluster.train_pipelined(2)
        assert fired == [0, 1, 2]


class TestPrefetchPlan:
    def test_segments_gather_their_constituents(self, tiny_spec, pressured):
        cluster = _build(tiny_spec, pressured)
        batches = [
            cluster.generator.batch(i, 192) for i in range(cluster.n_nodes)
        ]
        plan = build_round_plan(
            batches,
            node_partitioner=cluster.nodes[0].mem_ps.partitioner,
            gpu_partitioner=cluster.nodes[0].hbm_ps.params.partitioner,
            n_gpus=cluster.config.gpus_per_node,
            mb_rounds=cluster.config.minibatches_per_gpu,
        )
        assert len(plan.prefetch) == cluster.n_nodes
        for i, pf in enumerate(plan.prefetch):
            node_plan = plan.nodes[i]
            # Sorted unique union.
            assert np.array_equal(pf.keys, np.unique(pf.keys))
            # Each segment gathers exactly its constituent key set.
            assert np.array_equal(
                pf.keys[pf.local_pos], node_plan.keys[node_plan.local_idx]
            )
            covered = [pf.local_pos]
            for p, pos in enumerate(pf.serve_pos):
                if p == i:
                    assert pos.size == 0
                    continue
                peer = plan.nodes[p]
                assert np.array_equal(
                    pf.keys[pos], peer.keys[peer.node_parts[i]]
                )
                covered.append(pos)
            # The union holds nothing else.
            assert np.array_equal(
                np.unique(np.concatenate(covered)),
                np.arange(pf.keys.size, dtype=np.int64),
            )
            assert np.array_equal(plan.keys[pf.codes], pf.keys)
        # The owners' unions partition the round: one owner per row.
        assert np.array_equal(
            np.sort(np.concatenate([pf.codes for pf in plan.prefetch])),
            np.arange(plan.keys.size),
        )

    def test_the_knob_is_not_a_plan_input(self, tiny_spec, pressured):
        """``prefetch=`` is still accepted (the frozen benchmark passes
        it) but selects nothing: the resolve unions are always emitted."""
        cluster = _build(tiny_spec, pressured)
        batches = [
            cluster.generator.batch(i, 192) for i in range(cluster.n_nodes)
        ]
        plans = [
            build_round_plan(
                batches,
                node_partitioner=cluster.nodes[0].mem_ps.partitioner,
                gpu_partitioner=cluster.nodes[0].hbm_ps.params.partitioner,
                n_gpus=cluster.config.gpus_per_node,
                mb_rounds=cluster.config.minibatches_per_gpu,
                **kwargs,
            )
            for kwargs in ({}, {"prefetch": False}, {"prefetch": True})
        ]
        for plan in plans[1:]:
            for pf, want in zip(plan.prefetch, plans[0].prefetch, strict=True):
                assert np.array_equal(pf.keys, want.keys)


class TestPrefetchParity:
    def test_lockstep_is_schedule_independent(
        self, tiny_spec, pressured, pressured_prefetch
    ):
        """In lockstep the two schedules run the same operations in the
        same order, so every statistic — not just the parameters —
        agrees: there is one MEM path, not one per knob value."""
        base = _build(tiny_spec, pressured)
        pf = _build(tiny_spec, pressured_prefetch)
        stats_base = base.train(N_ROUNDS)
        stats_pf = pf.train(N_ROUNDS)
        # The workload must exercise the SSD tier for parity to bite.
        assert any(s.ssd_io_seconds > 0 for s in stats_base)
        _assert_param_parity(base, pf)
        _assert_stats_parity(stats_base, stats_pf)

    def test_pipelined_prefetch_matches_lockstep_exactly(
        self, tiny_spec, pressured_prefetch
    ):
        lock = _build(tiny_spec, pressured_prefetch)
        piped = _build(tiny_spec, pressured_prefetch)
        stats_lock = lock.train(N_ROUNDS)
        run = piped.train_pipelined(N_ROUNDS)
        _assert_stats_parity(stats_lock, run.stats)
        _assert_param_parity(lock, piped)

    def test_scalar_cache_oracle_matches_bulk_exactly(
        self, tiny_spec, pressured_prefetch
    ):
        """Every cache op of a pressured run replayed key by key on the
        seed dict cache: ``ShadowedCombinedCache`` asserts agreement
        after each one (hit masks, flush pairs in order, rows, both
        tiers in eviction order, metadata, stats, pins) and raises on
        the first difference."""
        plain = _build(tiny_spec, pressured_prefetch)
        shadowed = _build(tiny_spec, pressured_prefetch)
        shadow_caches(shadowed)
        stats_plain = plain.train(N_ROUNDS)
        stats_shadowed = shadowed.train(N_ROUNDS)
        # The shadow only watches: same statistics, same parameters.
        _assert_stats_parity(stats_plain, stats_shadowed)
        _assert_param_parity(plain, shadowed)
        # And it watched the hard regime: misses, flushes, promotions.
        assert any(s.ssd_io_seconds > 0 for s in stats_plain)
        assert all(s.cache_admission_runs > 0 for s in stats_plain)

    def test_prefetch_admission_stays_collision_free(
        self, tiny_spec, pressured_prefetch
    ):
        """Under eviction pressure the prefetch-shaped unions (hot
        residents of both tiers mixed with miss storms) admit in at most
        four dense passes per resolve — one per tier segment and one for
        the miss insert — so per round a node spends at most 4."""
        pf = _build(tiny_spec, pressured_prefetch)
        stats = pf.train(N_ROUNDS)
        assert all(0 < s.cache_admission_runs <= 4 * pf.n_nodes for s in stats)
        assert all(s.cache_collision_splits == 0 for s in stats)


#: every way the resolve can be scheduled
SCHEDULES = [dict(prefetch=False), dict(prefetch=True)]


def _digest(cluster):
    probe = _probe(cluster)
    return (
        cluster.lookup_embeddings(probe).tobytes(),
        *(a.tobytes() for a in cluster.nodes[0].model.dense_state()),
    )


class TestSingleMemPath:
    def test_all_schedules_and_modes_share_one_digest(
        self, tiny_spec, pressured
    ):
        """Lockstep and pipelined, under every schedule, land on the
        same bytes — and on the single-store reference trainer's values
        (which sums in a different order, hence its usual tolerance)."""
        digests = set()
        for schedule in SCHEDULES:
            config = dataclasses.replace(pressured, **schedule)
            lock = _build(tiny_spec, config)
            piped = _build(tiny_spec, config)
            lock.train(N_ROUNDS)
            piped.train_pipelined(N_ROUNDS)
            digests.update((_digest(lock), _digest(piped)))
        assert len(digests) == 1
        ref = ReferenceTrainer(tiny_spec, pressured, functional_batch_size=192)
        ref.train(N_ROUNDS)
        probe = _probe(lock)
        assert np.allclose(
            lock.lookup_embeddings(probe), ref.embedding_of(probe), atol=1e-5
        )

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=str)
    @pytest.mark.parametrize("pipelined", [False, True])
    def test_no_pin_survives_a_round_boundary(
        self, tiny_spec, pressured, schedule, pipelined
    ):
        """After every round's train stage nothing is pinned: one round
        is in flight per node, and its end releases every pin."""
        cluster = _build(tiny_spec, dataclasses.replace(pressured, **schedule))
        leaked = []

        def boundary(ctx):
            for node in cluster.nodes:
                if node.mem_ps.cache.pinned_count():
                    leaked.append((ctx.round_index, node.node_id))
            return 0.0

        cluster.register_stage("boundary", boundary, after="train")
        if pipelined:
            cluster.train_pipelined(6)
        else:
            cluster.train(6)
        assert leaked == []

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=str)
    def test_one_probe_per_key_per_round(
        self, tiny_spec, pressured, schedule, monkeypatch
    ):
        """Every SlotIndex probe of a round happens inside the resolve:
        prepare and absorb_updates gather and scatter through resolved
        rows and never locate a key (serve_remote and apply_gradients,
        which did the same, are off the training path)."""
        inside: list[str] = []
        probes: list[str] = []
        locate = SlotIndex.locate

        def counting_locate(self, *args, **kwargs):
            if inside:
                probes.append(inside[-1])
            return locate(self, *args, **kwargs)

        monkeypatch.setattr(SlotIndex, "locate", counting_locate)
        entered = set()
        for name in (
            "prepare", "serve_remote", "apply_gradients", "absorb_updates"
        ):
            method = getattr(MemPS, name)

            def tracked(self, *args, _name=name, _method=method, **kwargs):
                inside.append(_name)
                entered.add(_name)
                try:
                    return _method(self, *args, **kwargs)
                finally:
                    inside.pop()

            monkeypatch.setattr(MemPS, name, tracked)
        cluster = _build(tiny_spec, dataclasses.replace(pressured, **schedule))
        plans = []
        cluster.register_stage(
            "grab", lambda ctx: plans.append(ctx.plan) or 0.0, after="read"
        )
        accesses = [
            sum(n.mem_ps.cache.stats.accesses for n in cluster.nodes)
        ]
        for _ in range(4):
            cluster.train_round()
            accesses.append(
                sum(n.mem_ps.cache.stats.accesses for n in cluster.nodes)
            )
        assert entered == {"prepare", "absorb_updates"}
        assert probes == []
        # ...which is also what ``cache_hit_rate`` now counts: one
        # access per distinct key a node's MEM tier touches per round
        # (the Fig. 4(c) definition), i.e. exactly the resolve unions.
        assert np.diff(accesses).tolist() == [
            sum(pf.keys.size for pf in plan.prefetch) for plan in plans
        ]


class TestPrefetchMechanics:
    def test_round_boundary_releases_every_pin(
        self, tiny_spec, pressured_prefetch
    ):
        pf = _build(tiny_spec, pressured_prefetch)
        pf.train(3)
        for node in pf.nodes:
            assert node.mem_ps.cache.pinned_count() == 0
            assert node.mem_ps._prefetch_plan is None

    def test_prefetch_seconds_reported_and_folded(
        self, tiny_spec, pressured_prefetch
    ):
        pf = _build(tiny_spec, pressured_prefetch)
        stats = pf.train(N_ROUNDS)
        # Under pressure the prefetch stage pays real SSD load time...
        assert any(s.prefetch_seconds > 0 for s in stats)
        for s in stats:
            # ...it is part of the MEM/SSD stage total...
            assert s.pull_push_seconds >= s.prefetch_seconds
            # ...and the 4-way stage decomposition still sums to the
            # serial makespan (prefetch folds into the prepare element).
            assert s.pipeline_stage_seconds[1] >= s.prefetch_seconds

    def test_checkpoint_restore_replays_bit_identically(
        self, tiny_spec, pressured_prefetch, tmp_path
    ):
        pf = _build(tiny_spec, pressured_prefetch)
        pf.train(4)
        pf.save_checkpoint(str(tmp_path))
        restored = HPSCluster.restore(str(tmp_path))
        assert restored.config.prefetch is True
        straight = _build(tiny_spec, pressured_prefetch)
        straight.train(6)
        restored.train(2)
        _assert_param_parity(straight, restored)


class TestExtentCachePlumbing:
    def test_config_reaches_the_file_store(self, tiny_spec, small_config):
        cfg = dataclasses.replace(small_config, ssd_extent_cache_files=3)
        cluster = _build(tiny_spec, cfg)
        for node in cluster.nodes:
            assert node.ssd_ps.store.extent_cache.max_files == 3
            assert node.ssd_ps.store.extent_cache.enabled

    def test_enabled_by_default(self, tiny_spec, small_config):
        # Default on since hits are priced at the warm host-copy rate —
        # the cache no longer forks sim-seconds parity groups.
        cluster = _build(tiny_spec, small_config)
        for node in cluster.nodes:
            assert node.ssd_ps.store.extent_cache.enabled
        off = _build(
            tiny_spec,
            dataclasses.replace(small_config, ssd_extent_cache_files=0),
        )
        for node in off.nodes:
            assert not node.ssd_ps.store.extent_cache.enabled

    def test_validation(self):
        with pytest.raises(ValueError, match="ssd_extent_cache_files"):
            ClusterConfig(ssd_extent_cache_files=-1)
