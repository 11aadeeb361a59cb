"""The pipeline clock run on real stage durations, and the round loop.

The clock is :func:`~repro.core.pipeline.schedule`, a pure function of
the stage-time matrix; :meth:`HPSCluster.train_pipelined` records that
matrix with the same round loop lockstep uses and calls it once.  The
synthetic-duration classes hold the clock's overlap and backpressure
properties; the cluster classes hold the loop's order, its duration
checks and lockstep parity.
"""

import numpy as np
import pytest

from repro.core.cluster import HPSCluster
from repro.core.pipeline import QUEUE_CAPACITY, schedule


def names(n_stages):
    return tuple(f"s{i}" for i in range(n_stages))


def clock(durations, queue_capacity=QUEUE_CAPACITY):
    durations = np.asarray(durations, dtype=np.float64)
    return schedule(
        durations,
        queue_capacity=queue_capacity,
        stage_names=names(durations.shape[1]),
    )


@pytest.fixture
def cluster(tiny_spec, small_config):
    return HPSCluster(tiny_spec, small_config, functional_batch_size=256)


def replay_durations(cluster, durations):
    """Wrap every stage to run its real work but report
    ``durations[round, stage]`` to the clock."""
    index = {name: s for s, (name, _) in enumerate(cluster.stage_functions())}

    def wrap(name, fn):
        def wrapped(ctx):
            fn(ctx)
            return float(durations[ctx.round_index, index[name]])

        return wrapped

    cluster.wrap_stages(wrap)


class TestValidation:
    def test_no_stages(self):
        with pytest.raises(ValueError):
            schedule(np.ones((1, 0)), stage_names=())

    def test_queue_capacity_positive(self):
        with pytest.raises(ValueError):
            clock(np.ones((1, 2)), queue_capacity=0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="'s0' returned invalid duration"):
            clock([[-1.0]])

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError, match="'s1' returned invalid duration"):
            clock([[1.0, float("nan")]])

    def test_negative_batches_rejected(self, cluster):
        with pytest.raises(ValueError, match="non-negative"):
            cluster.train_pipelined(-1)


class TestRoundLoopRefusesBadDurations:
    """Both modes check every stage's return as the round loop records it."""

    @pytest.mark.parametrize("train", ["train_round", "train_pipelined"])
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_stage_duration_rejected(self, cluster, train, bad):
        cluster.register_stage("bad", lambda ctx: bad, after="load")
        args = () if train == "train_round" else (1,)
        with pytest.raises(ValueError, match="'bad' returned invalid duration"):
            getattr(cluster, train)(*args)

    @pytest.mark.parametrize("train", ["train", "train_pipelined"])
    @pytest.mark.parametrize("n_rounds", [-3, True, 2.0], ids=repr)
    def test_bad_round_count_refused_before_any_stage(
        self, cluster, train, n_rounds
    ):
        """Both modes check the count the same way: ``train(-3)`` used
        to return ``[]`` and ``train(True)`` to train one round."""
        fired = []
        cluster.register_stage(
            "probe", lambda ctx: fired.append(ctx.round_index) or 0.0,
            after="read",
        )
        with pytest.raises(ValueError, match="non-negative integer"):
            getattr(cluster, train)(n_rounds)
        assert fired == []
        assert cluster.rounds_completed == 0


class TestRoundCounts:
    """``train(n)`` and ``train_pipelined(n)`` run the one round loop."""

    @pytest.mark.parametrize("train", ["train", "train_pipelined"])
    def test_zero_rounds_run_no_stage(self, cluster, train):
        fired = []
        cluster.register_stage(
            "probe", lambda ctx: fired.append(ctx.round_index) or 0.0,
            after="read",
        )
        out = getattr(cluster, train)(0)
        stats = out if train == "train" else out.stats
        assert stats == []
        assert fired == []
        assert cluster.rounds_completed == 0
        if train == "train_pipelined":
            assert out.makespan == 0.0

    @pytest.mark.parametrize("train", ["train", "train_pipelined"])
    def test_numpy_integer_count_is_accepted(self, cluster, train):
        out = getattr(cluster, train)(np.int64(2))
        stats = out if train == "train" else out.stats
        assert [s.round_index for s in stats] == [0, 1]
        assert cluster.rounds_completed == 2

    def test_train_n_matches_n_train_rounds(self, tiny_spec, small_config):
        """``train(3)`` is one ``_run_rounds`` call; it trains what three
        ``train_round`` calls train, with the same stats."""
        def build():
            return HPSCluster(tiny_spec, small_config, functional_batch_size=256)

        batched, stepped = build(), build()
        stats = batched.train(3)
        assert stats == [stepped.train_round() for _ in range(3)]
        assert batched.history == stepped.history
        probe = batched.generator.batch(5, 256).unique_keys()
        assert np.array_equal(
            batched.lookup_embeddings(probe), stepped.lookup_embeddings(probe)
        )


class TestScheduleParity:
    """A pipelined run's clock is ``schedule`` of the durations its stages
    returned, each in its (round, stage) cell."""

    def test_matches_simulator_exactly(self, cluster):
        rng = np.random.default_rng(17)
        durations = rng.uniform(0.1, 5.0, size=(6, 4))
        replay_durations(cluster, durations)
        run = cluster.train_pipelined(6)
        expected = schedule(
            durations, stage_names=("read", "prepare", "load", "train")
        )
        assert np.array_equal(run.stage_times, durations)
        assert np.array_equal(run.schedule.start, expected.start)
        assert np.array_equal(run.schedule.finish, expected.finish)
        assert run.schedule.stage_names == expected.stage_names

    def test_cluster_clock_runs_at_the_module_depth(self, cluster):
        """With a slow last stage, depths 1, 2 and 3 start rounds
        differently; the cluster's clock is the one at
        ``QUEUE_CAPACITY``."""
        durations = np.tile([1.0, 1.0, 1.0, 5.0], (6, 1))
        replay_durations(cluster, durations)
        run = cluster.train_pipelined(6)
        for q in (QUEUE_CAPACITY - 1, QUEUE_CAPACITY, QUEUE_CAPACITY + 1):
            at_q = clock(durations, queue_capacity=q)
            same = np.array_equal(run.schedule.start, at_q.start)
            assert same == (q == QUEUE_CAPACITY)

    def test_execution_order_is_batch_major(self, cluster):
        """Stages fire in canonical round-major order — the parity
        guarantee for stateful stage work."""
        calls = []
        cluster.register_stage("probe", lambda ctx: 0.0, after="read")

        def wrap(name, fn):
            def wrapped(ctx):
                calls.append((ctx.round_index, name))
                return fn(ctx)

            return wrapped

        cluster.wrap_stages(wrap)
        cluster.train_pipelined(3)
        stages = ["read", "probe", "prepare", "load", "train"]
        assert calls == [(r, name) for r in range(3) for name in stages]


class TestOverlap:
    def test_makespan_beats_serial(self):
        run = clock(np.tile([2.0, 2.0, 2.0, 2.0], (8, 1)))
        assert run.makespan < run.serial_makespan

    def test_makespan_bounded_below_by_bottleneck(self):
        durations = np.tile([1.0, 5.0, 2.0, 3.0], (10, 1))
        run = clock(durations)
        assert run.makespan >= durations.sum(axis=0).max()

    def test_single_batch_is_serial(self):
        run = clock(np.array([[1.0, 2.0, 3.0, 4.0]]))
        assert run.makespan == pytest.approx(10.0) == run.serial_makespan

    def test_empty_run(self):
        run = clock(np.ones((0, 4)))
        assert run.makespan == 0.0
        assert run.serial_makespan == 0.0


class TestBackpressure:
    def test_queue_capacity_one_stalls_producer(self):
        """A slow downstream stage stalls the producer once its queue of
        one is full: stage 0 of batch 2 waits for stage 1 to start batch 1."""
        run = clock(np.tile([1.0, 10.0], (4, 1)), queue_capacity=1)
        assert run.start[2, 0] >= run.start[1, 1]
        assert run.queue_stall_seconds(0) > 0.0

    def test_deeper_queues_reduce_stalls(self):
        durations = np.tile([1.0, 3.0, 1.0, 1.0], (12, 1))
        shallow = clock(durations, queue_capacity=1)
        deep = clock(durations, queue_capacity=4)
        assert deep.makespan <= shallow.makespan
        assert deep.queue_stall_seconds(0) <= shallow.queue_stall_seconds(0)

    def test_no_stalls_without_bottleneck(self):
        run = clock(np.tile([2.0, 1.0, 1.0, 1.0], (6, 1)))
        for s in range(4):
            assert run.queue_stall_seconds(s) == pytest.approx(0.0)

    def test_shadow_idle_is_span_minus_busy(self):
        """A fast stage behind a slow one idles; the bottleneck never does.

        With a 2s stage 0 feeding a 1s stage 1, stage 1 waits 1s between
        every pair of its 6 consecutive events — the shadow budget a
        stage's extra work can hide in.
        """
        run = clock(np.tile([2.0, 1.0, 1.0, 1.0], (6, 1)))
        assert run.shadow_idle_seconds(0) == pytest.approx(0.0)
        assert run.shadow_idle_seconds(1) == pytest.approx(5.0)

    def test_shadow_idle_empty_run(self):
        run = clock(np.ones((0, 4)))
        assert run.shadow_idle_seconds(0) == 0.0


class TestClusterPipelined:
    """Lockstep-vs-pipelined parity on the real training stack."""

    @pytest.fixture
    def pair(self, tiny_spec, small_config):
        def build():
            return HPSCluster(
                tiny_spec, small_config, functional_batch_size=256
            )

        return build(), build()

    def test_parameters_bit_identical(self, pair):
        lockstep, pipelined = pair
        lockstep.train(4)
        pipelined.train_pipelined(4)
        probe = lockstep.generator.batch(77, 512).unique_keys()
        assert np.array_equal(
            lockstep.lookup_embeddings(probe),
            pipelined.lookup_embeddings(probe),
        )
        for node_a, node_b in zip(lockstep.nodes, pipelined.nodes):
            for a, b in zip(
                node_a.model.dense_state(), node_b.model.dense_state()
            ):
                assert np.array_equal(a, b)

    def test_stats_match_lockstep(self, pair):
        lockstep, pipelined = pair
        lock_stats = lockstep.train(3)
        run = pipelined.train_pipelined(3)
        assert [s.mean_loss for s in run.stats] == [
            s.mean_loss for s in lock_stats
        ]
        assert [s.cache_hit_rate for s in run.stats] == [
            s.cache_hit_rate for s in lock_stats
        ]
        derived = np.array([s.pipeline_stage_seconds for s in lock_stats])
        assert np.allclose(derived, run.stage_times, rtol=1e-12, atol=0)

    def test_makespan_strictly_below_serial(self, pair):
        _, pipelined = pair
        run = pipelined.train_pipelined(4)
        assert np.all(run.stage_times > 0)  # non-degenerate stages
        assert run.makespan < run.serial_makespan

    def test_rounds_and_history_advance(self, tiny_spec, small_config):
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        cluster.train_round()
        run = cluster.train_pipelined(2)
        assert cluster.rounds_completed == 3
        assert len(cluster.history) == 3
        assert [s.round_index for s in run.stats] == [1, 2]
        assert cluster.history[1:] == run.stats


class TestStageRegistry:
    """Hygiene of the cluster's pluggable stage registry."""

    @pytest.fixture
    def cluster(self, tiny_spec, small_config):
        return HPSCluster(tiny_spec, small_config, functional_batch_size=256)

    def test_unregister_removes_a_registered_stage(self, cluster):
        fired = []
        cluster.register_stage(
            "probe", lambda ctx: fired.append(ctx.round_index) or 0.0,
            after="train",
        )
        cluster.train(1)
        cluster.unregister_stage("probe")
        cluster.train(1)
        assert fired == [0]  # not fired after removal
        assert [n for n, _ in cluster.stage_functions()] == [
            "read", "prepare", "load", "train",
        ]
        # The name is free for re-registration after removal.
        cluster.register_stage("probe", lambda ctx: 0.0, after="train")

    def test_unregister_refuses_base_stages(self, cluster):
        for name in ("read", "prepare", "load", "train"):
            with pytest.raises(ValueError, match="base"):
                cluster.unregister_stage(name)

    def test_unregister_unknown_stage_is_an_error(self, cluster):
        with pytest.raises(ValueError, match="not registered"):
            cluster.unregister_stage("nope")

    def test_rewrapping_wrapped_stages_is_an_error(self, cluster):
        cluster.wrap_stages(lambda name, fn: fn)
        with pytest.raises(RuntimeError, match="already wrapped"):
            cluster.wrap_stages(lambda name, fn: fn)

    def test_unwrap_restores_the_original_registry(self, cluster):
        before = list(cluster.stage_functions())
        seen = []

        def wrap(name, fn):
            def wrapped(ctx):
                seen.append(name)
                return fn(ctx)

            return wrapped

        cluster.wrap_stages(wrap)
        assert list(cluster.stage_functions()) != before
        cluster.train(1)
        assert seen == ["read", "prepare", "load", "train"]
        cluster.unwrap_stages()
        assert list(cluster.stage_functions()) == before
        cluster.train(1)
        assert seen == ["read", "prepare", "load", "train"]  # no new entries
        # A second unwrap has nothing to undo.
        with pytest.raises(RuntimeError, match="not wrapped"):
            cluster.unwrap_stages()

    def test_unwrap_keeps_stages_registered_while_wrapped(self, cluster):
        cluster.wrap_stages(lambda name, fn: fn)
        fired = []
        cluster.register_stage(
            "late", lambda ctx: fired.append(ctx.round_index) or 0.0,
            after="train",
        )
        cluster.unwrap_stages()
        assert [n for n, _ in cluster.stage_functions()] == [
            "read", "prepare", "load", "train", "late",
        ]
        cluster.train(1)
        assert fired == [0]  # survived the unwrap, still driven

    def test_unwrap_keeps_stages_unregistered_while_wrapped_gone(
        self, cluster, tmp_path
    ):
        """It used to come back on unwrap, without its contracts:
        pipelined runs refused the registry, lockstep ran the stage."""
        snapshot = cluster.enable_snapshot_stage(str(tmp_path))
        cluster.wrap_stages(lambda name, fn: lambda ctx: fn(ctx))
        cluster.unregister_stage("snapshot")
        cluster.unwrap_stages()
        assert [n for n, _ in cluster.stage_functions()] == [
            "read", "prepare", "load", "train",
        ]
        cluster.train(1)
        cluster.train_pipelined(1)
        assert snapshot.history == []

    def test_wrapped_stages_train_bit_identically(
        self, tiny_spec, small_config
    ):
        plain = HPSCluster(tiny_spec, small_config, functional_batch_size=256)
        wrapped = HPSCluster(
            tiny_spec, small_config, functional_batch_size=256
        )
        wrapped.wrap_stages(lambda name, fn: lambda ctx: fn(ctx))
        plain.train(3)
        wrapped.train(3)
        probe = plain.generator.batch(5, 256).unique_keys()
        assert np.array_equal(
            plain.lookup_embeddings(probe),
            wrapped.lookup_embeddings(probe),
        )
