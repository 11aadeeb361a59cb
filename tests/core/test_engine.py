"""The round loop, the stage registry, and the clock on real durations.

The clock is :func:`~repro.core.pipeline.schedule`, a pure function of
the stage-time matrix whose properties ``test_pipeline.py`` holds on
synthetic matrices; :meth:`HPSCluster.train_pipelined` records that
matrix with the same round loop lockstep uses and calls it once.  These
classes hold the loop's order, its count and duration checks, the
registry's hygiene, and lockstep parity.
"""

import numpy as np
import pytest

from repro.core.cluster import HPSCluster
from repro.core.pipeline import QUEUE_CAPACITY, schedule

STAGES = ("read", "prepare", "load", "train")


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
        with pytest.raises(ValueError, match="n_rounds must be an integer >= 0"):
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
        expected = schedule(durations, stage_names=STAGES)
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
            at_q = schedule(durations, queue_capacity=q, stage_names=STAGES)
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
