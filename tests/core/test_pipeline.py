"""Tests for the pipeline clock, ``schedule(stage_times)`` (Appendix B)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import schedule

NAMES = ("read", "prepare", "load", "train")


def names(n_stages):
    return tuple(f"s{i}" for i in range(n_stages))


class TestValidation:
    def test_invalid_stage_count(self):
        with pytest.raises(ValueError, match="at least one stage"):
            schedule(np.ones((3, 0)), stage_names=())

    def test_queue_capacity_count(self):
        with pytest.raises(ValueError, match="per stage boundary"):
            schedule(np.ones((1, 4)), queue_capacity=(1, 2), stage_names=NAMES)

    def test_queue_capacity_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            schedule(np.ones((1, 2)), queue_capacity=(0,), stage_names=("a", "b"))

    def test_stage_times_shape(self):
        with pytest.raises(ValueError, match="stage_times"):
            schedule(np.ones((3, 2)), stage_names=NAMES)
        with pytest.raises(ValueError, match="stage_times"):
            schedule(np.ones(4), stage_names=NAMES)

    def test_negative_times(self):
        with pytest.raises(ValueError, match="invalid duration"):
            schedule(-np.ones((2, 4)), stage_names=NAMES)


class TestScheduling:
    def test_single_batch_is_serial(self):
        sched = schedule(np.array([[1.0, 2.0, 3.0, 4.0]]), stage_names=NAMES)
        assert sched.makespan == pytest.approx(10.0)

    def test_steady_state_equals_bottleneck(self):
        """Paper: 'the overall execution time for each batch is dominated
        by the slowest stage'."""
        times = np.tile([1.0, 5.0, 2.0, 3.0], (20, 1))
        sched = schedule(times, stage_names=NAMES)
        assert sched.steady_state_interval == pytest.approx(5.0)

    def test_pipeline_beats_serial(self):
        times = np.tile([2.0, 2.0, 2.0, 2.0], (10, 1))
        sched = schedule(times, stage_names=NAMES)
        assert sched.makespan < sched.serial_makespan == times.sum()
        # Ideal: fill (8) + 9 more bottleneck intervals (2 each).
        assert sched.makespan == pytest.approx(8 + 9 * 2)

    def test_stage_order_respected(self):
        sched = schedule(np.ones((5, 4)), stage_names=NAMES)
        for b in range(5):
            for s in range(1, 4):
                assert sched.start[b, s] >= sched.finish[b, s - 1]

    def test_resource_serialization(self):
        sched = schedule(np.ones((5, 4)), stage_names=NAMES)
        for b in range(1, 5):
            for s in range(4):
                assert sched.start[b, s] >= sched.finish[b - 1, s]

    def test_backpressure_with_queue_capacity_one(self):
        """A slow downstream stage stalls the producer once its queue
        of one is full."""
        times = np.tile([1.0, 10.0], (4, 1))
        sched = schedule(times, queue_capacity=1, stage_names=("a", "b"))
        # Stage a of batch 2 cannot start until stage b started batch 1.
        assert sched.start[2, 0] >= sched.start[1, 1]

    def test_deeper_queues_reduce_stalls(self):
        times = np.tile([1.0, 3.0, 1.0, 1.0], (12, 1))
        shallow = schedule(times, queue_capacity=1, stage_names=NAMES)
        deep = schedule(times, queue_capacity=4, stage_names=NAMES)
        assert deep.makespan <= shallow.makespan

    def test_bottleneck_stage_identified(self):
        sched = schedule(np.tile([1.0, 1.0, 9.0, 1.0], (6, 1)), stage_names=NAMES)
        assert sched.bottleneck_stage() == 2
        assert sched.stage_names == NAMES

    def test_empty_schedule(self):
        sched = schedule(np.zeros((0, 4)), stage_names=NAMES)
        assert sched.makespan == 0.0


def cross_round_overlaps(sched):
    """Every ``(i, j)``: stage ``i`` of a later round ran concurrently
    with stage ``j`` of an earlier round on the clock."""
    start, finish = sched.start, sched.finish
    n, n_stages = start.shape
    return {
        (i, j)
        for b in range(n)
        for later in range(b + 1, n)
        for i in range(n_stages)
        for j in range(n_stages)
        if start[later, i] < finish[b, j] and start[b, j] < finish[later, i]
    }


class TestCrossRoundOverlap:
    """Across rounds the clock overlaps an upstream stage with a
    downstream one and nothing else."""

    def test_only_upstream_overlaps_downstream(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            times = rng.uniform(0.1, 3.0, size=(8, 4))
            sched = schedule(times, queue_capacity=2, stage_names=NAMES)
            assert all(i < j for i, j in cross_round_overlaps(sched))

    def test_uniform_stages_overlap_every_upstream_downstream_pair(self):
        # Uniform stages keep every stage busy at once in steady state.
        sched = schedule(np.ones((12, 4)), queue_capacity=2, stage_names=NAMES)
        assert cross_round_overlaps(sched) == {
            (i, j) for i in range(4) for j in range(4) if i < j
        }


class TestHidesIOLatency:
    def test_io_hidden_behind_gpu(self):
        """Paper Section 3: with the GPU as the bottleneck, adding I/O
        stages does not change the steady-state interval."""
        gpu_only = np.tile([0.0, 0.0, 0.0, 4.0], (15, 1))
        with_io = np.tile([3.0, 3.0, 3.0, 4.0], (15, 1))
        a = schedule(gpu_only, stage_names=NAMES).steady_state_interval
        b = schedule(with_io, stage_names=NAMES).steady_state_interval
        assert b == pytest.approx(a)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_makespan_bounds(n_batches, n_stages, seed):
    """Pipelined makespan is between the bottleneck lower bound and the
    fully serial upper bound."""
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.1, 5.0, size=(n_batches, n_stages))
    sched = schedule(times, queue_capacity=2, stage_names=names(n_stages))
    lower = times.sum(axis=0).max()
    upper = times.sum()
    assert lower - 1e-9 <= sched.makespan <= upper + 1e-9


@st.composite
def clocks(draw):
    """A stage-time matrix (zeros allowed) and one depth per boundary."""
    n_rounds = draw(st.integers(min_value=0, max_value=12))
    n_stages = draw(st.integers(min_value=1, max_value=6))
    duration = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))
    times = np.array(
        draw(
            st.lists(
                st.lists(duration, min_size=n_stages, max_size=n_stages),
                min_size=n_rounds,
                max_size=n_rounds,
            )
        ),
        dtype=np.float64,
    ).reshape(n_rounds, n_stages)
    caps = tuple(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=4),
                min_size=n_stages - 1,
                max_size=n_stages - 1,
            )
        )
    )
    return times, caps


@given(clocks())
@settings(max_examples=200, deadline=None)
def test_every_event_starts_at_its_binding_constraint(clock):
    """Each event starts exactly at the latest of its three constraints
    (precedence, serialization, queue room), the makespan sits between
    the busiest stage and the serial sum, and stall and shadow idle are
    never negative."""
    times, caps = clock
    n, n_stages = times.shape
    sched = schedule(times, queue_capacity=caps, stage_names=names(n_stages))
    start, finish = sched.start, sched.finish
    for b in range(n):
        for s in range(n_stages):
            constraints = [0.0]
            if s > 0:
                constraints.append(finish[b, s - 1])
            if b > 0:
                constraints.append(finish[b - 1, s])
            if s < n_stages - 1 and b >= caps[s]:
                constraints.append(start[b - caps[s], s + 1])
            assert start[b, s] == max(constraints)
            assert finish[b, s] == start[b, s] + times[b, s]
    busiest = times.sum(axis=0).max() if n else 0.0
    tol = 1e-9 * max(1.0, float(times.sum()))
    assert busiest - tol <= sched.makespan <= sched.serial_makespan + tol
    for s in range(n_stages):
        assert sched.queue_stall_seconds(s) >= 0.0
        assert sched.shadow_idle_seconds(s) >= 0.0
