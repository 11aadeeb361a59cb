"""The pipeline clock (paper Section 3 + Appendix B).

Algorithm 1's time-consuming tasks map to independent hardware
resources — HDFS read, MEM/SSD prepare, CPU partition + HBM load, GPU
train — and each stage hands rounds to the next through a bounded
prefetch queue.  The schedule is one rule: each stage's resource serves
rounds in order, a round moves through the stages in order, and a stage
stalls while the next stage's queue is full.

So the overlapped clock is a pure function of the measured stage-time
matrix: :func:`schedule` threads ``stage_times[b, s]`` through that rule
and returns the :class:`PipelineSchedule` every clock query reads.  The
steady-state round latency is the *bottleneck* stage, which is how the
paper hides I/O behind GPU compute (and why Fig. 3(c)'s tallest bar is
the whole story).  The clock prices the work; it does not order it —
the cluster's round loop runs every stage of round ``b`` before any
stage of round ``b + 1``.  :class:`StageSpec` is the one stage record
the cluster's registry holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "PipelineSchedule",
    "StageSpec",
    "queue_capacities",
    "schedule",
    "stage_duration",
]


@dataclass(frozen=True)
class StageSpec:
    """One registered pipeline stage: ``fn(ctx)`` performs one round's
    work for the stage and returns its simulated seconds."""

    name: str
    fn: Callable[[Any], float]


def stage_duration(seconds: float, name: str, round_index: int) -> float:
    """``seconds`` as a float; ``ValueError`` naming the stage when it is
    NaN, infinite or negative (a clock cannot run on it)."""
    d = float(seconds)
    if not math.isfinite(d) or d < 0:
        raise ValueError(
            f"stage {name!r} returned invalid duration {d!r} for round "
            f"{round_index}"
        )
    return d


def queue_capacities(
    queue_capacity: int | Sequence[int], n_stages: int
) -> tuple[int, ...]:
    """One prefetch-queue depth per stage boundary (an int sets them all).

    Depth ``q`` means stage ``s`` cannot start round ``b`` before stage
    ``s + 1`` has *started* round ``b - q`` (its queue would be full
    otherwise).  The paper pre-sets depths per stage-time ratios; 2 is
    enough to decouple adjacent stages in steady state.
    """
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if isinstance(queue_capacity, int):
        caps = (queue_capacity,) * (n_stages - 1)
    else:
        caps = tuple(queue_capacity)
    if len(caps) != n_stages - 1:
        raise ValueError("need one queue capacity per stage boundary")
    if any(c < 1 for c in caps):
        raise ValueError("queue capacities must be >= 1")
    return caps


def schedule(
    stage_times: np.ndarray,
    *,
    queue_capacity: int | Sequence[int] = 2,
    stage_names: Sequence[str],
) -> PipelineSchedule:
    """The overlapped clock of ``stage_times[b, s]`` (seconds per round
    per stage).

    Event ``(b, s)`` starts at the earliest time its three constraints
    allow:

    1. *stage precedence* — round ``b`` leaves stage ``s - 1`` first;
    2. *resource serialization* — stage ``s`` finishes round ``b - 1``
       first (one round at a time per resource, in round order);
    3. *bounded prefetch queues* — stage ``s + 1`` has started round
       ``b - q`` (``q`` the depth of the queue between them).

    Round-major order fills every referenced event before it is read;
    the result is the unique fixpoint of the constraints.
    """
    names = tuple(stage_names)
    caps = queue_capacities(queue_capacity, len(names))
    st = np.asarray(stage_times, dtype=np.float64)
    if st.ndim != 2 or st.shape[1] != len(names):
        raise ValueError(f"stage_times must be (n_rounds, {len(names)})")
    n, n_stages = st.shape
    start = np.zeros((n, n_stages))
    finish = np.zeros((n, n_stages))
    for b in range(n):
        for s in range(n_stages):
            d = stage_duration(st[b, s], names[s], b)
            t = 0.0
            if s > 0:
                t = max(t, finish[b, s - 1])
            if b > 0:
                t = max(t, finish[b - 1, s])
            if s < n_stages - 1 and b - caps[s] >= 0:
                t = max(t, start[b - caps[s], s + 1])
            start[b, s] = t
            finish[b, s] = t + d
    return PipelineSchedule(start, finish, st, names)


@dataclass(frozen=True)
class PipelineSchedule:
    """One run's overlapped clock.

    ``start[b, s]`` / ``finish[b, s]`` are the times round ``b`` enters
    and leaves stage ``s``; ``stage_times[b, s]`` the durations they were
    computed from (:func:`schedule`).
    """

    start: np.ndarray
    finish: np.ndarray
    stage_times: np.ndarray
    stage_names: tuple[str, ...]

    @property
    def n_batches(self) -> int:
        return self.start.shape[0]

    @property
    def makespan(self) -> float:
        """Total time to drain every round through every stage."""
        return float(self.finish[-1, -1]) if self.n_batches else 0.0

    @property
    def serial_makespan(self) -> float:
        """Makespan had the stages run back-to-back with no overlap."""
        return float(self.stage_times.sum())

    @property
    def speedup(self) -> float:
        """Serial / pipelined makespan (>= 1; > 1 whenever overlap helps)."""
        return self.serial_makespan / self.makespan if self.makespan else 1.0

    @property
    def steady_state_interval(self) -> float:
        """Average inter-round completion interval after pipeline fill."""
        if self.n_batches < 2:
            return self.makespan
        completions = self.finish[:, -1]
        skip = min(self.n_batches - 2, max(1, self.n_batches // 4))
        deltas = np.diff(completions[skip:])
        return float(deltas.mean()) if deltas.size else self.makespan

    def stage_busy_time(self, stage: int) -> float:
        return float((self.finish[:, stage] - self.start[:, stage]).sum())

    def bottleneck_stage(self) -> int:
        """Index of the stage with the largest total busy time."""
        return int(
            np.argmax([self.stage_busy_time(s) for s in range(len(self.stage_names))])
        )

    def queue_stall_seconds(self, stage: int) -> float:
        """Total time ``stage`` spent blocked on downstream backpressure.

        The stall of event ``(b, s)`` attributable to the prefetch queue is
        the gap between its start and the latest of its precedence /
        serialization constraints — any remainder exists only because the
        downstream queue was full.
        """
        start, finish = self.start, self.finish
        total = 0.0
        for b in range(self.n_batches):
            unqueued = 0.0
            if stage > 0:
                unqueued = max(unqueued, finish[b, stage - 1])
            if b > 0:
                unqueued = max(unqueued, finish[b - 1, stage])
            total += float(start[b, stage]) - unqueued
        return total

    def shadow_idle_seconds(self, stage: int) -> float:
        """Idle time on ``stage``'s resource inside its own busy span.

        Events on one stage are serialized, so the gaps between
        consecutive events are the pipeline *shadow* — capacity available
        without extending the makespan.
        """
        if self.n_batches == 0:
            return 0.0
        span = float(self.finish[-1, stage]) - float(self.start[0, stage])
        return max(0.0, span - self.stage_busy_time(stage))
