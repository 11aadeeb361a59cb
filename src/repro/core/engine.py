"""Discrete-event pipelined executor for Algorithm 1 (paper Section 3).

:class:`~repro.core.pipeline.PipelineSimulator` *computes* a schedule from
pre-recorded stage durations; this module *executes* one.  Each pipeline
stage is a closure that performs real work against :class:`HPSNode` state
(streaming a batch from HDFS, preparing MEM/SSD parameters, staging the
HBM working set, training) and reports its simulated duration.  The engine
discovers stage durations by firing those closures event by event and
threads the results through exactly the same three constraints as the
simulator — stage precedence, per-resource serialization, and bounded
prefetch queues — via the shared :func:`~repro.core.pipeline.earliest_start`
recurrence, so an engine run and a simulator run over the same durations
produce bit-identical schedules.

Execution order vs. simulated time
----------------------------------
The paper's pipeline overlaps batches across *hardware resources*: batch
``b + 1`` streams from HDFS while batch ``b`` trains.  The arithmetic of
training, however, is kept identical to lockstep execution — the paper
pins in-flight parameters so a batch's prepare stage observes the previous
batch's write-back (Section 5).  The engine reproduces that discipline by
firing closures in canonical batch-major dependency order (every stage of
batch ``b`` before any stage of batch ``b + 1``) while the *simulated
clock* overlaps them; the computed schedule is the unique fixpoint of the
constraint system, independent of processing order.  This is what makes
pipelined training bit-identical to lockstep: the real work is the same
work in the same order, only the clock model differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.pipeline import PipelineSchedule, earliest_start

__all__ = ["PipelinedEngine", "StageDef", "EngineRun", "StageEvent"]


@dataclass(frozen=True)
class StageDef:
    """One pipeline stage: a name, an executable closure, and effects.

    ``fn(batch_index)`` performs the stage's real work for one batch and
    returns its simulated duration in seconds.  ``reads`` / ``writes``
    declare the named resources the closure may touch (the effect
    vocabulary of :mod:`repro.analysis.effects`); the engine schedules
    stages of *different* batches concurrently on the simulated clock,
    so two stages whose effect sets conflict may only be registered
    together under an explicit
    :class:`~repro.analysis.effects.OverlapContract` — see
    :func:`~repro.analysis.effects.check_stage_conflicts`, which
    :meth:`~repro.core.cluster.HPSCluster.train_pipelined` runs over the
    registered stage set before every pipelined run.  Empty effect sets
    mean "touches nothing shared" and conflict with nothing.
    """

    name: str
    fn: Callable[[int], float]
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()


@dataclass(frozen=True)
class StageEvent:
    """One fired event: batch ``b`` occupying stage ``s`` on the clock."""

    batch: int
    stage: int
    name: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class EngineRun:
    """Everything one :meth:`PipelinedEngine.run` produced.

    ``schedule`` is the overlapped clock; ``stage_times[b, s]`` the
    measured duration of each fired closure; ``execution_order`` the
    wall-clock order closures actually ran in (always batch-major — the
    parity guarantee).
    """

    schedule: PipelineSchedule
    stage_times: np.ndarray
    execution_order: tuple[tuple[int, int], ...] = field(default=())

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def serial_makespan(self) -> float:
        """Makespan had the stages run back-to-back with no overlap."""
        return float(self.stage_times.sum())

    @property
    def speedup(self) -> float:
        """Serial / pipelined makespan (>= 1; > 1 whenever overlap helps)."""
        return self.serial_makespan / self.makespan if self.makespan else 1.0

    def events(self) -> list[StageEvent]:
        """Fired events sorted by simulated start time (the event trace)."""
        names = self.schedule.stage_names
        evs = [
            StageEvent(
                b,
                s,
                names[s],
                float(self.schedule.start[b, s]),
                float(self.schedule.finish[b, s]),
            )
            for b in range(self.schedule.start.shape[0])
            for s in range(self.schedule.start.shape[1])
        ]
        evs.sort(key=lambda e: (e.start, e.batch, e.stage))
        return evs

    def queue_stall_seconds(self, stage: int) -> float:
        """Total time ``stage`` spent blocked on downstream backpressure.

        The stall of event ``(b, s)`` attributable to the prefetch queue is
        the gap between its start and the latest of its precedence /
        serialization constraints — any remainder exists only because the
        downstream queue was full.
        """
        start, finish = self.schedule.start, self.schedule.finish
        n = start.shape[0]
        total = 0.0
        for b in range(n):
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
        start, finish = self.schedule.start, self.schedule.finish
        if start.shape[0] == 0:
            return 0.0
        span = float(finish[-1, stage]) - float(start[0, stage])
        busy = float((finish[:, stage] - start[:, stage]).sum())
        return max(0.0, span - busy)


class PipelinedEngine:
    """Executes stage closures under prefetch-pipeline semantics.

    Parameters
    ----------
    stages:
        The pipeline's stages in order, e.g. the four Algorithm 1 stages
        (HDFS read -> MEM/SSD prepare -> CPU partition + HBM load ->
        GPU train/sync/writeback).
    queue_capacity:
        Prefetch-queue depth per stage boundary, as in
        :class:`~repro.core.pipeline.PipelineSimulator`: depth ``q`` means
        stage ``s`` cannot start batch ``b`` before stage ``s + 1`` started
        batch ``b - q``.
    """

    def __init__(
        self,
        stages: Sequence[StageDef],
        *,
        queue_capacity: int | tuple[int, ...] = 2,
    ) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        self.stages = tuple(stages)
        n_stages = len(self.stages)
        if isinstance(queue_capacity, int):
            caps = (queue_capacity,) * max(0, n_stages - 1)
        else:
            caps = tuple(queue_capacity)
        if len(caps) != n_stages - 1:
            raise ValueError("need one queue capacity per stage boundary")
        if any(c < 1 for c in caps):
            raise ValueError("queue capacities must be >= 1")
        self.queue_capacity = caps

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(st.name for st in self.stages)

    def run(self, n_batches: int) -> EngineRun:
        """Drive ``n_batches`` through every stage; returns the run record.

        Closures fire in batch-major dependency order (see module
        docstring); each returned duration immediately extends the
        overlapped schedule through the shared recurrence.
        """
        if n_batches < 0:
            raise ValueError("n_batches must be non-negative")
        n, S = n_batches, self.n_stages
        start = np.zeros((n, S))
        finish = np.zeros((n, S))
        stage_times = np.zeros((n, S))
        order: list[tuple[int, int]] = []
        for b in range(n):
            for s in range(S):
                duration = float(self.stages[s].fn(b))
                if not np.isfinite(duration) or duration < 0:
                    raise ValueError(
                        f"stage '{self.stages[s].name}' returned invalid "
                        f"duration {duration!r} for batch {b}"
                    )
                order.append((b, s))
                stage_times[b, s] = duration
                t = earliest_start(start, finish, b, s, self.queue_capacity)
                start[b, s] = t
                finish[b, s] = t + duration
        schedule = PipelineSchedule(start, finish, self.stage_names)
        return EngineRun(schedule, stage_times, tuple(order))
