"""Self-healing training supervisor.

:class:`Supervisor` drives a cluster through ``n_rounds`` of training
under a seeded :class:`~repro.faults.schedule.FaultSchedule`, absorbing
whatever escapes the retry layer.  It takes one baseline snapshot and
leaves the cadence to the snapshot stage
(:meth:`~repro.core.cluster.HPSCluster.enable_snapshot_stage`) it
registers on the cluster it drives, with :data:`FULL_EVERY` and
:data:`KEEP_LAST`: however long the run, its root holds at most
``FULL_EVERY + KEEP_LAST - 1`` of its snapshots and a restore walks at
most ``FULL_EVERY``.  Snapshots land on absolute multiples of
``checkpoint_every`` (round 4, 6, … for a run started at round 3 with
cadence 2), and pipelined chunks end on them.  It classifies every escaped
:class:`~repro.faults.errors.FaultError` by its recovery scope and
applies the cheapest safe action:

``retry_round``
    a round-scoped fault (HDFS exhaustion) detected in lockstep mode
    before any durable mutation: discard the round's in-flight
    residency (:meth:`~repro.core.cluster.HPSCluster.abort_round`) and
    re-run the same round — batches are pure functions of the global
    index, so the retry reads identical data;
``partial_restore``
    a node-scoped fault (lost SSD payload, boundary node crash) while
    the survivors sit exactly at the newest checkpoint's round: rebuild
    the one node, zero replay;
``full_restore``
    everything else (global scope, pipelined escapes, node faults away
    from a checkpoint boundary): replace every node in place from the
    newest checkpoint and replay the lost rounds.

Either restore heals the cluster it is driving — the very object handed
to :meth:`Supervisor.run`, whose stage registry (the injection's
wrappers, the snapshot stage) stays as it is — and the injection arms
the nodes the restore replaced
(:meth:`~repro.faults.inject.FaultInjection.rearm`); both go through
:func:`~repro.ckpt.checkpoint.restore_nodes`.

Every node is probed for a ``node_crash`` once per round boundary, so a
scripted crash is the deterministic kill-and-recover experiment: on a
run started at round ``start``, ``script={("node_crash", node, r + 1 -
start): 1}`` kills ``node`` right after round ``r`` (probe ops keep
counting after a restore, so that equality holds up to the first
recovery).

The invariant the soak suite enforces: any schedule whose faults are
all recoverable yields **bit-identical** final parameters to the
fault-free run.  The classification above preserves it by construction
— read/prefetch/prepare mutate only residency (never values), partial
restore rebuilds a node from the round boundary the survivors are at,
and a full restore replays rounds that are pure functions of
``(seed, round_index)``.

Time accounting is all simulated: ``training_seconds`` is productive
round time, ``replay_seconds`` re-trained rounds after a full restore,
``restore_seconds`` checkpoint read-back — the latter two are downtime.
A pipelined chunk's makespan includes its snapshot stage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.ckpt.checkpoint import CheckpointStats, restore_nodes
from repro.ckpt.format import checkpoint_dir_name
from repro.faults.errors import FaultError, UnrecoverableFaultError
from repro.faults.inject import FaultInjection
from repro.faults.policy import FaultIncident, RetryPolicy
from repro.faults.schedule import FaultSchedule

__all__ = ["FULL_EVERY", "KEEP_LAST", "FaultReport", "SupervisedRun", "Supervisor"]

#: The supervised snapshot stage's ``full_every``: a chain a restore
#: walks never holds more members than this.
FULL_EVERY = 8
#: The supervised snapshot stage's ``keep_last``: recovery and SSD
#: quarantine read only the newest chain, so older ones are pruned.
KEEP_LAST = 1


@dataclass(frozen=True)
class FaultReport:
    """One incident the supervisor witnessed, round-stamped.

    ``downtime_seconds`` is the simulated time the incident cost: retry
    backoff + wasted attempts for absorbed faults, restore + replay time
    for escalated ones.
    """

    round: int
    surface: str
    kind: str
    node: int | None
    #: "retried" | "stall" | "straggler" | "quarantine" (absorbed by the
    #: arms) or "retry_round" | "partial_restore" | "full_restore"
    #: (supervisor escalations)
    action: str
    stage: str | None = None
    retries: int = 0
    downtime_seconds: float = 0.0
    replay_rounds: int = 0
    bytes_reread: int = 0


@dataclass
class SupervisedRun:
    """Outcome of one :meth:`Supervisor.run`."""

    #: the cluster that finished the run: the one handed in, which every
    #: restore heals in place
    cluster: object
    reports: tuple[FaultReport, ...]
    stats: list = field(default_factory=list)
    rounds: int = 0
    training_seconds: float = 0.0
    replay_seconds: float = 0.0
    restore_seconds: float = 0.0
    #: every snapshot the run committed, in save order: the baseline,
    #: then what the snapshot stage appended (the last entry is always
    #: the newest restore point)
    checkpoints: list[CheckpointStats] = field(default_factory=list)
    recoveries: int = 0
    totals: dict = field(default_factory=dict)

    @property
    def checkpoint_seconds(self) -> float:
        """Simulated seconds spent taking snapshots."""
        return sum(c.seconds for c in self.checkpoints)

    @property
    def downtime_seconds(self) -> float:
        """Simulated seconds lost to recovery (restores + replay)."""
        return self.restore_seconds + self.replay_seconds

    @property
    def mttr_seconds(self) -> float:
        """Mean time to repair: downtime per escalated recovery."""
        return self.downtime_seconds / max(1, self.recoveries)

    @property
    def downtime_fraction(self) -> float:
        """Downtime over total simulated run time."""
        denom = self.training_seconds + self.downtime_seconds
        return self.downtime_seconds / denom if denom else 0.0


class Supervisor:
    """Checkpoint-cadenced, fault-classifying training driver.

    ``directory`` is the checkpoint root: the baseline snapshot (which
    makes every later fault recoverable) and the stage's bounded
    ``round_<NNNNNN>`` chain, one snapshot at every round boundary
    divisible by ``checkpoint_every`` (an absolute multiple, whatever
    round the run starts at), live there, and the injection
    layer uses it for SSD quarantine re-materialization.
    """

    def __init__(
        self,
        directory: str,
        *,
        checkpoint_every: int = 2,
        policy: RetryPolicy | None = None,
        queue_capacity: int | tuple[int, ...] = 2,
        max_recoveries: int = 32,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if max_recoveries < 1:
            raise ValueError("max_recoveries must be >= 1")
        self.directory = directory
        self.checkpoint_every = checkpoint_every
        self.policy = policy if policy is not None else RetryPolicy()
        self.queue_capacity = queue_capacity
        self.max_recoveries = max_recoveries

    # ------------------------------------------------------------------
    @staticmethod
    def _has_snapshot_stage(cluster) -> bool:
        return any(spec.name == "snapshot" for spec in cluster.stage_specs())

    @staticmethod
    def _stamp(
        incidents: list[FaultIncident], round_index: int
    ) -> list[FaultReport]:
        return [
            FaultReport(
                round=round_index,
                surface=i.surface,
                kind=i.kind,
                node=i.node,
                action=i.action,
                stage=i.stage,
                retries=i.retries,
                downtime_seconds=i.seconds,
                bytes_reread=i.bytes_reread,
            )
            for i in incidents
        ]

    # ------------------------------------------------------------------
    def run(
        self,
        cluster,
        n_rounds: int,
        schedule: FaultSchedule,
        *,
        pipelined: bool = False,
    ) -> SupervisedRun:
        """Train ``n_rounds`` under ``schedule``, healing as needed.

        Returns the :class:`SupervisedRun`; raises
        :class:`~repro.faults.errors.UnrecoverableFaultError` only when
        the recovery budget is exceeded (a fault storm the configured
        ``max_recoveries`` cannot absorb), or ``ValueError`` before
        anything runs when ``cluster`` already has a ``snapshot`` stage.
        """
        if n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        if self._has_snapshot_stage(cluster):
            raise ValueError(
                "cluster already has a 'snapshot' stage — the supervisor "
                "registers its own; unregister_stage('snapshot') first"
            )
        os.makedirs(self.directory, exist_ok=True)
        injection = FaultInjection(
            schedule, self.policy, recovery_directory=self.directory
        )
        injection.attach(cluster)
        out = SupervisedRun(cluster=cluster, reports=())
        reports: list[FaultReport] = []
        base = cluster.rounds_completed
        target = base + n_rounds
        every = self.checkpoint_every
        #: rounds below this mark were already trained once — re-running
        #: them after a full restore is replay (downtime), not progress.
        replaying_until = base
        round_retries = 0
        try:
            baseline = os.path.join(self.directory, checkpoint_dir_name(base))
            out.checkpoints.append(cluster.save_checkpoint(baseline, mode="auto"))
            # After the injection attached, so the straggler wrapper
            # leaves the stage (and the fault draws) alone.
            stage = cluster.enable_snapshot_stage(
                self.directory,
                every=self.checkpoint_every,
                full_every=FULL_EVERY,
                keep_last=KEEP_LAST,
            )
            stage.history = out.checkpoints
            while cluster.rounds_completed < target:
                rc = cluster.rounds_completed
                crashed = [
                    node.node_id
                    for node in cluster.nodes
                    if schedule.draw("node_crash", node.node_id) > 0
                ]
                if crashed:
                    replaying_until = self._recover_crash(
                        cluster, injection, crashed, out, reports, replaying_until
                    )
                    continue
                try:
                    if pipelined:
                        # Chunks end on cadence points, so a chunk's last
                        # stage is the snapshot a later restore starts from.
                        chunk = min(every - rc % every, target - rc)
                        run = cluster.train_pipelined(
                            chunk, queue_capacity=self.queue_capacity
                        )
                        out.stats.extend(run.stats)
                        n_replayed = max(0, min(replaying_until, rc + chunk) - rc)
                        frac = n_replayed / chunk
                        out.replay_seconds += run.makespan * frac
                        out.training_seconds += run.makespan * (1.0 - frac)
                    else:
                        stats = cluster.train_round()
                        out.stats.append(stats)
                        seconds = sum(stats.pipeline_stage_seconds)
                        if rc < replaying_until:
                            out.replay_seconds += seconds
                        else:
                            out.training_seconds += seconds
                    round_retries = 0
                except FaultError as err:
                    reports.extend(self._stamp(injection.drain_incidents(), rc))
                    replaying_until, round_retries = self._recover(
                        cluster,
                        injection,
                        err,
                        pipelined,
                        out,
                        reports,
                        replaying_until,
                        round_retries,
                    )
                    continue
                reports.extend(
                    self._stamp(
                        injection.drain_incidents(), cluster.rounds_completed
                    )
                )
        finally:
            injection.detach()
            if self._has_snapshot_stage(cluster):
                cluster.unregister_stage("snapshot")
            out.reports = tuple(reports)
            out.rounds = cluster.rounds_completed - base
            out.totals = injection.totals()
        return out

    # ------------------------------------------------------------------
    def _spend_recovery(self, out: SupervisedRun, err: Exception | None) -> None:
        out.recoveries += 1
        if out.recoveries > self.max_recoveries:
            raise UnrecoverableFaultError(
                f"recovery budget exhausted after {self.max_recoveries} "
                "escalations — the schedule's fault storm is not "
                "survivable at this cadence",
                surface="supervisor",
            ) from err

    @staticmethod
    def _restore(cluster, injection: FaultInjection, directory: str, node_ids):
        """Replace ``node_ids`` in place from the snapshot in ``directory``
        and arm the replacements; returns the restore's
        :class:`~repro.ckpt.checkpoint.CheckpointStats`.  Its cost is this
        read-back's critical path — not the ledgers' ``ckpt_read`` total,
        which carries the snapshot's cost history, earlier restores
        included."""
        stats = restore_nodes(cluster, directory, node_ids)
        injection.rearm()
        return stats

    def _full_restore(
        self, cluster, injection: FaultInjection, out: SupervisedRun
    ) -> tuple[float, int]:
        """Rewind every node to the newest checkpoint; returns
        ``(restore_seconds, replay_rounds)``."""
        detect = cluster.rounds_completed
        newest = out.checkpoints[-1]
        stats = self._restore(
            cluster, injection, newest.directory, range(cluster.n_nodes)
        )
        return stats.seconds, max(0, detect - newest.rounds_completed)

    def _recover_crash(
        self,
        cluster,
        injection: FaultInjection,
        crashed: list[int],
        out: SupervisedRun,
        reports: list[FaultReport],
        replaying_until: int,
    ):
        """Boundary node-crash probe fired: heal before training resumes."""
        self._spend_recovery(out, None)
        rc = cluster.rounds_completed
        newest = out.checkpoints[-1]
        if len(crashed) == 1 and newest.rounds_completed == rc:
            stats = self._restore(cluster, injection, newest.directory, crashed)
            out.restore_seconds += stats.seconds
            reports.append(
                FaultReport(
                    round=rc,
                    surface="node",
                    kind="node_crash",
                    node=crashed[0],
                    action="partial_restore",
                    downtime_seconds=stats.seconds,
                )
            )
            return replaying_until
        seconds, replay = self._full_restore(cluster, injection, out)
        out.restore_seconds += seconds
        replaying_until = max(replaying_until, rc)
        reports.append(
            FaultReport(
                round=rc,
                surface="node",
                kind="node_crash",
                node=crashed[0] if len(crashed) == 1 else None,
                action="full_restore",
                downtime_seconds=seconds,
                replay_rounds=replay,
            )
        )
        return replaying_until

    def _recover(
        self,
        cluster,
        injection: FaultInjection,
        err: FaultError,
        pipelined: bool,
        out: SupervisedRun,
        reports: list[FaultReport],
        replaying_until: int,
        round_retries: int,
    ):
        """Classify an escaped fault and apply the cheapest safe action."""
        self._spend_recovery(out, err)
        detect = cluster.rounds_completed
        newest = out.checkpoints[-1]
        retries = getattr(err, "retries", 0)

        if (
            err.scope == "round"
            and not pipelined
            and cluster._staged_rounds == 0
            and round_retries < self.policy.max_round_retries
        ):
            # Round inputs are suspect but nothing durable moved: the
            # round's residency is discarded and the identical round
            # re-runs (batches are pure functions of the global index).
            cluster.abort_round()
            reports.append(
                FaultReport(
                    round=detect,
                    surface=err.surface or "unknown",
                    kind=err.kind or "unknown",
                    node=err.node,
                    action="retry_round",
                    stage=err.stage,
                    retries=retries,
                )
            )
            return replaying_until, round_retries + 1

        if (
            err.scope == "node"
            and err.node is not None
            and not pipelined
            and cluster._staged_rounds == 0
            and err.stage in ("read", "prefetch", "prepare")
            and newest.rounds_completed == detect
        ):
            # One node's durable state is suspect, the survivors sit
            # exactly at the newest snapshot's round boundary, and no
            # values were staged: heal just that node, zero replay.
            cluster.abort_round()
            stats = self._restore(cluster, injection, newest.directory, [err.node])
            out.restore_seconds += stats.seconds
            reports.append(
                FaultReport(
                    round=detect,
                    surface=err.surface or "unknown",
                    kind=err.kind or "unknown",
                    node=err.node,
                    action="partial_restore",
                    stage=err.stage,
                    retries=retries,
                    downtime_seconds=stats.seconds,
                )
            )
            return replaying_until, 0

        seconds, replay = self._full_restore(cluster, injection, out)
        out.restore_seconds += seconds
        replaying_until = max(replaying_until, detect)
        reports.append(
            FaultReport(
                round=detect,
                surface=err.surface or "unknown",
                kind=err.kind or "unknown",
                node=err.node,
                action="full_restore",
                stage=err.stage,
                retries=retries,
                downtime_seconds=seconds,
                replay_rounds=replay,
            )
        )
        return replaying_until, 0
