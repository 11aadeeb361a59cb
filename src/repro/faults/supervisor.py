"""Self-healing training supervisor.

:class:`Supervisor` drives a cluster through ``n_rounds`` of training
under a seeded :class:`~repro.faults.schedule.FaultSchedule`, absorbing
whatever escapes the retry layer.

**Snapshots.**  It attaches the injection, takes one baseline snapshot
(``mode="auto"``) and then registers the snapshot stage
(:meth:`~repro.core.cluster.HPSCluster.enable_snapshot_stage`) on the
cluster it drives, with :data:`FULL_EVERY` and :data:`KEEP_LAST` —
after the injection, so the straggler wrapper never wraps the stage and
the fault draws are those of a stage-free registry.  Snapshots land on
absolute multiples of ``checkpoint_every`` (round 4, 6, … for a run
started at round 3 with cadence 2), and pipelined chunks end on them; a
chunk's makespan includes its snapshot stage.  Recovery and SSD
quarantine read only the newest chain, so however long the run, its
root holds at most ``FULL_EVERY + KEEP_LAST - 1`` of its snapshots and
a restore walks at most ``FULL_EVERY``.  The stage is unregistered in
the same ``finally`` that detaches the injection; a cluster handed in
with a ``snapshot`` stage of its own is refused before training.

**One recovery decision.**  Every incident reaches :meth:`Supervisor._recover`
as a :class:`~repro.faults.errors.FaultError`: whatever escapes the
arms, and the boundary crash probe — every node is probed for a
``node_crash`` before each round (or pipelined chunk), and a crash
raises with scope ``"node"`` for one dead node, ``"global"`` for
several.  Whenever no round is staged in HBM the round's in-flight
residency is discarded
(:meth:`~repro.core.cluster.HPSCluster.abort_round`); then the cheapest
safe action applies:

``retry_round``
    round scope (HDFS exhaustion), lockstep, nothing staged, and the
    round's retry budget (:data:`~repro.faults.policy.MAX_ROUND_RETRIES`)
    not spent: re-run the same round — batches are pure functions of
    the global index, so the retry reads identical data;
``partial_restore``
    node scope, nothing staged, and the newest snapshot taken at the
    detection round: rebuild the one node, zero replay;
``full_restore``
    everything else: replace every node from the newest snapshot and
    replay the lost rounds.

A round's retry budget resets after every restore.  Either restore heals
the cluster it is driving — the very object handed to
:meth:`Supervisor.run`, whose stage registry (the injection's wrappers,
the snapshot stage) stays as it is — through
:func:`~repro.ckpt.checkpoint.restore_nodes`, and the injection arms the
nodes the restore replaced
(:meth:`~repro.faults.inject.FaultInjection.rearm`), so a replacement's
SSD, HDFS, HBM and straggler arms charge its own ledger.  Every
escalation is one :class:`~repro.faults.policy.FaultReport` (detection
round, action, downtime seconds, replayed rounds, and the retries and
re-read bytes the escaped fault carries); more than
:data:`MAX_RECOVERIES` of them raise
:class:`~repro.faults.errors.UnrecoverableFaultError`.  The reports are
the run's one record of its faults: :class:`SupervisedRun`'s retries and
re-read bytes are sums over them.

A scripted crash is the deterministic kill-and-recover experiment: on a
run started at round ``start``, ``script={("node_crash", node, r + 1 -
start): 1}`` kills ``node`` right after round ``r`` (probe ops keep
counting after a restore, so that equality holds up to the first
recovery).

The invariant the soak suite enforces: any schedule whose faults are
all recoverable yields **bit-identical** final parameters to the
fault-free run.  The rule preserves it by construction — read/prefetch/
prepare mutate only residency (never values), a partial restore
rebuilds a node from the round boundary the survivors are at, and a full
restore replays rounds that are pure functions of ``(seed,
round_index)``.

Time accounting is all simulated: ``training_seconds`` is productive
round time, ``replay_seconds`` re-trained rounds after a full restore,
``restore_seconds`` checkpoint read-back — the latter two are downtime.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.ckpt.checkpoint import CheckpointStats, restore_nodes
from repro.ckpt.format import checkpoint_dir_name
from repro.faults.errors import FaultError, UnrecoverableFaultError
from repro.faults.inject import FaultInjection
from repro.faults.policy import MAX_ROUND_RETRIES, FaultReport
from repro.faults.schedule import FaultSchedule

__all__ = ["FULL_EVERY", "KEEP_LAST", "FaultReport", "SupervisedRun", "Supervisor"]

#: The supervised snapshot stage's ``full_every``: a chain a restore
#: walks never holds more members than this.
FULL_EVERY = 8
#: The supervised snapshot stage's ``keep_last``: recovery and SSD
#: quarantine read only the newest chain, so older ones are pruned.
KEEP_LAST = 1
#: Escalations one run survives; the next raises
#: :class:`~repro.faults.errors.UnrecoverableFaultError`.
MAX_RECOVERIES = 32


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
    #: faults the schedule fired (its own count, budget-bounded)
    faults_fired: int = 0

    @property
    def retries(self) -> int:
        """Retries priced for every fault of the run, absorbed or escaped."""
        return sum(r.retries for r in self.reports)

    @property
    def bytes_reread(self) -> int:
        """Checkpoint bytes the run's SSD quarantines re-read, whether
        they found the file or escalated its loss."""
        return sum(r.bytes_reread for r in self.reports)

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

    def __init__(self, directory: str, *, checkpoint_every: int = 2) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.root = directory
        self.checkpoint_every = checkpoint_every

    # ------------------------------------------------------------------
    @staticmethod
    def _has_snapshot_stage(cluster) -> bool:
        return any(name == "snapshot" for name, _ in cluster.stage_functions())

    @staticmethod
    def _probe_crash(cluster, schedule: FaultSchedule) -> None:
        """Draw every node's ``node_crash`` at this round boundary; raise
        the crash as a :class:`FaultError` — node scope for one dead
        node, global for several."""
        crashed = [
            node.node_id
            for node in cluster.nodes
            if schedule.draw("node_crash", node.node_id) > 0
        ]
        if crashed:
            raise FaultError(
                f"node(s) {crashed} crashed after round {cluster.rounds_completed}",
                surface="node",
                kind="node_crash",
                node=crashed[0] if len(crashed) == 1 else None,
                scope="node" if len(crashed) == 1 else "global",
            )

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
        the recovery budget is exceeded (a fault storm
        :data:`MAX_RECOVERIES` escalations cannot absorb), or
        ``ValueError`` before anything runs when ``cluster`` already has
        a ``snapshot`` stage.
        """
        if n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        if self._has_snapshot_stage(cluster):
            raise ValueError(
                "cluster already has a 'snapshot' stage — the supervisor "
                "registers its own; unregister_stage('snapshot') first"
            )
        os.makedirs(self.root, exist_ok=True)
        injection = FaultInjection(schedule, self.root)
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
            baseline = os.path.join(self.root, checkpoint_dir_name(base))
            out.checkpoints.append(cluster.save_checkpoint(baseline, mode="auto"))
            # After the injection attached, so the straggler wrapper
            # leaves the stage (and the fault draws) alone.
            stage = cluster.enable_snapshot_stage(
                self.root,
                every=self.checkpoint_every,
                full_every=FULL_EVERY,
                keep_last=KEEP_LAST,
            )
            stage.history = out.checkpoints
            while cluster.rounds_completed < target:
                rc = cluster.rounds_completed
                try:
                    self._probe_crash(cluster, schedule)
                    if pipelined:
                        # Chunks end on cadence points, so a chunk's last
                        # stage is the snapshot a later restore starts from.
                        chunk = min(every - rc % every, target - rc)
                        run = cluster.train_pipelined(chunk)
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
                    reports.extend(
                        replace(r, round=rc) for r in injection.drain_incidents()
                    )
                    report = self._recover(
                        cluster, injection, err, pipelined, out, round_retries
                    )
                    reports.append(report)
                    retried = report.action == "retry_round"
                    round_retries = round_retries + 1 if retried else 0
                    if report.action == "full_restore":
                        replaying_until = max(replaying_until, report.round)
                    continue
                reports.extend(
                    replace(r, round=cluster.rounds_completed)
                    for r in injection.drain_incidents()
                )
        finally:
            injection.detach()
            if self._has_snapshot_stage(cluster):
                cluster.unregister_stage("snapshot")
            out.reports = tuple(reports)
            out.rounds = cluster.rounds_completed - base
            out.faults_fired = schedule.faults_fired
        return out

    # ------------------------------------------------------------------
    def _recover(
        self,
        cluster,
        injection: FaultInjection,
        err: FaultError,
        pipelined: bool,
        out: SupervisedRun,
        round_retries: int,
    ) -> FaultReport:
        """Apply the cheapest safe action for ``err`` (the module
        docstring's one rule); returns its report."""
        out.recoveries += 1
        if out.recoveries > MAX_RECOVERIES:
            raise UnrecoverableFaultError(
                f"recovery budget exhausted after {MAX_RECOVERIES} "
                "escalations — the schedule's fault storm is not "
                "survivable at this cadence",
                surface="supervisor",
            ) from err
        detect = cluster.rounds_completed
        newest = out.checkpoints[-1]
        staged = cluster._staged_rounds > 0
        if not staged:
            # Residency only — values change at write-back — so the
            # boundary is value-exact again.
            cluster.abort_round()
        if (
            err.scope == "round"
            and not pipelined
            and not staged
            and round_retries < MAX_ROUND_RETRIES
        ):
            action, node_ids = "retry_round", []
        elif err.scope == "node" and not staged and newest.rounds_completed == detect:
            action, node_ids = "partial_restore", [err.node]
        else:
            action, node_ids = "full_restore", range(cluster.n_nodes)
        seconds = 0.0
        if node_ids:
            # The restore's own read-back — not the ledgers' ``ckpt_read``
            # total, which carries the snapshot's cost history.
            seconds = restore_nodes(cluster, newest.directory, node_ids).seconds
            injection.rearm()
            out.restore_seconds += seconds
        return FaultReport(
            round=detect,
            surface=err.surface or "unknown",
            kind=err.kind or "unknown",
            node=err.node,
            action=action,
            stage=err.stage,
            retries=err.retries,
            downtime_seconds=seconds,
            bytes_reread=err.bytes_reread,
            replay_rounds=(
                detect - newest.rounds_completed if action == "full_restore" else 0
            ),
        )
