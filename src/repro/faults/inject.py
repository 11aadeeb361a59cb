"""Thread fault arms through every I/O surface of a live cluster.

:meth:`FaultInjection.attach` installs one
:class:`~repro.faults.policy.FaultArm` per (surface, node) on the file
store + SSD device (read errors, torn payloads, write stalls), the HDFS
stream (timeouts, transient read failures), the per-node HBM dispatch,
the cluster's collectives, and a stage wrapper that applies per-node
straggler multipliers and stamps the originating stage onto any escaping
:class:`~repro.faults.errors.FaultError`.  :meth:`~FaultInjection.detach`
undoes all of it.

The :class:`FaultInjection` owns the shared incident log — the one
record of every absorbed fault (arms keep no counters).  A
restore replaces nodes of the cluster in place, and
:meth:`~FaultInjection.rearm` arms exactly those — what the supervisor
calls after every partial or full restore (the schedule's streams and
budget carry across the restore, so replayed rounds draw fresh,
deterministic faults).

Quarantine recovery: :class:`CheckpointRecovery` re-materializes the
file of an exhausted SSD read from the cluster's own snapshot chain
(:func:`~repro.ckpt.checkpoint.find_ssd_file`).
"""

from __future__ import annotations

import os

import numpy as np

from repro.ckpt.checkpoint import find_ssd_file
from repro.ckpt.format import CheckpointError
from repro.faults.errors import FaultError
from repro.faults.policy import FaultArm, FaultReport
from repro.faults.schedule import FaultSchedule

__all__ = ["CheckpointRecovery", "FaultInjection"]


class CheckpointRecovery:
    """Re-materialize one node's lost parameter file from a checkpoint.

    Callable as ``(file_id, expected_keys) -> (values or None, nbytes,
    seconds)`` — the quarantine hook a
    :class:`~repro.faults.policy.FaultArm` consults when an SSD read
    exhausts its retries.  ``nbytes`` sums the on-disk sizes of every
    shard the walk read, found or not (the bytes re-read the fault
    report accounts), and ``seconds`` their simulated HDFS transfer.

    The chain is the one ``cluster`` last committed or restored (its
    ``_ckpt_base``), and only when that snapshot lives in ``directory``:
    a newer snapshot another run left in a reused root is never read.
    :func:`~repro.ckpt.checkpoint.find_ssd_file` walks it.
    """

    def __init__(self, directory: str, cluster, node) -> None:
        self.root = os.path.abspath(directory)
        self.cluster = cluster
        self.node = node

    def __call__(self, file_id: int, expected_keys: np.ndarray):
        base = self.cluster._ckpt_base
        if base is None or os.path.dirname(base["directory"]) != self.root:
            return None, 0, 0.0
        try:
            found, sizes = find_ssd_file(base["directory"], self.node, file_id)
        except CheckpointError:
            return None, 0, 0.0
        # One transfer per walk, as a restore prices its shard chain.
        nbytes = sum(sizes)
        seconds = self.node.hdfs.spec.transfer_seconds(nbytes) if sizes else 0.0
        exact = found is not None and bool(np.isin(expected_keys, found[0]).all())
        return (found[1] if exact else None), nbytes, seconds


class FaultInjection:
    """The armed state of one schedule on a cluster.

    ``recovery_directory`` (the supervisor's checkpoint root) is where
    the SSD quarantine looks for the cluster's own snapshot chain; while
    the cluster has committed none there, an exhausted SSD read raises
    :class:`~repro.faults.errors.PayloadLostError`.
    """

    def __init__(self, schedule: FaultSchedule, recovery_directory: str) -> None:
        self.schedule = schedule
        self.recovery_directory = recovery_directory
        #: execution-ordered log of every absorbed fault, shared by all
        #: arms; the supervisor drains and round-stamps it.
        self.incidents: list[FaultReport] = []
        self.cluster = None
        #: per node id: the node object armed, and its stage arm
        self._armed: list = []
        self._stage_arms: list = []

    # ------------------------------------------------------------------
    def _arm(self, ledger, *, surface: str, node: int | None, recovery=None):
        return FaultArm(
            self.schedule,
            ledger,
            surface=surface,
            node=node,
            incidents=self.incidents,
            recovery=recovery,
        )

    def attach(self, cluster) -> "FaultInjection":
        """Install arms on ``cluster``'s surfaces and wrap its stages."""
        if self.cluster is not None:
            raise FaultError(
                "injection is already attached — detach() it first",
                surface="inject",
            )
        self.cluster = cluster
        self._armed = [None] * cluster.n_nodes
        self._stage_arms = [None] * cluster.n_nodes
        self.rearm()
        cluster.wrap_stages(self._wrap)
        return self

    def rearm(self) -> None:
        """Arm every node of the attached cluster this injection has not
        armed yet — all of them on :meth:`attach`, and the ones a restore
        in place replaced since (one after a partial restore, all after
        a full one).  A node's arms charge its own ledger, so a
        replacement's straggler and retry seconds land on it; the
        collectives' arm charges node 0's.  The stage wrappers stay:
        they read the per-node stage arms at call time."""
        cluster = self.cluster
        new = [node for node in cluster.nodes if self._armed[node.node_id] is not node]
        for node in new:
            i = node.node_id
            recovery = CheckpointRecovery(self.recovery_directory, cluster, node)
            ssd_arm = self._arm(node.ledger, surface="ssd", node=i, recovery=recovery)
            node.ssd_ps.store.faults = ssd_arm
            node.ssd_ps.store.device.faults = ssd_arm
            node.hdfs.faults = self._arm(node.ledger, surface="hdfs", node=i)
            node.hbm_ps.faults = self._arm(node.ledger, surface="hbm", node=i)
            self._stage_arms[i] = self._arm(node.ledger, surface="stage", node=i)
            self._armed[i] = node
        if new and new[0].node_id == 0:
            cluster._fault_arm = self._arm(
                cluster.nodes[0].ledger, surface="comm", node=None
            )

    def detach(self) -> None:
        """Unwrap the stages and disarm every surface."""
        cluster = self.cluster
        if cluster is None:
            return
        cluster.unwrap_stages()
        for node in cluster.nodes:
            node.ssd_ps.store.faults = None
            node.ssd_ps.store.device.faults = None
            node.hdfs.faults = None
            node.hbm_ps.faults = None
        cluster._fault_arm = None
        self.cluster = None

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        """Stage wrapper: straggler multipliers + stage-tagging escapes.

        The straggler draw happens per stage invocation per node, after
        the stage's real work: a straggling node stretches the stage by
        ``seconds * (multiplier - 1)`` on the simulated clock (charged
        to ``fault_straggler``), perturbing timing but never values —
        which is exactly why straggler-only schedules stay bit-identical
        to the fault-free twin without any recovery action.
        """

        def wrapped(ctx):
            try:
                seconds = fn(ctx)
            except FaultError as err:
                if err.stage is None:
                    err.stage = name
                raise
            extra = 0.0
            for arm in self._stage_arms:
                extra = max(extra, arm.straggle(name, seconds))
            return seconds + extra

        return wrapped

    # ------------------------------------------------------------------
    def drain_incidents(self) -> list[FaultReport]:
        """Pop (and return) every incident recorded since the last drain."""
        out = list(self.incidents)
        self.incidents.clear()
        return out
