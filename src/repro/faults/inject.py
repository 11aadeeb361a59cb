"""Thread fault arms through every I/O surface of a live cluster.

:func:`inject_faults` installs one :class:`~repro.faults.policy.FaultArm`
per (surface, node) on the file store + SSD device (read errors, torn
payloads, write stalls), the HDFS stream (timeouts, transient read
failures), the per-node HBM dispatch, the cluster's collectives, and a
stage wrapper that applies per-node straggler multipliers and stamps the
originating stage onto any escaping
:class:`~repro.faults.errors.FaultError`.  :func:`clear_faults` undoes
all of it.

The returned :class:`FaultInjection` owns the shared incident log and
can re-:meth:`~FaultInjection.attach` the same schedule/policy to a
*different* cluster object — exactly what the supervisor needs after a
full restore replaces the cluster mid-run (the schedule's streams and
budget carry across the restore, so replayed rounds draw fresh,
deterministic faults).

Quarantine recovery: parameter files are immutable and their ids are
never reused, so any file that predates the cluster's last committed
(or restored) snapshot has its exact payload in that snapshot chain's
SSD exports (a full member packs every file; a delta member packs the
files at or above its base watermark — walking the chain newest-first
finds at most one copy, always exact).  :class:`CheckpointRecovery`
resolves that copy, digest-verified, and prices the re-read as an HDFS
transfer on the ``fault_retry`` line.
"""

from __future__ import annotations

import os

import numpy as np

from repro.ckpt.format import (
    CheckpointError,
    node_shard_name,
    resolve_chain,
    verify_shard,
)
from repro.faults.errors import FaultError
from repro.faults.policy import FaultArm, FaultIncident, RetryPolicy
from repro.faults.schedule import FaultSchedule

__all__ = [
    "CheckpointRecovery",
    "FaultInjection",
    "clear_faults",
    "inject_faults",
]


class CheckpointRecovery:
    """Re-materialize one node's lost parameter file from a checkpoint.

    Callable as ``(file_id, expected_keys) -> (values, nbytes, seconds)
    or None`` — the quarantine hook a
    :class:`~repro.faults.policy.FaultArm` consults when an SSD read
    exhausts its retries.  ``seconds`` is the simulated HDFS transfer
    time of the shard holding the payload; ``nbytes`` its on-disk size
    (the bytes re-read the fault report accounts).

    The chain is the one ``cluster`` last committed or restored (its
    ``_ckpt_base``), and only when that snapshot lives in ``directory``:
    a newer snapshot another run left in a reused root is never read.
    """

    def __init__(self, directory: str, cluster, node) -> None:
        self.directory = os.path.abspath(directory)
        self.cluster = cluster
        self.node = node

    def __call__(self, file_id: int, expected_keys: np.ndarray):
        base = self.cluster._ckpt_base
        if base is None or os.path.dirname(base["directory"]) != self.directory:
            return None
        try:
            chain = resolve_chain(base["directory"])
        except CheckpointError:
            return None
        shard = node_shard_name(self.node.node_id)
        # Newest-first: a delta member supersedes its base for any file
        # it packs, and immutability makes every packed copy exact.
        for member_dir, manifest in reversed(chain):
            digest = manifest.get("shards", {}).get(shard)
            if digest is None:
                continue
            try:
                path = verify_shard(member_dir, shard, digest)
            except CheckpointError:
                continue
            found = self._payload_in_shard(path, file_id, expected_keys)
            if found is not None:
                values, nbytes = found
                return values, nbytes, self.node.hdfs.transfer_seconds(nbytes)
        return None

    @staticmethod
    def _payload_in_shard(path: str, file_id: int, expected_keys: np.ndarray):
        with np.load(path) as z:
            if "ssd_file_ids" not in z.files:
                return None
            pos = np.flatnonzero(z["ssd_file_ids"] == int(file_id))
            if pos.size == 0:
                return None
            offsets = z["ssd_file_offsets"]
            lo, hi = int(offsets[int(pos[0])]), int(offsets[int(pos[0]) + 1])
            keys = z["ssd_file_keys"][lo:hi]
            values = np.asarray(z["ssd_file_values"][lo:hi], dtype=np.float32)
        if not np.array_equal(keys, np.asarray(expected_keys)):
            return None
        return values, int(os.path.getsize(path))


class FaultInjection:
    """The armed state of one schedule/policy pair on a cluster."""

    def __init__(
        self,
        schedule: FaultSchedule,
        policy: RetryPolicy,
        *,
        recovery_directory: str | None = None,
    ) -> None:
        self.schedule = schedule
        self.policy = policy
        self.recovery_directory = recovery_directory
        #: execution-ordered log of every absorbed fault, shared by all
        #: arms; the supervisor drains and round-stamps it.
        self.incidents: list[FaultIncident] = []
        #: every arm ever attached (kept across re-attach so totals
        #: account the pre-restore cluster's retry work too).
        self.arms: list[FaultArm] = []
        self.cluster = None
        self._stage_arms: list[FaultArm] = []

    # ------------------------------------------------------------------
    def _arm(self, ledger, *, surface: str, node: int | None, recovery=None):
        arm = FaultArm(
            self.schedule,
            self.policy,
            ledger,
            surface=surface,
            node=node,
            incidents=self.incidents,
            recovery=recovery,
        )
        self.arms.append(arm)
        return arm

    def attach(self, cluster) -> "FaultInjection":
        """Install arms on ``cluster``'s surfaces and wrap its stages."""
        if self.cluster is not None:
            raise FaultError(
                "injection is already attached — detach() it first",
                surface="inject",
            )
        self._stage_arms = []
        for node in cluster.nodes:
            recovery = (
                CheckpointRecovery(self.recovery_directory, cluster, node)
                if self.recovery_directory is not None
                else None
            )
            ssd_arm = self._arm(
                node.ledger,
                surface="ssd",
                node=node.node_id,
                recovery=recovery,
            )
            node.ssd_ps.store.faults = ssd_arm
            node.ssd_ps.store.device.faults = ssd_arm
            node.hdfs.faults = self._arm(
                node.ledger, surface="hdfs", node=node.node_id
            )
            node.hbm_ps.faults = self._arm(
                node.ledger, surface="hbm", node=node.node_id
            )
            self._stage_arms.append(
                self._arm(node.ledger, surface="stage", node=node.node_id)
            )
        cluster._fault_arm = self._arm(
            cluster.nodes[0].ledger, surface="comm", node=None
        )
        cluster.wrap_stages(self._wrap)
        self.cluster = cluster
        return self

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
        self._stage_arms = []

    def reattach(self, cluster) -> None:
        """Move the injection to a replacement cluster (full restore)."""
        self.detach()
        self.attach(cluster)

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
    def drain_incidents(self) -> list[FaultIncident]:
        """Pop (and return) every incident recorded since the last drain."""
        out = list(self.incidents)
        self.incidents.clear()
        return out

    def totals(self) -> dict:
        """Aggregate arm counters (all attachments, all surfaces)."""
        counts: dict[str, int] = {}
        for arm in self.arms:
            for kind, n in arm.fault_counts.items():
                counts[kind] = counts.get(kind, 0) + n
        return {
            "retries": sum(a.retries for a in self.arms),
            "retry_seconds": sum(a.retry_seconds for a in self.arms),
            "straggler_seconds": sum(a.straggler_seconds for a in self.arms),
            "bytes_reread": sum(a.bytes_reread for a in self.arms),
            "faults_fired": self.schedule.faults_fired,
            "fault_counts": counts,
        }


def inject_faults(
    cluster,
    schedule: FaultSchedule,
    policy: RetryPolicy | None = None,
    *,
    recovery_directory: str | None = None,
) -> FaultInjection:
    """Arm every fault surface of ``cluster`` under ``schedule``.

    ``recovery_directory`` (the supervisor's checkpoint root) enables
    the SSD quarantine path; without it an exhausted SSD read raises
    :class:`~repro.faults.errors.PayloadLostError` directly.
    """
    injection = FaultInjection(
        schedule,
        policy if policy is not None else RetryPolicy(),
        recovery_directory=recovery_directory,
    )
    return injection.attach(cluster)


def clear_faults(cluster) -> None:
    """Disarm a cluster wholesale (inverse of :func:`inject_faults`).

    Safe on a cluster that was never armed — provided its stages are
    not wrapped by someone else's instrumentation.
    """
    if getattr(cluster, "_fault_arm", None) is None and not any(
        node.ssd_ps.store.faults is not None for node in cluster.nodes
    ):
        return
    cluster.unwrap_stages()
    for node in cluster.nodes:
        node.ssd_ps.store.faults = None
        node.ssd_ps.store.device.faults = None
        node.hdfs.faults = None
        node.hbm_ps.faults = None
    cluster._fault_arm = None
