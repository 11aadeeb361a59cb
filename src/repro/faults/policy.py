"""The retry policy (module constants) and the per-surface fault arm.

Every fault point consults a :class:`FaultArm` — the binding of a
:class:`~repro.faults.schedule.FaultSchedule` and a node's
:class:`~repro.hardware.ledger.CostLedger` to one I/O surface.  The arm
prices everything a fault costs in *simulated* seconds on the ledger:

``fault_retry``
    wasted failed attempts, exponential backoff (jittered from the
    schedule's seeded stream), write stalls, and quarantine re-reads;
``fault_straggler``
    the extra stage seconds a straggling node adds (kept separate so
    retry-overhead gates aren't polluted by slowdown noise).

An arm never sleeps, never consults the wall clock and keeps no
counters: an absorbed fault is one :class:`FaultReport` in the shared
incident log; one whose depth reaches :data:`MAX_ATTEMPTS` is priced and
raised as :class:`~repro.faults.errors.FaultExhaustedError` with the
surface's recovery scope — degradation beyond that point (SSD
quarantine, supervisor restores) is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.faults.errors import FaultExhaustedError, PayloadLostError
from repro.faults.schedule import FaultSchedule
from repro.hardware.ledger import CostLedger

__all__ = ["FaultArm", "FaultReport", "backoff_seconds"]

#: Attempts a fault point makes before it gives up; a fault whose depth
#: reaches this escapes.
MAX_ATTEMPTS = 3
#: The first backoff, its growth per failed attempt, its ceiling, and
#: the seeded jitter's relative spread (see :func:`backoff_seconds`).
BACKOFF_BASE_S = 0.002
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP_S = 0.25
JITTER = 0.5
#: How many times the supervisor re-runs one round on round-scoped
#: faults before escalating to a full restore.
MAX_ROUND_RETRIES = 3


def backoff_seconds(attempt: int, u: float) -> float:
    """Backoff after failed attempt ``attempt`` (1-based):
    ``min(cap, base * multiplier**(attempt-1)) * (1 + jitter * u)``, with
    ``u`` drawn from the schedule's seeded stream — exponential growth,
    a ceiling, and deterministic jitter, all in sim-seconds."""
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * BACKOFF_MULTIPLIER ** (attempt - 1))
    return base * (1.0 + JITTER * u)


@dataclass(frozen=True)
class FaultReport:
    """One fault incident: absorbed by an arm, or escalated to the
    :class:`~repro.faults.supervisor.Supervisor`.

    ``downtime_seconds`` is the simulated time the incident cost: retry
    backoff + wasted attempts (and a quarantine's chain walk) for
    absorbed faults, the restore's checkpoint read-back for escalated
    ones (replayed rounds are in
    :attr:`~repro.faults.supervisor.SupervisedRun.replay_seconds`).
    ``retries`` and ``bytes_reread`` are the work the fault's arm
    priced; an escalation copies them off the escaped error, so the
    reports of a run sum to every retry and re-read byte it paid for.
    ``round`` is stamped by the supervisor when it drains the arms'
    records (-1 until then).
    """

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
    round: int = -1


class FaultArm:
    """One surface's guard: draw → retry/backoff → degrade or raise.

    ``recovery`` (optional) is the quarantine source for exhausted SSD
    reads: a callable ``(file_id, expected_keys) -> (values or None,
    nbytes, seconds)`` that re-materializes an immutable parameter
    file's payload from the newest checkpoint chain — ``None`` unless
    the copy holds every expected key, the file's live ones — and
    reports what that read cost, found or not.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        ledger: CostLedger,
        *,
        surface: str,
        node: int | None = None,
        incidents: list[FaultReport],
        recovery: Callable[[int, np.ndarray], tuple] | None = None,
    ) -> None:
        self.schedule = schedule
        self.ledger = ledger
        self.surface = surface
        self.node = node
        self.incidents = incidents
        self.recovery = recovery

    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        action: str,
        *,
        stage: str | None = None,
        retries: int = 0,
        seconds: float = 0.0,
        bytes_reread: int = 0,
    ) -> None:
        """Log one absorbed fault in the shared incident log."""
        self.incidents.append(
            FaultReport(
                surface=self.surface,
                kind=kind,
                node=self.node,
                action=action,
                stage=stage,
                retries=retries,
                downtime_seconds=seconds,
                bytes_reread=bytes_reread,
            )
        )

    # ------------------------------------------------------------------
    def guard(
        self, attempt_costs: Mapping[str, float], *, scope: str = "global"
    ) -> float:
        """Consult the schedule for each armed kind; absorb or raise.

        ``attempt_costs`` maps each kind guarding this operation to the
        sim-seconds one *failed* attempt wastes (e.g. a timed-out HDFS
        transfer wastes the full transfer time; a fail-fast read error
        wastes only backoff).  Returns the extra seconds absorbed, all
        charged to ``fault_retry``.  A depth at or beyond
        :data:`MAX_ATTEMPTS` prices the wasted attempts and raises
        :class:`FaultExhaustedError` with ``scope``.
        """
        extra = 0.0
        for kind, waste in attempt_costs.items():
            depth = self.schedule.draw(kind, self.node)
            if depth == 0:
                continue
            exhausted = depth >= MAX_ATTEMPTS
            failures = MAX_ATTEMPTS if exhausted else depth
            # One backoff after every failed attempt that is re-tried:
            # the final (exhausting) failure is not followed by a wait.
            backoffs = failures - 1 if exhausted else failures
            seconds = failures * waste
            for attempt in range(1, backoffs + 1):
                seconds += backoff_seconds(
                    attempt, self.schedule.uniform(kind, self.node)
                )
            self.ledger.add("fault_retry", seconds)
            retries = backoffs
            extra += seconds
            if exhausted:
                raise FaultExhaustedError(
                    f"{self.surface}: fault {kind!r} on node {self.node} "
                    f"persisted through {failures} attempts",
                    surface=self.surface,
                    kind=kind,
                    node=self.node,
                    scope=scope,
                    retries=retries,
                    seconds=extra,
                )
            self._record(kind, "retried", retries=retries, seconds=seconds)
        return extra

    def stall(self, kind: str, base_seconds: float) -> float:
        """A slow-but-successful operation (e.g. an SSD write stall).

        Never raises: the stall simply costs extra sim-seconds,
        proportional to the stalled operation and the drawn depth.
        """
        depth = self.schedule.draw(kind, self.node)
        if depth == 0:
            return 0.0
        u = self.schedule.uniform(kind, self.node)
        extra = max(base_seconds * depth, BACKOFF_BASE_S) * (1.0 + u)
        self.ledger.add("fault_retry", extra)
        self._record(kind, "stall", seconds=extra)
        return extra

    def straggle(self, stage: str, stage_seconds: float) -> float:
        """Per-node stage slowdown; returns the extra seconds added.

        Charged to ``fault_straggler`` (not ``fault_retry``): a slow
        node is degradation, not retry work, and the bench gates the two
        separately.
        """
        mult = self.schedule.straggler(self.node)
        if mult <= 1.0 or stage_seconds <= 0.0:
            return 0.0
        extra = stage_seconds * (mult - 1.0)
        self.ledger.add("fault_straggler", extra)
        self._record("straggler", "straggler", stage=stage, seconds=extra)
        return extra

    # ------------------------------------------------------------------
    def ssd_reads(
        self, store: Any, file_ids: np.ndarray, sizes: np.ndarray
    ) -> np.ndarray:
        """:meth:`ssd_read` on each of ``file_ids`` (``sizes`` bytes
        each), in order — one armed operation per file; their seconds."""
        pairs = zip(file_ids.tolist(), sizes.tolist())
        return np.array([self.ssd_read(store, f, n) for f, n in pairs])

    def ssd_read(self, store: Any, file_id: int, size: int) -> float:
        """Guard one read of the ``size``-byte parameter file
        ``file_id``; quarantine on exhaustion.

        Parameter files are immutable and rows only ever go stale, so a
        file that predates the newest checkpoint has every live row in
        the checkpoint chain's SSD exports: an exhausted read
        re-materializes it from there as a restore would, stale rows
        zeroed (priced as a ``fault_retry`` HDFS transfer, recorded in
        the report's ``bytes_reread``) instead of crashing.  Only a file
        *newer* than every durable copy is truly lost — that raises
        :class:`PayloadLostError`, carrying the guard's retries and the
        walk's bytes.  Such a file is only read after a round past the
        newest snapshot dumped it, never at a snapshot boundary, so the
        supervisor heals the loss by full restore.
        """
        per_attempt = store.device.spec.read_seconds(size)
        costs = {"ssd_read_error": per_attempt, "ssd_torn_payload": per_attempt}
        try:
            return self.guard(costs, scope="node")
        except FaultExhaustedError as exc:
            # Stale rows' newest copies sit in other files: what is at
            # stake is the live rows, all a snapshot ships.
            live = store.live_mask(file_id)
            keys = store.file(file_id).keys[live]
            values, nbytes, seconds = (
                (None, 0, 0.0)
                if self.recovery is None
                else self.recovery(file_id, keys)
            )
            # Every shard the walk read is a re-read, found or not.
            self.ledger.add("fault_retry", seconds)
            lost = dict(
                file_id=file_id,
                keys=keys,
                kind=exc.kind,
                node=self.node,
                retries=exc.retries,
                bytes_reread=int(nbytes),
            )
            if values is None:
                raise PayloadLostError(
                    f"parameter file {file_id} unreadable after "
                    f"{exc.retries} retries and no checkpointed copy exists",
                    **lost,
                ) from exc
            values = np.asarray(values, dtype=np.float32)
            expected = store._payload(file_id)
            if values.shape != expected.shape or not np.array_equal(
                values[live], expected[live]
            ):
                raise PayloadLostError(
                    f"checkpointed copy of parameter file {file_id} does "
                    "not match the immutable payload — refusing to "
                    "re-materialize",
                    **lost,
                ) from exc
            store._store_payload(file_id, values)
            self._record(
                exc.kind or "ssd_read_error",
                "quarantine",
                retries=exc.retries,
                seconds=exc.seconds + seconds,
                bytes_reread=int(nbytes),
            )
            return exc.seconds + seconds
