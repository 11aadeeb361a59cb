"""Retry/backoff policy and the per-surface fault arm.

Every fault point consults a :class:`FaultArm` — the binding of a
:class:`~repro.faults.schedule.FaultSchedule`, a :class:`RetryPolicy`,
and a node's :class:`~repro.hardware.ledger.CostLedger` to one I/O
surface.  The arm prices everything a fault costs in *simulated*
seconds on the ledger:

``fault_retry``
    wasted failed attempts, exponential backoff (jittered from the
    schedule's seeded stream), write stalls, and quarantine re-reads;
``fault_straggler``
    the extra stage seconds a straggling node adds (kept separate so
    retry-overhead gates aren't polluted by slowdown noise).

An arm never sleeps and never consults the wall clock.  When a fault's
depth reaches the policy's attempt budget, the arm prices the wasted
work and raises :class:`~repro.faults.errors.FaultExhaustedError` with
the surface's recovery scope — degradation beyond that point (SSD
quarantine, supervisor restores) is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.faults.errors import FaultExhaustedError, PayloadLostError
from repro.faults.schedule import FaultSchedule
from repro.hardware.ledger import CostLedger

__all__ = ["FaultArm", "FaultIncident", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard each fault point tries before giving up.

    Backoff after failed attempt ``k`` (1-based) is
    ``min(cap, base * multiplier**(k-1)) * (1 + jitter * u)`` with ``u``
    drawn from the schedule's seeded stream — exponential growth, a
    ceiling, and deterministic jitter, all in sim-seconds.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.002
    backoff_multiplier: float = 2.0
    backoff_cap_s: float = 0.25
    jitter: float = 0.5
    #: how many times the supervisor will re-run one round on
    #: round-scoped faults before escalating to a full restore.
    max_round_retries: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff seconds must be non-negative")

    def backoff_seconds(self, attempt: int, u: float) -> float:
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_multiplier ** (attempt - 1),
        )
        return base * (1.0 + self.jitter * u)


@dataclass(frozen=True)
class FaultIncident:
    """One fault the arms absorbed (or escalated) — the raw record the
    supervisor drains and round-stamps into
    :class:`~repro.faults.supervisor.FaultReport` entries."""

    surface: str
    kind: str
    node: int | None
    action: str  # "retried" | "stall" | "straggler" | "quarantine"
    stage: str | None = None
    retries: int = 0
    seconds: float = 0.0
    bytes_reread: int = 0


class FaultArm:
    """One surface's guard: draw → retry/backoff → degrade or raise.

    ``recovery`` (optional) is the quarantine source for exhausted SSD
    reads: a callable ``(file_id, expected_keys) -> (values, nbytes,
    seconds) | None`` that re-materializes an immutable parameter file's
    payload from the newest checkpoint chain.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        policy: RetryPolicy,
        ledger: CostLedger,
        *,
        surface: str,
        node: int | None = None,
        incidents: list[FaultIncident] | None = None,
        recovery: Callable[[int, np.ndarray], tuple | None] | None = None,
    ) -> None:
        self.schedule = schedule
        self.policy = policy
        self.ledger = ledger
        self.surface = surface
        self.node = node
        self.incidents = incidents
        self.recovery = recovery
        self.retries = 0
        self.retry_seconds = 0.0
        self.straggler_seconds = 0.0
        self.bytes_reread = 0
        self.fault_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def _charge(self, seconds: float) -> float:
        self.retry_seconds += seconds
        return self.ledger.add("fault_retry", seconds)

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
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if self.incidents is not None:
            self.incidents.append(
                FaultIncident(
                    surface=self.surface,
                    kind=kind,
                    node=self.node,
                    action=action,
                    stage=stage,
                    retries=retries,
                    seconds=seconds,
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
        charged to ``fault_retry``.  A depth at or beyond the policy's
        attempt budget prices the wasted attempts and raises
        :class:`FaultExhaustedError` with ``scope``.
        """
        extra = 0.0
        for kind, waste in attempt_costs.items():
            depth = self.schedule.draw(kind, self.node)
            if depth == 0:
                continue
            exhausted = depth >= self.policy.max_attempts
            failures = self.policy.max_attempts if exhausted else depth
            # One backoff after every failed attempt that is re-tried:
            # the final (exhausting) failure is not followed by a wait.
            backoffs = failures - 1 if exhausted else failures
            seconds = failures * waste
            for attempt in range(1, backoffs + 1):
                seconds += self.policy.backoff_seconds(
                    attempt, self.schedule.uniform(kind, self.node)
                )
            self._charge(seconds)
            retries = backoffs
            self.retries += retries
            extra += seconds
            if exhausted:
                self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
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
        extra = max(base_seconds * depth, self.policy.backoff_base_s) * (1.0 + u)
        self._charge(extra)
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
        self.straggler_seconds += extra
        self.ledger.add("fault_straggler", extra)
        self._record("straggler", "straggler", stage=stage, seconds=extra)
        return extra

    # ------------------------------------------------------------------
    def ssd_read(self, store: Any, f: Any) -> float:
        """Guard one cold parameter-file read; quarantine on exhaustion.

        Parameter files are immutable, so a file that predates the
        newest checkpoint has its exact payload in the checkpoint
        chain's SSD exports: an exhausted read re-materializes it from
        there (priced as a ``fault_retry`` HDFS transfer, counted in
        ``bytes_reread``) instead of crashing.  Only a file *newer* than
        every durable copy is truly lost — that raises
        :class:`PayloadLostError` and the supervisor heals the node by
        partial restore.
        """
        per_attempt = store.device.read_time(store.file_bytes(f))
        costs = {"ssd_read_error": per_attempt, "ssd_torn_payload": per_attempt}
        try:
            return self.guard(costs, scope="node")
        except FaultExhaustedError as exc:
            recovered = (
                None if self.recovery is None else self.recovery(f.file_id, f.keys)
            )
            if recovered is None:
                raise PayloadLostError(
                    f"parameter file {f.file_id} unreadable after "
                    f"{exc.retries} retries and no checkpointed copy exists",
                    file_id=f.file_id,
                    keys=f.keys,
                    kind=exc.kind,
                    node=self.node,
                ) from exc
            values, nbytes, seconds = recovered
            values = np.asarray(values, dtype=np.float32)
            expected = store._payload(f.file_id)
            if not np.array_equal(values, expected):
                raise PayloadLostError(
                    f"checkpointed copy of parameter file {f.file_id} does "
                    "not match the immutable payload — refusing to "
                    "re-materialize",
                    file_id=f.file_id,
                    keys=f.keys,
                    kind=exc.kind,
                    node=self.node,
                ) from exc
            store._store_payload(f.file_id, values)
            self._charge(seconds)
            self.bytes_reread += int(nbytes)
            self._record(
                exc.kind or "ssd_read_error",
                "quarantine",
                retries=exc.retries,
                seconds=exc.seconds + seconds,
                bytes_reread=int(nbytes),
            )
            return exc.seconds + seconds
