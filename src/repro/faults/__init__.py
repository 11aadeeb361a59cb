"""Deterministic fault injection, one retry policy, and self-healing supervision.

The paper's deployment claim is that the three-tier PS keeps training
(and serving) through machine failures by replaying from the newest
materialized snapshot.  This package turns that claim into a testable
surface:

* :mod:`repro.faults.errors` — the typed :class:`FaultError` hierarchy
  every injected fault signals through (enforced by the ``typed-faults``
  lint rule);
* :mod:`repro.faults.schedule` — :class:`FaultSchedule`, a seeded,
  sim-time-driven fault matrix (no wall clock): per-(kind, node) RNG
  streams drawn once per armed operation, so two schedules built from
  the same seed inject bit-identical fault sequences;
* :mod:`repro.faults.policy` — the retry policy as module constants
  (max attempts, exponential backoff with seeded jitter, priced through
  the :class:`~repro.hardware.ledger.CostLedger` as ``fault_retry``, and
  the supervisor's round-retry budget) and :class:`FaultArm`, the
  per-surface guard each I/O layer consults;
* :mod:`repro.faults.inject` — threads arms through every I/O surface
  of a live cluster (`FileStore`/`SSDDevice`, `HDFSStream`,
  `HBMPS` dispatch, allreduce, per-node stage stragglers) and the
  checkpoint-chain quarantine recovery for exhausted SSD reads;
* :mod:`repro.faults.supervisor` — :class:`Supervisor`, which drives
  ``train_round``/``train_pipelined``, classifies escaped faults
  (transient → retry the round, single-node-fatal → ``restore_nodes``
  partial restore, global-fatal → full restore + replay) and records a
  :class:`FaultReport` per incident.

One record per fault: an absorbed fault is one report in the
injection's incident log, an escaped one carries its priced retries and
re-read bytes into the supervisor's escalation report, and a run's
retry and re-read totals are sums over its reports.

Invariant (enforced by ``tests/faults/test_soak.py``): any seeded fault
schedule whose faults are all recoverable yields **bit-identical final
parameters** to the fault-free run, lockstep and pipelined.
"""

from repro.faults.errors import (
    FaultError,
    FaultExhaustedError,
    PayloadLostError,
    UnrecoverableFaultError,
)
from repro.faults.inject import CheckpointRecovery, FaultInjection
from repro.faults.policy import FaultArm, FaultReport
from repro.faults.schedule import FAULT_KINDS, FaultSchedule
from repro.faults.supervisor import SupervisedRun, Supervisor

__all__ = [
    "FAULT_KINDS",
    "CheckpointRecovery",
    "FaultArm",
    "FaultError",
    "FaultExhaustedError",
    "FaultInjection",
    "FaultReport",
    "FaultSchedule",
    "PayloadLostError",
    "SupervisedRun",
    "Supervisor",
    "UnrecoverableFaultError",
]
