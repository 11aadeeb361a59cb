"""Seeded, sim-time-driven fault matrix.

A :class:`FaultSchedule` decides — deterministically — whether each armed
operation fails, and how hard.  Determinism comes from the same plumbing
as every other stochastic component (:mod:`repro.utils.rng`): each
``(kind, node)`` pair owns an independent child stream derived from the
schedule seed, consumed once per armed operation, in execution order.
Because both execution modes run stage closures through the same
round-major loop, a given schedule injects the
*identical* fault sequence in both execution modes; two schedules built
from the same seed and configuration inject bit-identical sequences.

No wall clock anywhere: a "timeout" or "stall" is priced in simulated
seconds through the cost ledger by the policy layer, never by sleeping.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.utils.rng import spawn

__all__ = ["FAULT_KINDS", "FaultSchedule"]

#: Every fault kind the injector can arm, by surface:
#: SSD file store / device, HDFS stream, collective + HBM dispatch,
#: per-node stage stragglers, and whole-node crashes probed by the
#: supervisor at round boundaries.
FAULT_KINDS: tuple[str, ...] = (
    "ssd_read_error",
    "ssd_torn_payload",
    "ssd_write_stall",
    "hdfs_timeout",
    "hdfs_read_failure",
    "comm_allreduce",
    "hbm_dispatch",
    "straggler",
    "node_crash",
)


class FaultSchedule:
    """Deterministic per-(kind, node) fault draws with a global budget.

    ``rates`` maps a fault kind to its per-operation firing probability;
    kinds absent (or at rate 0) consume no randomness at all, so arming
    a new kind never perturbs another kind's stream.  A fired fault has
    a *depth* — how many consecutive attempts it fails — drawn
    geometrically (``depth_p``, capped at ``max_depth``); a depth at or
    beyond the policy's ``max_attempts`` is what turns a transient
    hiccup into an escaped :class:`~repro.faults.errors.FaultError`.

    ``max_faults`` bounds the total faults a schedule will ever fire,
    which is what guarantees supervised runs terminate: once the budget
    drains, every remaining draw is clean and recovery always makes
    forward progress.

    ``script`` pins specific draws for targeted tests: a mapping from
    ``(kind, node, op_index)`` to a forced depth, where ``op_index``
    counts armed operations of that ``(kind, node)`` pair from zero.
    """

    def __init__(
        self,
        seed: int,
        *,
        rates: Mapping[str, float] | None = None,
        max_faults: int = 32,
        depth_p: float = 0.4,
        max_depth: int = 8,
        straggler_min: float = 1.25,
        straggler_max: float = 3.0,
        script: Mapping[tuple[str, int | None, int], int] | None = None,
    ) -> None:
        rates = dict(rates or {})
        unknown = sorted(set(rates) - set(FAULT_KINDS))
        if unknown:
            raise ValueError(f"unknown fault kinds: {unknown}")
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind!r} must be in [0, 1]")
        if not 1.0 <= straggler_min <= straggler_max:
            raise ValueError("straggler multipliers must satisfy 1 <= min <= max")
        self.seed = int(seed)
        self.rates = rates
        self.max_faults = int(max_faults)
        self.depth_p = float(depth_p)
        self.max_depth = int(max_depth)
        self.straggler_min = float(straggler_min)
        self.straggler_max = float(straggler_max)
        self.script = dict(script or {})
        self.faults_fired = 0
        self._streams: dict[tuple[str, int], np.random.Generator] = {}
        self._op_counts: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def mixed(
        cls, seed: int, *, rate: float = 0.02, max_faults: int = 32, **kwargs
    ) -> "FaultSchedule":
        """A schedule arming every kind at a uniform rate (soak tests).

        Node crashes and stragglers get a fraction of ``rate`` — they
        fire per round / per stage rather than per I/O operation, so an
        equal per-draw rate would drown the run in restores.
        """
        rates = {kind: rate for kind in FAULT_KINDS}
        rates["node_crash"] = rate / 4
        rates["straggler"] = rate / 2
        return cls(seed, rates=rates, max_faults=max_faults, **kwargs)

    # ------------------------------------------------------------------
    def _key(self, kind: str, node: int | None) -> tuple[str, int]:
        return (kind, -1 if node is None else int(node))

    def _stream(self, kind: str, node: int | None) -> np.random.Generator:
        key = self._key(kind, node)
        rng = self._streams.get(key)
        if rng is None:
            rng = spawn(self.seed, "fault", key[0], key[1])
            self._streams[key] = rng
        return rng

    def draw(self, kind: str, node: int | None = None) -> int:
        """Fault depth for the next armed operation (0 = no fault).

        Consumes the ``(kind, node)`` stream only when the kind is armed
        and the global budget has room; a scripted entry for this op
        index overrides the stochastic draw (but still spends budget).
        """
        key = self._key(kind, node)
        op_index = self._op_counts.get(key, 0)
        self._op_counts[key] = op_index + 1
        if self.faults_fired >= self.max_faults:
            return 0
        scripted = self.script.get((kind, node, op_index))
        if scripted is not None:
            depth = int(scripted)
            if depth > 0:
                self.faults_fired += 1
            return depth
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return 0
        rng = self._stream(kind, node)
        if rng.random() >= rate:
            return 0
        self.faults_fired += 1
        depth = 1
        while depth < self.max_depth and rng.random() < self.depth_p:
            depth += 1
        return depth

    def uniform(self, kind: str, node: int | None = None) -> float:
        """A uniform [0, 1) variate from the pair's stream (jitter)."""
        return float(self._stream(kind, node).random())

    def straggler(self, node: int | None) -> float:
        """Stage-slowdown multiplier for one node (1.0 = no straggle)."""
        if self.draw("straggler", node) == 0:
            return 1.0
        u = self.uniform("straggler", node)
        return self.straggler_min + u * (self.straggler_max - self.straggler_min)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Config fingerprint (used by determinism tests)."""
        return {
            "seed": self.seed,
            "rates": dict(sorted(self.rates.items())),
            "max_faults": self.max_faults,
            "depth_p": self.depth_p,
            "max_depth": self.max_depth,
            "straggler_min": self.straggler_min,
            "straggler_max": self.straggler_max,
            "script": {str(k): int(v) for k, v in sorted(self.script.items())},
        }
