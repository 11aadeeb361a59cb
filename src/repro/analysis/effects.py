"""Stage-effect model for the pipeline clock.

:func:`~repro.core.pipeline.schedule` overlaps consecutive rounds'
stages on the simulated clock.  Each stage therefore needs a *declared*
effect set — the named resources it reads and writes — so that the
overlap the schedule claims can be checked against the state the stages
actually share.  This module defines the effect vocabulary, the clock's
may-overlap relation, and the static conflict check over the registry's
:class:`~repro.core.pipeline.StageSpec` records; the dynamic counterpart
(verifying that a running stage touches only what it declared) lives in
:mod:`repro.analysis.tracer`.

Resources
---------
Resources are plain strings.  The cluster's vocabulary:

``stream``
    the per-node HDFS stream cursor (advanced by the read stage);
``mem`` / ``ssd`` / ``hbm``
    the three storage tiers (cache slab + replacement state, file store
    + extent cache, the staged HBM working set);
``model``
    the dense tower replicas and their optimizer state;
``ledger``
    per-node simulated-cost accounting (commutative — see below);
``fault``
    fault-injection state — the seeded schedule's draw streams and the
    incident log of :mod:`repro.faults` (commutative — see below);
``ckpt``
    the checkpoint directory and the in-memory delta base (read by the
    cache-touching stages when an exhausted SSD read quarantines and
    re-materializes a payload from the newest checkpoint chain);
``stats``
    the cluster's round history / round counter.

Two structural escapes keep the model honest without drowning it in
noise:

* resources prefixed ``round:`` (e.g. ``round:plan``) are *per-round*
  instances: stage ``s`` of round ``b`` only ever touches round ``b``'s
  copy, and the clock never overlaps two stages of the same round
  (stage precedence), so ``round:`` resources cannot race across rounds
  and are excluded from the static conflict check — they still matter to
  the dynamic tracer;
* *commutative* resources (the cost ledger) are append-only accumulators
  whose final state is order-independent, so concurrent writes commute
  and are not conflicts.

The may-overlap relation
------------------------
Under :func:`~repro.core.pipeline.schedule` with queue capacities
``>= 1`` (it enforces this), for rounds ``b' > b``:

* *serialization* gives ``start[b', s] >= finish[b, s]`` for every stage
  ``s``;
* chaining serialization with *stage precedence* gives
  ``start[b', s'] >= finish[b, s]`` for every ``s' >= s``.

So stage ``s'`` of a later round can only overlap stage ``s`` of an
earlier round when ``s' < s``: an **upstream** (earlier-registry) stage
of a later round may run concurrently with any **downstream** stage of
an earlier round, and that is the *only* concurrency the clock ever
schedules.  :func:`may_overlap` encodes exactly this, and
``tests/analysis/test_effects.py`` confirms it empirically against
randomized :func:`~repro.core.pipeline.schedule` clocks.

Sanctioned overlaps
-------------------
Some conflicts are the point of the paper: MEM prepare of round ``b+1``
overlapping the GPU/write-back stage of round ``b`` is safe *because*
the tiers implement the pinning + canonical-order write-back discipline
(paper Section 5), and the cluster's round loop runs every stage of
round ``b`` before any stage of round ``b + 1``.  Such pairs must be
declared as :class:`OverlapContract` records carrying a justification —
exactly like a lint suppression, the escape is explicit and reviewable.
A stage that introduces a new conflicting overlap without a contract
fails :func:`check_stage_conflicts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from repro.core.pipeline import StageSpec

__all__ = [
    "OverlapContract",
    "StageConflict",
    "StageConflictError",
    "COMMUTATIVE_RESOURCES",
    "ROUND_LOCAL_PREFIX",
    "may_overlap",
    "find_stage_conflicts",
    "check_stage_conflicts",
]

#: Resources whose writes are order-independent appends (accumulators):
#: concurrent writers commute, so they never constitute a conflict.
#: ``ledger`` is cost accounting; ``fault`` is the fault-injection state
#: (the schedule's per-(kind, node) RNG streams plus the incident log,
#: :mod:`repro.faults`) — both only ever advance/append, and stages run
#: in round-major order, so their final state is schedule-independent.
COMMUTATIVE_RESOURCES: frozenset[str] = frozenset({"ledger", "fault"})

#: Resources with this prefix are per-round instances — two overlapping
#: stages always belong to different rounds and touch different copies.
ROUND_LOCAL_PREFIX = "round:"


@dataclass(frozen=True)
class OverlapContract:
    """A sanctioned concurrent overlap between two stages.

    Declares that ``upstream`` (the earlier-registry stage, running a
    *later* round) may overlap ``downstream`` (the later-registry stage,
    running an *earlier* round) on ``resources``, and why that is safe.
    """

    upstream: str
    downstream: str
    resources: frozenset[str]
    reason: str

    def __post_init__(self) -> None:
        if not isinstance(self.resources, frozenset):
            object.__setattr__(self, "resources", frozenset(self.resources))
        if not self.reason.strip():
            raise ValueError(
                "an OverlapContract must carry a non-empty justification"
            )


@dataclass(frozen=True)
class StageConflict:
    """One undeclared potentially-concurrent write/read+write overlap."""

    upstream: str
    downstream: str
    resources: frozenset[str]

    def __str__(self) -> str:
        res = ", ".join(sorted(self.resources))
        return (
            f"stage '{self.upstream}' (round b+k) may overlap stage "
            f"'{self.downstream}' (round b) on {{{res}}} with at least one "
            "writer and no OverlapContract"
        )


class StageConflictError(RuntimeError):
    """The registered stage set has undeclared concurrent conflicts."""

    def __init__(self, conflicts: Sequence[StageConflict]) -> None:
        self.conflicts = tuple(conflicts)
        lines = "\n  ".join(str(c) for c in conflicts)
        super().__init__(
            "stage-effect conflict(s) in the pipeline registry:\n  "
            + lines
            + "\n(declare an OverlapContract with a justification if the "
            "overlap is protected by the pinning / canonical-order "
            "discipline, or fix the stage's effect sets)"
        )


def may_overlap(upstream_index: int, downstream_index: int) -> bool:
    """Can these two registry positions run concurrently on the clock?

    Derivation in the module docstring: with queue capacities ``>= 1``,
    the clock can overlap stage ``i`` of round ``b+k`` with stage ``j``
    of round ``b`` exactly when ``i < j``.  Same-stage events are
    serialized; later-registry stages of later rounds are ordered after
    earlier rounds' earlier stages by precedence + serialization.
    """
    return upstream_index < downstream_index


def _conflicting(
    up: StageSpec,
    down: StageSpec,
    commutative: frozenset[str],
) -> frozenset[str]:
    shared_writes = (up.writes & (down.reads | down.writes)) | (
        down.writes & (up.reads | up.writes)
    )
    return frozenset(
        r
        for r in shared_writes
        if r not in commutative and not r.startswith(ROUND_LOCAL_PREFIX)
    )


def find_stage_conflicts(
    stages: Sequence[StageSpec],
    *,
    contracts: Iterable[OverlapContract] = (),
    commutative: frozenset[str] = COMMUTATIVE_RESOURCES,
) -> list[StageConflict]:
    """All undeclared conflicts in a registered stage set.

    ``stages`` must be in pipeline registry order.  A conflict is a pair
    of stages that :func:`may_overlap` with a non-commutative,
    non-round-local resource written by at least one of them and not
    covered by an :class:`OverlapContract` for that ordered pair.
    Contracts naming stages absent from ``stages`` are ignored (they
    describe optional stages such as ``prefetch`` or ``snapshot``), but
    a contract whose stages are both present in the *wrong order* is an
    error — it sanctions an overlap the clock can never schedule.
    """
    names = [s.name for s in stages]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate stage names in registry: {names}")
    index = {n: i for i, n in enumerate(names)}
    allowed: dict[tuple[str, str], set[str]] = {}
    for c in contracts:
        iu, idn = index.get(c.upstream), index.get(c.downstream)
        if iu is None or idn is None:
            continue
        if not may_overlap(iu, idn):
            raise ValueError(
                f"OverlapContract({c.upstream!r}, {c.downstream!r}) is "
                "unsatisfiable: the clock never overlaps that ordered pair"
            )
        allowed.setdefault((c.upstream, c.downstream), set()).update(
            c.resources
        )
    conflicts: list[StageConflict] = []
    for i, up in enumerate(stages):
        for j in range(i + 1, len(stages)):
            down = stages[j]
            res = _conflicting(up, down, commutative)
            res -= frozenset(allowed.get((up.name, down.name), ()))
            if res:
                conflicts.append(StageConflict(up.name, down.name, res))
    return conflicts


def check_stage_conflicts(
    stages: Sequence[StageSpec],
    *,
    contracts: Iterable[OverlapContract] = (),
    commutative: frozenset[str] = COMMUTATIVE_RESOURCES,
) -> None:
    """Raise :class:`StageConflictError` on any undeclared conflict."""
    conflicts = find_stage_conflicts(
        stages, contracts=contracts, commutative=commutative
    )
    if conflicts:
        raise StageConflictError(conflicts)
