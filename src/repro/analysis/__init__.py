"""Static analysis for the repo's unwritten contracts.

Two halves:

* the **invariant linter** (:mod:`~repro.analysis.linter`,
  :mod:`~repro.analysis.rules`) — AST rules enforcing the conventions
  seven optimisation PRs left implicit: vectorized hot paths, atomic
  durable writes, seeded randomness, wall-clock-free simulation code,
  float32 hot-path arithmetic.  ``python -m repro.analysis`` is the CLI;
  suppressions are in-source ``# repro: allow(<rule>)`` comments;
* the **stage-effect race detector** (:mod:`~repro.analysis.effects`,
  :mod:`~repro.analysis.tracer`) — declared read/write effect sets on
  pipeline stages, a static conflict check against the clock's
  may-overlap relation (with explicit :class:`OverlapContract` records
  for the pinning-protected overlaps), and a dynamic tracer that fails
  a test run when a stage touches a resource it never declared.
"""

from repro.analysis.effects import (
    COMMUTATIVE_RESOURCES,
    OverlapContract,
    StageConflict,
    StageConflictError,
    check_stage_conflicts,
    find_stage_conflicts,
    may_overlap,
)
from repro.analysis.findings import Finding, SuppressionIndex
from repro.analysis.linter import (
    ModuleSource,
    RawFinding,
    Report,
    Rule,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import DEFAULT_RULES
from repro.analysis.tracer import (
    EffectTracer,
    EffectViolation,
    EffectViolationError,
)

__all__ = [
    "COMMUTATIVE_RESOURCES",
    "OverlapContract",
    "StageConflict",
    "StageConflictError",
    "check_stage_conflicts",
    "find_stage_conflicts",
    "may_overlap",
    "Finding",
    "SuppressionIndex",
    "ModuleSource",
    "RawFinding",
    "Report",
    "Rule",
    "lint_paths",
    "lint_source",
    "DEFAULT_RULES",
    "EffectTracer",
    "EffectViolation",
    "EffectViolationError",
]
