"""Static analysis for the repo's unwritten contracts.

The **invariant linter** (:mod:`~repro.analysis.linter`,
:mod:`~repro.analysis.rules`) — AST rules enforcing the conventions
seven optimisation PRs left implicit: vectorized hot paths, atomic
durable writes, seeded randomness, wall-clock-free simulation code,
float32 hot-path arithmetic.  ``python -m repro.analysis`` is the CLI;
suppressions are in-source ``# repro: allow(<rule>)`` comments.
"""

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

__all__ = [
    "Finding",
    "SuppressionIndex",
    "ModuleSource",
    "RawFinding",
    "Report",
    "Rule",
    "lint_paths",
    "lint_source",
    "DEFAULT_RULES",
]
