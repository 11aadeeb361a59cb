"""The invariant-lint engine: rule protocol, module model, tree driver.

Seven PRs of optimisation left the repo's correctness resting on
conventions no tool enforced: hot paths stay vectorized, durable writes
go through :func:`repro.utils.io.atomic_write_bytes`, randomness flows
from seeded generators, simulation code never reads wall clocks, hot
paths avoid accidental float64 widening.  Each convention is a
:class:`Rule`: a scoped AST check that yields findings with exact
``path:line`` anchors; intentional exceptions are suppressed in-source
(:mod:`repro.analysis.findings`) so every escape carries its
justification.  ``python -m repro.analysis`` runs the whole rule set
over a tree and fails on any unsuppressed finding; the tier-1 suite
runs the same scan, so a violation fails CI *and* local tests.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence

from repro.analysis.findings import Finding, SuppressionIndex

__all__ = ["Rule", "ModuleSource", "RawFinding", "Report", "lint_paths", "lint_source"]


@dataclass(frozen=True)
class RawFinding:
    """A rule hit before suppression resolution: ``(line, message)``."""

    line: int
    message: str


@dataclass(frozen=True)
class ModuleSource:
    """One parsed Python module handed to every applicable rule.

    ``relpath`` is the path the rule scopes match against — relative to
    the repository root, ``/``-separated (e.g.
    ``src/repro/mem/cache.py``).
    """

    relpath: str
    tree: ast.Module

    @classmethod
    def parse(cls, relpath: str, text: str) -> "ModuleSource":
        return cls(
            relpath=relpath.replace(os.sep, "/"),
            tree=ast.parse(text, filename=relpath),
        )


class Rule(Protocol):
    """One machine-checked repo invariant."""

    #: stable identifier used in reports and ``allow(...)`` comments
    id: str
    #: one-line statement of the invariant
    title: str
    #: why the invariant exists (shown by ``--list-rules``)
    rationale: str

    def applies_to(self, relpath: str) -> bool:
        """Is ``relpath`` inside this rule's scope?"""
        ...

    def check(self, module: ModuleSource) -> Iterator[RawFinding]:
        """Yield every violation in an in-scope module."""
        ...


@dataclass
class Report:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules: tuple[str, ...] = ()

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.active

    def to_json(self) -> dict:
        return {
            "schema": "repro-analysis/v1",
            "files_scanned": self.files_scanned,
            "rules": list(self.rules),
            "active": [f.__dict__ for f in self.active],
            "suppressed": [f.__dict__ for f in self.suppressed],
        }


def lint_source(
    relpath: str, text: str, rules: Sequence[Rule]
) -> list[Finding]:
    """Lint one module's source text with every in-scope rule."""
    relpath = relpath.replace(os.sep, "/")
    in_scope = [r for r in rules if r.applies_to(relpath)]
    if not in_scope:
        return []
    module = ModuleSource.parse(relpath, text)
    suppressions = SuppressionIndex.scan(text.splitlines())
    findings: list[Finding] = []
    for rule in in_scope:
        for raw in rule.check(module):
            findings.append(
                Finding(
                    rule=rule.id,
                    path=relpath,
                    line=raw.line,
                    message=raw.message,
                    suppressed=suppressions.suppresses(rule.id, raw.line),
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _iter_python_files(root: str) -> Iterator[str]:
    if os.path.isfile(root):
        if root.endswith(".py"):
            yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__" and not d.startswith(".")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def lint_paths(
    paths: Iterable[str],
    rules: Sequence[Rule],
    *,
    root: str | None = None,
) -> Report:
    """Lint every ``.py`` file under ``paths``.

    ``root`` anchors the rule-scope relpaths (defaults to the current
    working directory — run from the repository root, as CI does).
    """
    root = os.path.abspath(root or os.getcwd())
    report = Report(rules=tuple(r.id for r in rules))
    for path in paths:
        for filename in _iter_python_files(path):
            abspath = os.path.abspath(filename)
            relpath = (
                os.path.relpath(abspath, root)
                if abspath.startswith(root + os.sep)
                else filename
            )
            with open(abspath, "r", encoding="utf-8") as fh:
                text = fh.read()
            report.files_scanned += 1
            report.findings.extend(lint_source(relpath, text, rules))
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
