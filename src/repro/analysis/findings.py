"""Finding records and the ``# repro: allow(...)`` suppression syntax.

A finding pins a rule violation to ``path:line``.  Intentional
exceptions are suppressed in the source itself so the justification
lives next to the code it excuses:

* ``# repro: allow(<rule-id>)`` on the offending line, or on the line
  directly above it, suppresses that line for that rule;
* ``# repro: allow-file(<rule-id>)`` anywhere in a file suppresses the
  whole file for that rule (for files whose entire purpose is the
  exception).

Multiple rule ids may be comma-separated inside one ``allow(...)``.
Suppressed findings are still counted and reported (as suppressed) so a
stale or overly-broad allow is visible in the report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Finding", "SuppressionIndex"]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")
_ALLOW_FILE_RE = re.compile(r"#\s*repro:\s*allow-file\(([^)]*)\)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line``."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{tag}"


def _parse_ids(blob: str) -> frozenset[str]:
    return frozenset(p.strip() for p in blob.split(",") if p.strip())


@dataclass
class SuppressionIndex:
    """Per-file index of ``allow`` / ``allow-file`` comments."""

    by_line: dict[int, frozenset[str]] = field(default_factory=dict)
    file_wide: frozenset[str] = frozenset()

    @classmethod
    def scan(cls, lines: list[str]) -> "SuppressionIndex":
        by_line: dict[int, frozenset[str]] = {}
        file_wide: set[str] = set()
        for i, text in enumerate(lines, start=1):
            m = _ALLOW_RE.search(text)
            if m:
                by_line[i] = _parse_ids(m.group(1))
            m = _ALLOW_FILE_RE.search(text)
            if m:
                file_wide |= _parse_ids(m.group(1))
        return cls(by_line, frozenset(file_wide))

    def suppresses(self, rule: str, line: int) -> bool:
        """Is ``rule`` allowed at ``line`` (same line or the line above)?"""
        if rule in self.file_wide:
            return True
        for candidate in (line, line - 1):
            ids = self.by_line.get(candidate)
            if ids is not None and rule in ids:
                return True
        return False
