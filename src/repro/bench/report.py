"""Plain-text table/series formatting for benchmark output.

Benchmarks print the same rows/series the paper reports; these helpers
keep that output aligned and diff-able (EXPERIMENTS.md embeds them).
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_series", "ascii_bars"]


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 1e-3:
            return f"{v:.3g}"
        return f"{v:,.2f}" if abs(v) < 100 else f"{v:,.1f}"
    return str(v)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], *, title: str | None = None
) -> str:
    """Monospace table with right-aligned numeric columns."""
    srows = [[_fmt(c) for c in r] for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in srows)) if srows else len(h)
        for i, h in enumerate(headers)
    ]
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for r in srows:
        out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def format_series(
    x: Sequence, y: Sequence[float], *, x_name: str = "x", y_name: str = "y",
    title: str | None = None,
) -> str:
    """Two-column series (the paper's line plots, as text)."""
    return format_table([x_name, y_name], list(zip(x, y)), title=title)


def ascii_bars(
    labels: Sequence[str], values: Sequence[float], *, width: int = 40,
    title: str | None = None,
) -> str:
    """Horizontal bar chart for quick visual shape checks."""
    vmax = max(values) if values else 1.0
    out = [title] if title else []
    for lab, v in zip(labels, values):
        n = int(round(width * v / vmax)) if vmax else 0
        out.append(f"{lab:>12} | {'#' * n} {_fmt(float(v))}")
    return "\n".join(out)
