"""Cost ledger — the timing layer's accounting backbone.

Every simulated hardware operation reports a cost in *simulated seconds*
under a named category.  Ledgers are additive and mergeable, so each
component (MEM-PS, SSD-PS, HBM-PS, network, pipeline) keeps its own and the
benchmarks aggregate them into the paper's per-stage decompositions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["CostLedger", "Cost"]


@dataclass(frozen=True)
class Cost:
    """A single simulated cost sample."""

    category: str
    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("cost cannot be negative")


class CostLedger:
    """Accumulates simulated seconds per category.

    Categories used across the library::

        hdfs_read        streaming examples from the distributed FS
        cpu_partition    CPU-side sharding / key union / dedup work
        ssd_read         parameter-file reads
        ssd_write        parameter-file writes (dumps + compaction)
        net_remote_pull  inter-node MEM-PS parameter traffic
        nvlink           intra-node inter-GPU transfers
        allreduce        inter-node GPU synchronization
        gpu_compute      forward/backward propagation
        hbm_pull / hbm_push   distributed-hash-table traffic
    """

    def __init__(self) -> None:
        self._totals: dict[str, float] = defaultdict(float)
        self._counts: dict[str, int] = defaultdict(int)

    def add(self, category: str, seconds: float) -> float:
        """Record ``seconds`` under ``category``; returns ``seconds``."""
        if seconds < 0:
            raise ValueError(f"negative cost for {category!r}: {seconds}")
        self._totals[category] += seconds
        self._counts[category] += 1
        return seconds

    def add_each(self, category: str, seconds: np.ndarray) -> None:
        """One :meth:`add` per entry of ``seconds``, in order (the float
        total is bit-identical), without a Python loop."""
        if seconds.size == 0:
            return
        if seconds.min() < 0:
            raise ValueError(f"negative cost for {category!r}: {seconds.min()}")
        total = np.cumsum(np.concatenate(([self._totals[category]], seconds)))[-1]
        self._totals[category] = float(total)
        self._counts[category] += seconds.size

    def total(self, category: str | None = None) -> float:
        """Total seconds for ``category``, or across all categories."""
        if category is None:
            return sum(self._totals.values())
        return self._totals.get(category, 0.0)

    def count(self, category: str) -> int:
        """Number of samples recorded under ``category``."""
        return self._counts.get(category, 0)

    def categories(self) -> list[str]:
        return sorted(self._totals)

    def as_dict(self) -> dict[str, float]:
        return dict(self._totals)

    def merge(self, other: "CostLedger") -> "CostLedger":
        """Fold ``other`` into this ledger (in place); returns self."""
        for cat, sec in other._totals.items():
            self._totals[cat] += sec
        for cat, n in other._counts.items():
            self._counts[cat] += n
        return self

    def snapshot(self) -> "CostLedger":
        """Independent copy of the current state."""
        out = CostLedger()
        out._totals = defaultdict(float, self._totals)
        out._counts = defaultdict(int, self._counts)
        return out

    def delta_since(self, snapshot: "CostLedger") -> dict[str, float]:
        """Per-category difference between now and ``snapshot``."""
        out: dict[str, float] = {}
        for cat in set(self._totals) | set(snapshot._totals):
            d = self._totals.get(cat, 0.0) - snapshot._totals.get(cat, 0.0)
            if d:
                out[cat] = d
        return out

    def reset(self) -> None:
        self._totals.clear()
        self._counts.clear()

    # -- checkpoint hooks ----------------------------------------------
    def export_state(self) -> dict[str, list]:
        """Snapshot for a checkpoint shard (plain lists, NumPy-free).

        Carrying per-node totals in the node shards lets a restored run
        continue long-horizon cost accounting instead of restarting at
        zero — recovery itself then shows up as ``ckpt_read`` *on top of*
        the history, the way a real deployment's books would.
        """
        cats = sorted(self._totals)
        return {
            "categories": cats,
            "totals": [self._totals[c] for c in cats],
            "counts": [self._counts[c] for c in cats],
        }

    def load_state(self, state: dict) -> None:
        """Rebuild from an :meth:`export_state` snapshot (replaces all)."""
        cats = [str(c) for c in state["categories"]]
        totals = [float(t) for t in state["totals"]]
        counts = [int(n) for n in state["counts"]]
        if len(totals) != len(cats) or len(counts) != len(cats):
            raise ValueError("ledger snapshot shape mismatch")
        if any(t < 0 for t in totals) or any(n < 0 for n in counts):
            raise ValueError("ledger snapshot holds negative accounting")
        self.reset()
        for cat, total, count in zip(cats, totals, counts):
            self._totals[cat] = total
            self._counts[cat] = count

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(sorted(self._totals.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{c}={s:.3f}s" for c, s in self)
        return f"CostLedger({parts})"
