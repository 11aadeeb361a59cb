"""SSD-PS facade — the bottom layer of the hierarchy (paper Section 6).

Couples the append-only :class:`~repro.ssd.file_store.FileStore` with the
:class:`~repro.ssd.compaction.Compactor`.  The MEM-PS calls :meth:`load`
when its cache misses and :meth:`dump` when evicting; every dump runs one
compaction check, standing in for the paper's background thread while
keeping the simulation deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec
from repro.ssd.compaction import Compactor
from repro.ssd.file_store import FileStore, ReadResult

__all__ = ["SSDPS"]


class SSDPS:
    """Materialized-parameter server on one node's SSD array."""

    def __init__(
        self,
        value_dim: int,
        *,
        file_capacity: int = 2**16,
        ssd_spec: SSDSpec | None = None,
        usage_threshold: float = 1.6,
        ledger: CostLedger | None = None,
    ) -> None:
        self.ledger = ledger if ledger is not None else CostLedger()
        self.store = FileStore(
            value_dim, file_capacity, ssd_spec=ssd_spec, ledger=self.ledger
        )
        self.compactor = Compactor(self.store, usage_threshold=usage_threshold)

    # ------------------------------------------------------------------
    @property
    def value_dim(self) -> int:
        return self.store.value_dim

    @property
    def n_live_params(self) -> int:
        return self.store.n_live_params

    def load(self, keys: np.ndarray) -> ReadResult:
        """Read values for ``keys`` (never-seen keys return found=False);
        every touched file is charged to the ledger's ``ssd_read`` line."""
        return self.store.read(keys)

    def dump(self, keys: np.ndarray, values: np.ndarray) -> float:
        """Write updated parameters as new files, then check compaction;
        returns the simulated seconds of both."""
        seconds, _ = self.store.write(keys, values)
        return seconds + self.compactor.compact()

    def check_invariants(self) -> None:
        self.store.check_invariants()

    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, np.ndarray]:
        """Snapshot the file store plus the compaction counter.

        Restoring the exact file layout (not just the live rows) matters:
        stale fractions drive future compaction triggers, so a resumed
        run only reproduces the original run's I/O schedule if the files
        and their counters come back verbatim.
        """
        return self._with_counter(self.store.export_state())

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore from an :meth:`export_state` snapshot."""
        self.store.load_state(state)
        self.compactor.total_compactions = int(state["total_compactions"])

    def export_delta(self) -> dict[str, np.ndarray]:
        """Diff against the snapshot last marked.

        The file store diffs exactly (immutable files, monotone ids);
        the compaction counter is a scalar, so it ships in full with
        every delta.
        """
        return self._with_counter(self.store.export_delta())

    def mark_snapshot(self) -> None:
        """The state as of now is a committed snapshot — the next
        :meth:`export_delta`'s base."""
        self.store.mark_snapshot()

    def fold_delta(
        self, base: dict[str, np.ndarray], delta: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """The snapshot an :meth:`export_delta` diff describes, built on
        the ``base`` it was diffed against (:meth:`FileStore.fold_delta`);
        the compaction counter is the delta's."""
        state = self.store.fold_delta(base, delta)
        state["total_compactions"] = delta["total_compactions"].copy()
        return state

    def _with_counter(self, out: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out["total_compactions"] = np.int64(self.compactor.total_compactions)
        return out
