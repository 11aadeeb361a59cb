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
        file_capacity: int,
        ssd_spec: SSDSpec | None = None,
        usage_threshold: float,
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
