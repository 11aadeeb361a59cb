"""SSD-PS facade — the bottom layer of the hierarchy (paper Section 6).

Couples the append-only :class:`~repro.ssd.file_store.FileStore` with the
:class:`~repro.ssd.compaction.Compactor`.  The MEM-PS calls :meth:`load`
when its cache misses and :meth:`dump` when evicting; every dump runs one
compaction check, standing in for the paper's background thread while
keeping the simulation deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec
from repro.ssd.compaction import CompactionStats, Compactor
from repro.ssd.file_store import FileStore, ReadResult

__all__ = ["SSDPS", "SSDBatchStats"]

#: the facade's running counters, shipped whole with every snapshot
_COUNTERS = ("load_seconds", "dump_seconds", "total_compactions", "extent_cache_hits")


@dataclass(frozen=True)
class SSDBatchStats:
    """I/O accounting for one load or dump call."""

    seconds: float
    compaction: CompactionStats | None = None

    @property
    def total_seconds(self) -> float:
        extra = self.compaction.seconds if self.compaction else 0.0
        return self.seconds + extra


class SSDPS:
    """Materialized-parameter server on one node's SSD array."""

    def __init__(
        self,
        value_dim: int,
        *,
        file_capacity: int = 2**16,
        ssd_spec: SSDSpec | None = None,
        usage_threshold: float = 1.6,
        stale_fraction: float = 0.5,
        ledger: CostLedger | None = None,
        extent_cache_files: int = 0,
    ) -> None:
        self.ledger = ledger if ledger is not None else CostLedger()
        self.store = FileStore(
            value_dim,
            file_capacity,
            ssd_spec=ssd_spec,
            ledger=self.ledger,
            extent_cache_files=extent_cache_files,
        )
        self.compactor = Compactor(
            self.store,
            usage_threshold=usage_threshold,
            stale_fraction=stale_fraction,
        )
        self.load_seconds = 0.0
        self.dump_seconds = 0.0
        #: reads served from the cross-round extent cache (charged the
        #: cheap warm rate instead of a device read; see
        #: :class:`~repro.ssd.extent_cache.FileHandleCache`)
        self.extent_cache_hits = 0

    # ------------------------------------------------------------------
    @property
    def value_dim(self) -> int:
        return self.store.value_dim

    @property
    def n_live_params(self) -> int:
        return self.store.n_live_params

    def load(self, keys: np.ndarray) -> tuple[ReadResult, SSDBatchStats]:
        """Read values for ``keys`` (never-seen keys return found=False).

        Extent-cache hits are accounted exactly once, here: the store's
        :class:`~repro.ssd.file_store.ReadResult` already prices hit
        files at the warm rate inside its charged ``seconds``, so this
        facade only accumulates the result and never re-prices the read
        (a cache hit is charged once).
        """
        result = self.store.read(keys)
        self.load_seconds += result.seconds
        self.extent_cache_hits += result.cache_hits
        return result, SSDBatchStats(result.seconds)

    def dump(self, keys: np.ndarray, values: np.ndarray) -> SSDBatchStats:
        """Write updated parameters as new files, then check compaction."""
        seconds, _ = self.store.write(keys, values)
        comp = self.compactor.compact()
        self.dump_seconds += seconds + comp.seconds
        return SSDBatchStats(seconds, comp if comp.triggered else None)

    def check_invariants(self) -> None:
        self.store.check_invariants()

    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, np.ndarray]:
        """Snapshot the file store plus the facade's running counters.

        Restoring the exact file layout (not just the live rows) matters:
        stale fractions drive future compaction triggers, so a resumed
        run only reproduces the original run's I/O schedule if the files
        and their counters come back verbatim.
        """
        return self._with_counters(self.store.export_state())

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore from an :meth:`export_state` snapshot."""
        self.store.load_state(state)
        self.load_seconds = float(state["load_seconds"])
        self.dump_seconds = float(state["dump_seconds"])
        self.compactor.total_compactions = int(state["total_compactions"])
        self.extent_cache_hits = int(state.get("extent_cache_hits", 0))

    def export_delta(self) -> dict[str, np.ndarray]:
        """Diff against the snapshot last marked.

        The file store diffs exactly (immutable files, monotone ids);
        the facade's running counters are scalars, so they ship in full
        with every delta.
        """
        return self._with_counters(self.store.export_delta())

    def mark_snapshot(self) -> None:
        """The state as of now is a committed snapshot — the next
        :meth:`export_delta`'s base."""
        self.store.mark_snapshot()

    def fold_delta(
        self, base: dict[str, np.ndarray], delta: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """The snapshot an :meth:`export_delta` diff describes, built on
        the ``base`` it was diffed against (:meth:`FileStore.fold_delta`);
        the running counters are the delta's."""
        state = self.store.fold_delta(base, delta)
        state.update((name, delta[name].copy()) for name in _COUNTERS)
        return state

    def _with_counters(self, out: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out["load_seconds"] = np.float64(self.load_seconds)
        out["dump_seconds"] = np.float64(self.dump_seconds)
        out["total_compactions"] = np.int64(self.compactor.total_compactions)
        out["extent_cache_hits"] = np.int64(self.extent_cache_hits)
        return out
