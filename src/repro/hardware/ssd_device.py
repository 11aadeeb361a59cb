"""SSD block-device cost model.

The SSD-PS reads and writes whole parameter files; the device model converts
file sizes into simulated seconds.  Every transfer is a whole file, so it
runs at the array's sequential bandwidth.  Sizes are
rounded up to the block granularity, which is what makes small files waste
bandwidth (the I/O-amplification trade-off of Appendix E).
"""

from __future__ import annotations

import math

import numpy as np

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec

__all__ = ["SSDDevice"]


class SSDDevice:
    """Cost model + usage accounting for one node's NVMe array."""

    def __init__(self, spec: SSDSpec, ledger: CostLedger):
        self.spec = spec
        self.ledger = ledger
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        #: fault-injection guard for write stalls
        #: (:class:`repro.faults.policy.FaultArm`; None = fault-free)
        self.faults = None

    # ------------------------------------------------------------------
    def _blocks(self, n_bytes: int) -> int:
        return max(1, math.ceil(n_bytes / self.spec.block_bytes))

    def read_time(self, n_bytes: int) -> float:
        """Seconds to read ``n_bytes`` (one file)."""
        if n_bytes < 0:
            raise ValueError("negative read size")
        if n_bytes == 0:
            return 0.0
        padded = self._blocks(n_bytes) * self.spec.block_bytes
        return padded / self.spec.seq_read_bandwidth

    def write_time(self, n_bytes: int) -> float:
        """Seconds to write ``n_bytes`` (one file, append-only)."""
        if n_bytes < 0:
            raise ValueError("negative write size")
        if n_bytes == 0:
            return 0.0
        padded = self._blocks(n_bytes) * self.spec.block_bytes
        return padded / self.spec.seq_write_bandwidth

    # ------------------------------------------------------------------
    def read_files(self, n_bytes: np.ndarray) -> np.ndarray:
        """Account whole-file reads of ``n_bytes`` each on the ledger, in
        order, one ``ssd_read`` sample per file; returns their seconds,
        :meth:`read_time` of each."""
        n_bytes = np.asarray(n_bytes, dtype=np.int64)
        if (n_bytes < 0).any():
            raise ValueError("negative read size")
        block = self.spec.block_bytes
        padded = np.maximum(1, -(-n_bytes // block)) * block
        seconds = np.where(n_bytes > 0, padded / self.spec.seq_read_bandwidth, 0.0)
        self.bytes_read += int(n_bytes.sum())
        self.read_ops += int(n_bytes.size)
        self.ledger.add_each("ssd_read", seconds)
        return seconds

    def write(self, n_bytes: int) -> float:
        """Account a write on the ledger; returns simulated seconds.

        An armed device may additionally stall the write (garbage
        collection pauses, write-cliff behaviour): the stall never fails
        the operation, it just costs extra simulated seconds, charged to
        the ledger's ``fault_retry`` line by the arm.
        """
        t = self.write_time(n_bytes)
        self.bytes_written += n_bytes
        self.write_ops += 1
        self.ledger.add("ssd_write", t)
        if self.faults is not None:
            t += self.faults.stall("ssd_write_stall", t)
        return t
