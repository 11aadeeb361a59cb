"""SSD block device.

The SSD-PS reads and writes whole parameter files; the device charges their
sizes to the node's ledger at the prices of :class:`SSDSpec` (sequential
bandwidth, sizes rounded up to the block granularity — which is what makes
small files waste bandwidth, the I/O-amplification trade-off of Appendix E)
and counts the traffic.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import SSDSpec

__all__ = ["SSDDevice"]


class SSDDevice:
    """Charges + usage accounting for one node's NVMe array."""

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
    def read_files(self, n_bytes: np.ndarray) -> np.ndarray:
        """Account whole-file reads of ``n_bytes`` each on the ledger, in
        order, one ``ssd_read`` sample per file; returns their seconds,
        the spec's ``read_seconds`` of each."""
        n_bytes = np.asarray(n_bytes, dtype=np.int64)
        seconds = self.spec.read_seconds(n_bytes)
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
        t = self.spec.write_seconds(n_bytes)
        self.bytes_written += n_bytes
        self.write_ops += 1
        self.ledger.add("ssd_write", t)
        if self.faults is not None:
            t += self.faults.stall("ssd_write_stall", t)
        return t
