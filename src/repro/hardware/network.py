"""Inter-node transfer cost model (Figure 8 of the paper).

Two data paths are modeled:

* **RDMA / RoCE** — the NIC streams GPU HBM (or pinned host memory) directly
  to the peer's memory: one latency + bytes/bandwidth.
* **CPU bounce** (baseline) — data crosses PCIe into host memory, is sent by
  the CPU, lands in the peer's host memory and crosses PCIe again.  This
  pays two extra PCIe copies plus per-message CPU overhead, which is exactly
  the overhead the paper's RDMA design removes.
"""

from __future__ import annotations

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import NetworkSpec

__all__ = ["Network"]


class Network:
    """Cost model for one node's NIC.

    Parameters
    ----------
    spec:
        Fabric characteristics (bandwidth, latency, RDMA on/off).
    ledger:
        The node's ledger; remote pulls and all-reduce shares charge it.
    """

    def __init__(self, spec: NetworkSpec, ledger: CostLedger):
        self.spec = spec
        self.ledger = ledger
        self.bytes_sent = 0
        self.messages_sent = 0

    def transfer_time(self, n_bytes: int, *, n_messages: int = 1) -> float:
        """Simulated seconds to move ``n_bytes`` in ``n_messages`` sends."""
        if n_bytes < 0 or n_messages < 0:
            raise ValueError("negative transfer size")
        if n_bytes == 0 and n_messages == 0:
            return 0.0
        n_messages = max(n_messages, 1)
        t = n_messages * self.spec.latency_s + n_bytes / self.spec.bandwidth
        if not self.spec.rdma:
            # Two PCIe crossings (sender HBM->host, host->receiver HBM) and
            # CPU/driver involvement per message.
            t += 2 * n_bytes / self.spec.pcie_bandwidth
            t += n_messages * self.spec.cpu_bounce_overhead_s
        return t

    def send(self, n_bytes: int, *, n_messages: int = 1) -> float:
        """Charge a remote pull to ``net_remote_pull``; returns its seconds."""
        t = self.transfer_time(n_bytes, n_messages=n_messages)
        self.bytes_sent += n_bytes
        self.messages_sent += n_messages
        self.ledger.add("net_remote_pull", t)
        return t
