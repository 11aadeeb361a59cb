"""Inter-node NIC (Figure 8 of the paper).

It charges remote pulls at
:meth:`~repro.hardware.specs.NetworkSpec.transfer_seconds`: with GPUDirect
RDMA over RoCE the NIC streams HBM to the peer (one latency +
bytes/bandwidth); the CPU-bounce baseline adds two PCIe copies and
per-message CPU overhead, the overhead the paper's RDMA design removes.
"""

from __future__ import annotations

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import NetworkSpec

__all__ = ["Network"]


class Network:
    """One node's NIC: charges remote pulls to the node's ledger.

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

    def send(self, n_bytes: int, *, n_messages: int = 1) -> float:
        """Charge a remote pull to ``net_remote_pull``; returns its seconds."""
        t = self.spec.transfer_seconds(n_bytes, n_messages)
        self.bytes_sent += n_bytes
        self.messages_sent += n_messages
        self.ledger.add("net_remote_pull", t)
        return t
