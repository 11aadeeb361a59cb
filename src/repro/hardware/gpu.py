"""GPU compute and NVLink devices.

The functional layer does real NumPy math; these devices charge the *work
counts* of those operations (FLOPs, keys probed, bytes moved) to the node's
ledger at the prices of :mod:`repro.hardware.specs`, so paper-scale models
can be timed without silicon.
"""

from __future__ import annotations

from repro.hardware.ledger import CostLedger
from repro.hardware.specs import GPUSpec, NVLinkSpec

__all__ = ["GPUDevice", "NVLink", "dense_flops_per_example"]


def dense_flops_per_example(
    n_slots: int, embedding_dim: int, hidden_layers: tuple[int, ...]
) -> float:
    """FLOPs for one example's forward+backward through the MLP tower.

    Forward GEMM ≈ 2·in·out per layer; backward ≈ 2× forward (grad wrt
    inputs + grad wrt weights), giving the standard 6·in·out total.
    """
    dims = [n_slots * embedding_dim, *hidden_layers, 1]
    return float(sum(6 * a * b for a, b in zip(dims[:-1], dims[1:])))


class GPUDevice:
    """One simulated GPU card: charges dense compute and hash-table ops,
    priced by its :class:`GPUSpec`, to the node's ledger."""

    def __init__(self, spec: GPUSpec, ledger: CostLedger):
        self.spec = spec
        self.ledger = ledger

    def train(self, flops: float) -> float:
        return self.ledger.add("gpu_compute", self.spec.compute_seconds(flops))

    def table_op(self, n_keys: int, value_bytes: int, category: str) -> float:
        t = self.spec.hashtable_seconds(n_keys, value_bytes)
        return self.ledger.add(category, t)


class NVLink:
    """Intra-node inter-GPU link: charges transfers, priced by its
    :class:`NVLinkSpec`, to the node's ledger."""

    def __init__(self, spec: NVLinkSpec, ledger: CostLedger):
        self.spec = spec
        self.ledger = ledger
        self.bytes_moved = 0

    def send(self, n_bytes: int, *, n_messages: int = 1) -> float:
        t = self.spec.transfer_seconds(n_bytes, n_messages)
        self.bytes_moved += n_bytes
        self.ledger.add("nvlink", t)
        return t
