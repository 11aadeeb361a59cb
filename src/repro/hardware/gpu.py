"""GPU compute and NVLink cost models.

The functional layer does real NumPy math; this module converts the *work
counts* of those operations (FLOPs, keys probed, bytes moved) into simulated
GPU seconds so paper-scale models can be timed without silicon.
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
    """Cost model for one simulated GPU card."""

    def __init__(self, spec: GPUSpec, ledger: CostLedger):
        self.spec = spec
        self.ledger = ledger

    def compute_time(self, flops: float) -> float:
        """Seconds for ``flops`` of dense work."""
        if flops < 0:
            raise ValueError("negative FLOPs")
        return flops / self.spec.flops

    def hashtable_time(self, n_keys: int, value_bytes: int) -> float:
        """Seconds for a batched hash-table op touching ``n_keys`` entries.

        Each probe moves the key plus the value payload through HBM; a fixed
        kernel-launch cost is added per batched call.
        """
        if n_keys < 0:
            raise ValueError("negative key count")
        moved = n_keys * (8 + value_bytes) * 2  # read + write
        return self.spec.kernel_launch_s + moved / self.spec.hbm_bandwidth

    def train(self, flops: float) -> float:
        t = self.compute_time(flops)
        self.ledger.add("gpu_compute", t)
        return t

    def table_op(self, n_keys: int, value_bytes: int, category: str) -> float:
        t = self.hashtable_time(n_keys, value_bytes)
        self.ledger.add(category, t)
        return t


class NVLink:
    """Intra-node inter-GPU transfer cost model."""

    def __init__(self, spec: NVLinkSpec, ledger: CostLedger):
        self.spec = spec
        self.ledger = ledger
        self.bytes_moved = 0

    def transfer_time(self, n_bytes: int, *, n_messages: int = 1) -> float:
        if n_bytes < 0:
            raise ValueError("negative transfer size")
        if n_bytes == 0 and n_messages == 0:
            return 0.0
        return max(n_messages, 1) * self.spec.latency_s + n_bytes / self.spec.bandwidth

    def send(self, n_bytes: int, *, n_messages: int = 1) -> float:
        t = self.transfer_time(n_bytes, n_messages=n_messages)
        self.bytes_moved += n_bytes
        self.ledger.add("nvlink", t)
        return t
