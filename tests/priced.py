"""Priced components built on their own, as a node builds them.

``HPSNode`` hands every priced component the node's hardware specs and
its one :class:`~repro.hardware.ledger.CostLedger`, and the constructors
default neither.  A test that exercises one tier outside a node builds it
here: with the paper testbed's specs and the ledger the caller passes —
one shared by the test's components when it reads a node-level total, a
fresh ``CostLedger()`` when it reads none.
"""

from __future__ import annotations

from repro.hardware.ledger import CostLedger
from repro.hardware.network import Network
from repro.hardware.specs import default_node_hardware
from repro.hbm.hbm_ps import HBMPS
from repro.nn.optim import SparseOptimizer
from repro.ssd.ssd_ps import SSDPS

__all__ = ["HARDWARE", "hbm_ps", "networks", "ssd_ps"]

#: the paper testbed's node (the GPU count is the caller's)
HARDWARE = default_node_hardware()


def hbm_ps(
    n_gpus: int, capacity_per_gpu: int, optimizer: SparseOptimizer, ledger: CostLedger
) -> HBMPS:
    return HBMPS(
        n_gpus,
        capacity_per_gpu,
        optimizer,
        gpu_spec=HARDWARE.gpu,
        nvlink_spec=HARDWARE.nvlink,
        ledger=ledger,
    )


def ssd_ps(
    value_dim: int, ledger: CostLedger, *, file_capacity: int, usage_threshold: float
) -> SSDPS:
    return SSDPS(
        value_dim,
        file_capacity=file_capacity,
        ssd_spec=HARDWARE.ssd,
        usage_threshold=usage_threshold,
        ledger=ledger,
    )


def networks(n_nodes: int) -> list[Network]:
    """One NIC per node, each on its own fresh ledger."""
    return [Network(HARDWARE.network, CostLedger()) for _ in range(n_nodes)]
