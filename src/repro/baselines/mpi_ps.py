"""The MPI-cluster baseline (paper Sections 1.1–1.2, 7.1).

Baidu's pre-2020 production solution: a CPU-only cluster of 75–150 nodes
holding the full model sharded *in memory*; each node streams its own
training batches, pulls referenced parameters from the owning nodes over
Ethernet, computes gradients on the CPU, and pushes them back.

Its math is the classic BSP data-parallel parameter server, which on
identical data order computes the updates of the single-store
:class:`~repro.core.trainer.ReferenceTrainer`, so that trainer is the
functional baseline of Fig. 3(b).  This module prices it:
:class:`MPITimingModel` times one batch on an ``M``-node CPU cluster —
per-node CPU forward/backward, parameter pull/push traffic, and the
synchronization barrier whose straggler penalty grows with the node
count.  This is what Table 4 and Fig. 3(a) compare against.

The HDFS read and the CPU compute (derated by ``cpu_efficiency``) are
:mod:`repro.hardware.specs` prices.  Named differences: compute counts
:attr:`~repro.config.ModelSpec.train_flops_per_example`, as the HPS model
does; the PS pull/push runs at the ``ps_bandwidth`` goodput plus per-key
CPU, with no per-message latency and no RDMA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ModelSpec
from repro.hardware.specs import CPUSpec, HDFSSpec, derated
from repro.utils.stats import expected_unique_zipf

__all__ = ["MPITimingModel", "MPIBatchTime"]


@dataclass(frozen=True)
class MPIBatchTime:
    """Timing decomposition of one *per-node* batch round on the MPI
    cluster (every node processes its own batch, BSP-synchronized)."""

    read_seconds: float
    framework_seconds: float
    compute_seconds: float
    network_seconds: float
    sync_seconds: float

    @property
    def total_seconds(self) -> float:
        """Reads prefetch behind the previous round; compute, the PS
        pull/push path and per-example framework work serialize on the
        CPU (no 4-stage pipeline on the MPI solution)."""
        working = self.framework_seconds + self.compute_seconds + self.network_seconds
        return max(self.read_seconds, working) + self.sync_seconds


class MPITimingModel:
    """Cost model for the in-memory distributed parameter server.

    Every MPI node streams its own batches (data parallel over 75–150
    nodes), pulls its working parameters from the owning nodes, computes
    gradients on the CPU, and pushes them back before the BSP barrier.

    Calibration constants (effective efficiencies)
    ----------------------------------------------
    framework_overhead_s:
        Per-example CPU cost of the CPU training stack (feature parsing,
        example assembly, lock contention, allocator traffic) — dominant
        on small models, measured in production CPU trainers.
    key_overhead_s:
        Per-key (de)serialization + hash-table cost on the pull/push path,
        paid on both requester and owner sides.
    ps_bandwidth:
        Effective per-node parameter-server goodput.  Far below NIC line
        rate: RPC framing, incast congestion and owner-side lookups all
        land on this path.
    cpu_efficiency:
        Achieved fraction of nominal CPU FLOPs on embedding + MLP math.
    round_examples:
        Examples per node per BSP round.
    zipf_exponent:
        Key popularity skew of the click logs (the data generator's
        production-like default).
    cpu, hdfs:
        The paper testbed's CPU and distributed FS.
    """

    framework_overhead_s = 700e-6
    key_overhead_s = 2.0e-6
    ps_bandwidth = 8e6
    cpu_efficiency = 0.05
    barrier_s = 0.15
    round_examples = 100_000.0
    zipf_exponent = 1.05
    cpu = CPUSpec()
    hdfs = HDFSSpec()
    #: Owner-side lookups slow down as the per-node shard outgrows the CPU
    #: cache/TLB reach; per-key cost doubles per ``shard_pressure_bytes``
    #: of resident shard (A's 3 GB shard probes fast; E's 78 GB does not).
    shard_pressure_bytes = 30e9

    def __init__(self, spec: ModelSpec, n_mpi_nodes: int | None = None) -> None:
        if n_mpi_nodes is not None and n_mpi_nodes <= 0:
            raise ValueError("n_mpi_nodes must be positive")
        self.spec = spec
        self.n_nodes = n_mpi_nodes or spec.mpi_nodes

    # ------------------------------------------------------------------
    def working_params_per_round(self) -> float:
        """Expected unique keys referenced by one node's BSP round."""
        draws = self.round_examples * self.spec.nonzeros_per_example
        return expected_unique_zipf(draws, self.spec.n_sparse, self.zipf_exponent)

    def batch_time(self) -> MPIBatchTime:
        """Simulated seconds for one per-node round of ``round_examples``."""
        spec = self.spec
        b = self.round_examples

        read_bytes = b * (16 + 8 * spec.nonzeros_per_example)
        read_s = self.hdfs.transfer_seconds(read_bytes)

        framework_s = b * self.framework_overhead_s

        # CPU forward/backward: dense tower plus embedding gather/scatter.
        cpu = derated(self.cpu, flops=self.cpu_efficiency)
        compute_s = cpu.compute_seconds(b * spec.train_flops_per_example)

        # Parameter pull + gradient push: unique working keys cross the
        # wire twice (values down, gradients up) and pay per-key CPU on
        # both ends.
        w = self.working_params_per_round()
        wire_bytes = w * (16 + spec.bytes_per_sparse_param)
        shard_bytes = spec.size_gb * 1e9 / self.n_nodes
        key_cost = self.key_overhead_s * (1.0 + shard_bytes / self.shard_pressure_bytes)
        net_s = wire_bytes / self.ps_bandwidth + w * key_cost

        sync_s = self.barrier_s * float(np.log2(max(2, self.n_nodes)))
        return MPIBatchTime(read_s, framework_s, compute_s, net_s, sync_s)

    def node_rate(self) -> float:
        """Examples/second sustained by one MPI node."""
        return self.round_examples / self.batch_time().total_seconds

    def throughput(self) -> float:
        """Cluster examples/second (Fig. 3(a) y-axis)."""
        return self.n_nodes * self.node_rate()
