"""Hardware specifications for the simulated substrate.

Defaults describe the paper's testbed: 4 nodes, each with 8× 32 GB-HBM GPUs
connected by NVLink, ~1 TB RAM, ~20 TB RAID-0 NVMe SSD and a 100 Gb RDMA
NIC; nodes interconnected through a high-speed Ethernet switch; training
data streamed from HDFS.  All bandwidth/latency figures are effective
(post-protocol-overhead) values, chosen from the cited hardware generation
(V100-class GPUs, NVLink 2.0, PCIe 3.0 x16, 100 GbE RoCE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GPUSpec",
    "NVLinkSpec",
    "NetworkSpec",
    "SSDSpec",
    "HDFSSpec",
    "CPUSpec",
    "NodeHardware",
    "default_node_hardware",
]

GB = 1e9


def _validate(
    spec, positive: tuple[str, ...], non_negative: tuple[str, ...] = ()
) -> None:
    """Refuse a spec that would price an operation at negative or NaN
    seconds: rates, sizes and counts (``positive``) must be finite and
    ``> 0``, latencies and overheads (``non_negative``) finite and
    ``>= 0``."""
    for name in positive + non_negative:
        v = getattr(spec, name)
        lower = name in non_negative
        if not (math.isfinite(v) and (v >= 0 if lower else v > 0)):
            raise ValueError(
                f"{type(spec).__name__}.{name} must be finite and "
                f"{'non-negative' if lower else 'positive'}, got {v!r}"
            )


@dataclass(frozen=True)
class GPUSpec:
    """One accelerator card."""

    #: Sustained dense throughput in FLOP/s (V100-class mixed precision,
    #: derated to an achievable fraction for MLP workloads).
    flops: float = 2.0e13
    #: HBM bandwidth (bytes/s) governing hash-table probe cost.
    hbm_bandwidth: float = 800e9
    #: Fixed kernel-launch overhead per batched hash-table operation.
    kernel_launch_s: float = 10e-6

    def __post_init__(self) -> None:
        _validate(self, ("flops", "hbm_bandwidth"), ("kernel_launch_s",))


@dataclass(frozen=True)
class NVLinkSpec:
    """Intra-node GPU interconnect (NVLink 2.0: ~25 GB/s per direction
    per link pair, effective)."""

    bandwidth: float = 25e9
    latency_s: float = 5e-6

    def __post_init__(self) -> None:
        _validate(self, ("bandwidth",), ("latency_s",))


@dataclass(frozen=True)
class NetworkSpec:
    """Inter-node fabric.

    ``rdma=True`` models GPUDirect RDMA over RoCE (Figure 8, solid path):
    NIC moves HBM→HBM with no CPU bounce.  ``rdma=False`` models the
    baseline dashed path: HBM→host memory→NIC→host memory→HBM, paying two
    extra PCIe copies and CPU involvement.
    """

    bandwidth: float = 100e9 / 8  # 100 Gb/s -> 12.5 GB/s
    latency_s: float = 10e-6
    rdma: bool = True
    #: PCIe 3.0 x16 effective bandwidth for the CPU-bounce path.
    pcie_bandwidth: float = 12e9
    #: Per-message CPU/driver overhead added when RDMA is disabled.
    cpu_bounce_overhead_s: float = 50e-6

    def __post_init__(self) -> None:
        _validate(
            self,
            ("bandwidth", "pcie_bandwidth"),
            ("latency_s", "cpu_bounce_overhead_s"),
        )


@dataclass(frozen=True)
class SSDSpec:
    """NVMe RAID-0 array.

    Sequential bandwidth applies to whole-file reads/writes (the SSD-PS
    only ever moves whole files).  ``block_bytes`` is the device I/O
    granularity — the source of the I/O-amplification argument in Section 6.
    """

    seq_read_bandwidth: float = 10e9
    seq_write_bandwidth: float = 8e9
    block_bytes: int = 4096

    def __post_init__(self) -> None:
        _validate(
            self, ("seq_read_bandwidth", "seq_write_bandwidth", "block_bytes")
        )


@dataclass(frozen=True)
class HDFSSpec:
    """Distributed-FS streaming throughput per node.

    The paper's Fig. 3(c) shows example reading ~70–80 s/batch regardless of
    model, i.e. HDFS is provisioned at a fixed per-node streaming rate.
    """

    bandwidth: float = 300e6
    latency_s: float = 1e-3

    def __post_init__(self) -> None:
        _validate(self, ("bandwidth",), ("latency_s",))


@dataclass(frozen=True)
class CPUSpec:
    """Host CPU used for partitioning/dedup and the MPI baseline compute."""

    cores: int = 48
    #: Effective per-core key-processing rate (hash+shuffle), keys/s.
    keys_per_second_per_core: float = 2.5e7
    #: Effective dense FLOP/s for the whole socket pair (MPI baseline).
    flops: float = 2.0e12
    memory_bytes: float = 1e12

    def __post_init__(self) -> None:
        _validate(
            self, ("cores", "keys_per_second_per_core", "flops", "memory_bytes")
        )


@dataclass(frozen=True)
class NodeHardware:
    """Everything one compute node owns."""

    gpu: GPUSpec
    nvlink: NVLinkSpec
    network: NetworkSpec
    ssd: SSDSpec
    hdfs: HDFSSpec
    cpu: CPUSpec
    gpus_per_node: int = 8

    def __post_init__(self) -> None:
        _validate(self, ("gpus_per_node",))


def default_node_hardware(*, gpus_per_node: int = 8) -> NodeHardware:
    """The paper's testbed node."""
    return NodeHardware(
        gpu=GPUSpec(),
        nvlink=NVLinkSpec(),
        network=NetworkSpec(),
        ssd=SSDSpec(),
        hdfs=HDFSSpec(),
        cpu=CPUSpec(),
        gpus_per_node=gpus_per_node,
    )
