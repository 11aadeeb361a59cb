"""Hardware specifications for the simulated substrate.

Defaults describe the paper's testbed: 4 nodes, each with 8× 32 GB-HBM GPUs
connected by NVLink, ~1 TB RAM, ~20 TB RAID-0 NVMe SSD and a 100 Gb RDMA
NIC; nodes interconnected through a high-speed Ethernet switch; training
data streamed from HDFS.  All bandwidth/latency figures are effective
(post-protocol-overhead) values, chosen from the cited hardware generation
(V100-class GPUs, NVLink 2.0, PCIe 3.0 x16, 100 GbE RoCE).

Each hardware operation has one price: a method of its spec, work in,
seconds out, negative work refused.  The devices charge counted work at it,
the analytical models expected work on :func:`derated` specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "GPUSpec",
    "NVLinkSpec",
    "NetworkSpec",
    "SSDSpec",
    "HDFSSpec",
    "CPUSpec",
    "NodeHardware",
    "default_node_hardware",
    "derated",
]


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


def _check_transfer(n_bytes: float, n_messages: int) -> None:
    """Refuse a link transfer no sender makes: negative work, or bytes
    carried by no message."""
    if n_bytes < 0 or n_messages < 0:
        raise ValueError(f"negative transfer: {n_bytes!r} B, {n_messages!r} msgs")
    if n_bytes > 0 and n_messages == 0:
        raise ValueError(f"{n_bytes!r} B sent in no message")


def derated(spec, **factors: float):
    """``spec`` with each named rate scaled by its efficiency factor."""
    return replace(spec, **{f: getattr(spec, f) * x for f, x in factors.items()})


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

    def compute_seconds(self, flops: float) -> float:
        if flops < 0:
            raise ValueError(f"negative flops: {flops!r}")
        return flops / self.flops

    def hashtable_seconds(self, n_keys: float, value_bytes: float) -> float:
        """One kernel launch plus each key's key + value read and written
        through HBM."""
        if n_keys < 0 or value_bytes < 0:
            raise ValueError(f"negative table op: {n_keys!r} keys of {value_bytes!r} B")
        moved = n_keys * (8 + value_bytes) * 2
        return self.kernel_launch_s + moved / self.hbm_bandwidth


@dataclass(frozen=True)
class NVLinkSpec:
    """Intra-node GPU interconnect (NVLink 2.0: ~25 GB/s per direction
    per link pair, effective)."""

    bandwidth: float = 25e9
    latency_s: float = 5e-6

    def __post_init__(self) -> None:
        _validate(self, ("bandwidth",), ("latency_s",))

    def transfer_seconds(self, n_bytes: float, n_messages: int = 1) -> float:
        """One latency per message; bytes travel in messages, so bytes
        with no message are a ``ValueError``."""
        _check_transfer(n_bytes, n_messages)
        return n_messages * self.latency_s + n_bytes / self.bandwidth


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

    def transfer_seconds(self, n_bytes: float, n_messages: int = 1) -> float:
        """As NVLink's; without RDMA the bytes also cross PCIe twice and
        each message pays the CPU/driver overhead."""
        _check_transfer(n_bytes, n_messages)
        t = n_messages * self.latency_s + n_bytes / self.bandwidth
        if not self.rdma:
            t += 2 * n_bytes / self.pcie_bandwidth
            t += n_messages * self.cpu_bounce_overhead_s
        return t


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

    def _padded(self, n_bytes):
        """Whole files of ``n_bytes`` (scalar or array) rounded up to blocks."""
        if (n_bytes < 0).any() if isinstance(n_bytes, np.ndarray) else n_bytes < 0:
            raise ValueError(f"negative file size: {n_bytes!r}")
        return -(-n_bytes // self.block_bytes) * self.block_bytes

    def read_seconds(self, n_bytes):
        return self._padded(n_bytes) / self.seq_read_bandwidth

    def write_seconds(self, n_bytes):
        return self._padded(n_bytes) / self.seq_write_bandwidth


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

    def transfer_seconds(self, n_bytes: float) -> float:
        """Batch reads, checkpoint shards and quarantine re-reads alike."""
        if n_bytes < 0:
            raise ValueError(f"negative transfer: {n_bytes!r} B")
        return self.latency_s + n_bytes / self.bandwidth


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

    def compute_seconds(self, flops: float) -> float:
        if flops < 0:
            raise ValueError(f"negative flops: {flops!r}")
        return flops / self.flops

    def partition_seconds(self, n_keys: float) -> float:
        """Sharding keys across GPUs (Alg. 1 line 5) on half the cores."""
        if n_keys < 0:
            raise ValueError(f"negative key count: {n_keys!r}")
        return n_keys / (self.keys_per_second_per_core * max(1, self.cores // 2))


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
