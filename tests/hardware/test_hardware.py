"""Tests for the hardware prices, the devices that charge them, and the ledger."""

from dataclasses import fields

import numpy as np
import pytest

from repro.config import ModelSpec
from repro.data.generator import CTRDataGenerator
from repro.data.hdfs import HDFSStream
from repro.hardware.gpu import GPUDevice, NVLink, dense_flops_per_example
from repro.hardware.ledger import CostLedger
from repro.hardware.network import Network
from repro.hardware.specs import (
    CPUSpec,
    GPUSpec,
    HDFSSpec,
    NetworkSpec,
    NVLinkSpec,
    SSDSpec,
    default_node_hardware,
)
from repro.hardware.ssd_device import SSDDevice


class TestLedger:
    def test_add_and_total(self):
        l = CostLedger()
        l.add("a", 1.0)
        l.add("a", 2.0)
        l.add("b", 0.5)
        assert l.total("a") == 3.0
        assert l.total() == 3.5
        assert l.count("a") == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().add("x", -1.0)

    def test_reset(self):
        l = CostLedger()
        l.add("x", 1.0)
        l.reset()
        assert l.total() == 0.0

    def test_iteration_sorted(self):
        l = CostLedger()
        l.add("b", 1.0)
        l.add("a", 1.0)
        assert [c for c, _ in l] == ["a", "b"]


class TestPrices:
    """Properties of the spec prices every clock calls."""

    def test_rdma_faster_than_bounce(self):
        n = 10**8
        assert NetworkSpec(rdma=True).transfer_seconds(n) < NetworkSpec(
            rdma=False
        ).transfer_seconds(n)

    def test_latency_per_message(self):
        net = NetworkSpec()
        one = net.transfer_seconds(0, 1)
        ten = net.transfer_seconds(0, 10)
        assert ten == pytest.approx(10 * one)

    @pytest.mark.parametrize(
        "spec", [NetworkSpec(), NVLinkSpec()], ids=["net", "nvlink"]
    )
    def test_zero_transfer(self, spec):
        assert spec.transfer_seconds(0, 0) == 0.0

    @pytest.mark.parametrize(
        "spec",
        [NetworkSpec(), NetworkSpec(rdma=False), NVLinkSpec()],
        ids=["net", "net-bounce", "nvlink"],
    )
    def test_bytes_in_no_message_are_refused(self, spec):
        """Bytes travel in messages: 4096 B in zero messages used to be
        priced as one message's latency."""
        with pytest.raises(ValueError, match="no message"):
            spec.transfer_seconds(4096, 0)

    def test_refused_send_charges_nothing(self):
        ledger = CostLedger()
        net = Network(NetworkSpec(), ledger)
        with pytest.raises(ValueError, match="no message"):
            net.send(4096, n_messages=0)
        assert ledger.as_dict() == {}
        assert net.messages_sent == 0 and net.bytes_sent == 0

    def test_block_rounding(self):
        ssd = SSDSpec(block_bytes=4096)
        assert ssd.read_seconds(1) == ssd.read_seconds(4096)
        assert ssd.read_seconds(4097) > ssd.read_seconds(4096)
        assert ssd.write_seconds(1) == ssd.write_seconds(4096)

    def test_zero_io(self):
        assert SSDSpec().read_seconds(0) == SSDSpec().write_seconds(0) == 0.0

    def test_ssd_array_price_is_the_scalar_price_of_each_file(self):
        ssd = SSDSpec()
        sizes = np.asarray([0, 1, 4096, 4097, 3 * 10**6, 777])
        assert ssd.read_seconds(sizes).tolist() == [
            ssd.read_seconds(n) for n in sizes.tolist()
        ]
        assert ssd.write_seconds(sizes).tolist() == [
            ssd.write_seconds(n) for n in sizes.tolist()
        ]

    def test_compute_linear_in_flops(self):
        gpu = GPUSpec()
        assert gpu.compute_seconds(2e12) == pytest.approx(2 * gpu.compute_seconds(1e12))

    def test_hashtable_has_launch_floor(self):
        assert GPUSpec().hashtable_seconds(0, 8) >= GPUSpec().kernel_launch_s

    def test_partition_uses_half_the_cores(self):
        cpu = CPUSpec(cores=48, keys_per_second_per_core=1e6)
        assert cpu.partition_seconds(24e6) == 1.0
        assert CPUSpec(cores=1).partition_seconds(1) == CPUSpec(
            cores=2
        ).partition_seconds(1)

    @pytest.mark.parametrize(
        "price, work",
        [
            (GPUSpec().compute_seconds, (-1.0,)),
            (GPUSpec().hashtable_seconds, (-1, 8)),
            (GPUSpec().hashtable_seconds, (1, -8)),
            (NVLinkSpec().transfer_seconds, (-1,)),
            (NVLinkSpec().transfer_seconds, (10, -3)),
            (NetworkSpec().transfer_seconds, (-1,)),
            (NetworkSpec(rdma=False).transfer_seconds, (10, -3)),
            (SSDSpec().read_seconds, (-5,)),
            (SSDSpec().read_seconds, (np.asarray([4096, -1]),)),
            (SSDSpec().write_seconds, (-5,)),
            (HDFSSpec().transfer_seconds, (-1e9,)),
            (CPUSpec().compute_seconds, (-1.0,)),
            (CPUSpec().partition_seconds, (-1,)),
        ],
        ids=lambda v: getattr(v, "__qualname__", None),
    )
    def test_every_price_refuses_negative_work(self, price, work):
        """No price turns negative work into seconds: e.g. an NVLink send
        of 10 bytes in -3 messages, or -1e9 HDFS bytes (-3.33 s at the
        testbed's 300 MB/s)."""
        with pytest.raises(ValueError, match="negative"):
            price(*work)


def _generator():
    spec = ModelSpec(
        name="price-test", nonzeros_per_example=8, n_sparse=5_000, n_dense=100,
        size_gb=0.001, mpi_nodes=1, embedding_dim=4, n_slots=4,
    )
    return CTRDataGenerator(spec, seed=0)


_SIZES = np.asarray([0, 1, 4096, 4097, 3 * 10**6, 777])
_NV = NVLinkSpec(bandwidth=1e9, latency_s=1e-6)

#: (device, its charge, the spec price of the same work, ledger category):
#: a device's charge is its spec's price, to the bit.
CHARGES = {
    "gpu-train-1e12": (
        lambda l: GPUDevice(GPUSpec(), l), lambda d: d.train(1e12),
        lambda: GPUSpec().compute_seconds(1e12), "gpu_compute",
    ),
    "gpu-train-2e12": (
        lambda l: GPUDevice(GPUSpec(), l), lambda d: d.train(2e12),
        lambda: GPUSpec().compute_seconds(2e12), "gpu_compute",
    ),
    "gpu-table-empty": (
        lambda l: GPUDevice(GPUSpec(), l), lambda d: d.table_op(0, 8, "hbm_pull"),
        lambda: GPUSpec().hashtable_seconds(0, 8), "hbm_pull",
    ),
    "gpu-table": (
        lambda l: GPUDevice(GPUSpec(), l), lambda d: d.table_op(1000, 32, "hbm_push"),
        lambda: GPUSpec().hashtable_seconds(1000, 32), "hbm_push",
    ),
    "nvlink-1e9": (
        lambda l: NVLink(_NV, l), lambda d: d.send(10**9),
        lambda: _NV.transfer_seconds(10**9), "nvlink",
    ),
    "nvlink-messages": (
        lambda l: NVLink(NVLinkSpec(), l), lambda d: d.send(500, n_messages=7),
        lambda: NVLinkSpec().transfer_seconds(500, 7), "nvlink",
    ),
    "net-rdma": (
        lambda l: Network(NetworkSpec(), l), lambda d: d.send(10**8),
        lambda: NetworkSpec().transfer_seconds(10**8), "net_remote_pull",
    ),
    "net-bounce": (
        lambda l: Network(NetworkSpec(rdma=False), l),
        lambda d: d.send(10**8, n_messages=3),
        lambda: NetworkSpec(rdma=False).transfer_seconds(10**8, 3),
        "net_remote_pull",
    ),
    "net-latency-only": (
        lambda l: Network(NetworkSpec(), l), lambda d: d.send(0, n_messages=10),
        lambda: NetworkSpec().transfer_seconds(0, 10), "net_remote_pull",
    ),
    "ssd-read-files": (
        lambda l: SSDDevice(SSDSpec(), l), lambda d: d.read_files(_SIZES),
        lambda: [SSDSpec().read_seconds(n) for n in _SIZES.tolist()], "ssd_read",
    ),
    "ssd-write": (
        lambda l: SSDDevice(SSDSpec(), l), lambda d: d.write(4097),
        lambda: SSDSpec().write_seconds(4097), "ssd_write",
    ),
    "ssd-write-empty": (
        lambda l: SSDDevice(SSDSpec(), l), lambda d: d.write(0),
        lambda: SSDSpec().write_seconds(0), "ssd_write",
    ),
    "hdfs-read": (
        lambda l: HDFSStream(_generator(), HDFSSpec(), batch_size=64, ledger=l),
        lambda d: d.read(3).read_seconds,
        lambda: HDFSSpec().transfer_seconds(
            _generator().batch(3, 64).nbytes_raw_log()
        ),
        "hdfs_read",
    ),
}


@pytest.mark.parametrize("case", list(CHARGES))
def test_each_device_charges_its_spec_price(case):
    """The device returns the spec's price of the work it was handed,
    and its ledger line is those seconds added in order (bit-equal)."""
    make, charge, price, category = CHARGES[case]
    ledger = CostLedger()
    charged = np.atleast_1d(charge(make(ledger))).tolist()
    expected = np.atleast_1d(price()).tolist()
    assert charged == expected
    total = 0.0
    for t in expected:
        total += t
    assert ledger.total(category) == total
    assert ledger.count(category) == len(expected)


def test_nvlink_price_is_alpha_beta():
    assert _NV.transfer_seconds(10**9) == pytest.approx(1.0 + 1e-6)


class TestAccounting:
    def test_network_send_counts(self):
        net = Network(NetworkSpec(), CostLedger())
        net.send(1000)
        assert net.bytes_sent == 1000
        assert net.messages_sent == 1

    def test_ssd_counts(self):
        dev = SSDDevice(SSDSpec(), CostLedger())
        dev.read_files(np.asarray([8192]))
        dev.write(4096)
        assert dev.bytes_read == 8192
        assert dev.bytes_written == 4096
        assert dev.read_ops == 1 and dev.write_ops == 1

    def test_read_files_counts_every_file_and_refuses_negative_sizes(self):
        dev = SSDDevice(SSDSpec(), CostLedger())
        dev.read_files(_SIZES)
        assert dev.read_ops == 6 and dev.bytes_read == int(_SIZES.sum())
        with pytest.raises(ValueError):
            dev.read_files(np.asarray([-1]))
        assert dev.read_ops == 6 and dev.ledger.count("ssd_read") == 6

    def test_nvlink_send_counts(self):
        nv = NVLink(NVLinkSpec(), CostLedger())
        nv.send(500)
        assert nv.bytes_moved == 500


def test_dense_flops_formula():
    # dims: 4*2=8 -> 4 -> 1 : 6*(8*4 + 4*1) = 216
    assert dense_flops_per_example(4, 2, (4,)) == 216.0


class TestSpecs:
    def test_default_node_hardware(self):
        hw = default_node_hardware()
        assert hw.gpus_per_node == 8
        assert hw.network.rdma

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SSDSpec(block_bytes=0)
        with pytest.raises(ValueError):
            HDFSSpec(bandwidth=0)
        with pytest.raises(ValueError):
            NVLinkSpec(bandwidth=-1)

    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (cls, f.name, value)
            for cls in (GPUSpec, NVLinkSpec, NetworkSpec, SSDSpec, HDFSSpec, CPUSpec)
            for f in fields(cls)
            if f.type != "bool"
            for value in (-1.0, float("nan"), float("inf"))
        ],
    )
    def test_spec_refuses_negative_or_non_finite_values(self, cls, field, value):
        """Every rate, size, latency and overhead of every spec: a value
        that would price an operation at negative, NaN or infinite
        seconds is refused at construction, naming the field — e.g.
        ``HDFSSpec(latency_s=-1.0)`` or ``SSDSpec(seq_read_bandwidth=nan)``."""
        with pytest.raises(ValueError, match=f"{cls.__name__}.{field} must be"):
            cls(**{field: value})
