"""Tests for the hardware cost models and ledger."""

from dataclasses import fields

import numpy as np
import pytest

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

    def test_merge(self):
        a, b = CostLedger(), CostLedger()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 1.0)
        a.merge(b)
        assert a.total("x") == 3.0
        assert a.total("y") == 1.0

    def test_snapshot_delta(self):
        l = CostLedger()
        l.add("x", 1.0)
        snap = l.snapshot()
        l.add("x", 2.0)
        l.add("y", 5.0)
        delta = l.delta_since(snap)
        assert delta == {"x": 2.0, "y": 5.0}

    def test_snapshot_independent(self):
        l = CostLedger()
        snap = l.snapshot()
        l.add("x", 1.0)
        assert snap.total("x") == 0.0

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


class TestNetwork:
    def test_rdma_faster_than_bounce(self):
        rdma = Network(NetworkSpec(rdma=True))
        bounce = Network(NetworkSpec(rdma=False))
        n = 10**8
        assert rdma.transfer_time(n) < bounce.transfer_time(n)

    def test_latency_per_message(self):
        net = Network(NetworkSpec())
        one = net.transfer_time(0, n_messages=1)
        ten = net.transfer_time(0, n_messages=10)
        assert ten == pytest.approx(10 * one)

    def test_send_accounts(self):
        net = Network(NetworkSpec())
        t = net.send(1000)
        assert net.bytes_sent == 1000
        assert net.messages_sent == 1
        assert net.ledger.total("net_remote_pull") == pytest.approx(t)

    def test_zero_transfer(self):
        net = Network(NetworkSpec())
        assert net.transfer_time(0, n_messages=0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Network(NetworkSpec()).transfer_time(-1)


class TestSSDDevice:
    def test_block_rounding(self):
        dev = SSDDevice(SSDSpec(block_bytes=4096))
        assert dev.read_time(1) == dev.read_time(4096)
        assert dev.read_time(4097) > dev.read_time(4096)

    def test_accounting(self):
        dev = SSDDevice(SSDSpec())
        dev.read_files(np.asarray([8192]))
        dev.write(4096)
        assert dev.bytes_read == 8192
        assert dev.bytes_written == 4096
        assert dev.read_ops == 1 and dev.write_ops == 1
        assert dev.ledger.total("ssd_read") > 0
        assert dev.ledger.total("ssd_write") > 0

    def test_read_files_prices_and_sums_like_one_read_per_file(self):
        """Per-file seconds are read_time, the ledger line is their
        in-order sum, and every file is a device read."""
        dev = SSDDevice(SSDSpec())
        dev.ledger.add("ssd_read", 0.1)
        sizes = np.asarray([0, 1, 4096, 4097, 3 * 10**6, 777])
        seconds = dev.read_files(sizes)
        expect = [dev.read_time(n) for n in sizes.tolist()]
        assert seconds.tolist() == expect
        total = 0.1
        for t in expect:
            total += t
        assert dev.ledger.total("ssd_read") == total  # bit-equal
        assert dev.ledger.count("ssd_read") == 1 + sizes.size
        assert dev.read_ops == 6 and dev.bytes_read == 1 + 4096 + 4097 + 3 * 10**6 + 777
        with pytest.raises(ValueError):
            dev.read_files(np.asarray([-1]))

    def test_zero_io(self):
        dev = SSDDevice(SSDSpec())
        assert dev.read_time(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SSDDevice(SSDSpec()).read_time(-5)


class TestGPU:
    def test_compute_time_linear_in_flops(self):
        gpu = GPUDevice(GPUSpec())
        assert gpu.compute_time(2e12) == pytest.approx(2 * gpu.compute_time(1e12))

    def test_hashtable_time_has_launch_floor(self):
        gpu = GPUDevice(GPUSpec())
        assert gpu.hashtable_time(0, 8) >= GPUSpec().kernel_launch_s

    def test_train_accounts(self):
        gpu = GPUDevice(GPUSpec())
        t = gpu.train(1e12)
        assert gpu.ledger.total("gpu_compute") == pytest.approx(t)

    def test_dense_flops_formula(self):
        # dims: 4*2=8 -> 4 -> 1 : 6*(8*4 + 4*1) = 216
        assert dense_flops_per_example(4, 2, (4,)) == 216.0


class TestNVLink:
    def test_transfer_time(self):
        nv = NVLink(NVLinkSpec(bandwidth=1e9, latency_s=1e-6))
        assert nv.transfer_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_send_accounts(self):
        nv = NVLink(NVLinkSpec())
        nv.send(500)
        assert nv.bytes_moved == 500
        assert nv.ledger.total("nvlink") > 0


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
