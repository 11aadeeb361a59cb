"""Tests for the simulated HDFS stream."""

import numpy as np
import pytest

from repro.config import ModelSpec
from repro.core.cluster import HPSCluster, RoundContext
from repro.data.generator import CTRDataGenerator
from repro.data.hdfs import HDFSStream
from repro.hardware.ledger import CostLedger
from repro.hardware.specs import HDFSSpec


@pytest.fixture
def gen():
    spec = ModelSpec(
        name="hdfs-test",
        nonzeros_per_example=8,
        n_sparse=5_000,
        n_dense=100,
        size_gb=0.001,
        mpi_nodes=1,
        embedding_dim=4,
        n_slots=4,
    )
    return CTRDataGenerator(spec, seed=0)


class TestHDFSStream:
    def test_read_charges_ledger(self, gen):
        s = HDFSStream(gen, HDFSSpec(), batch_size=64, ledger=CostLedger())
        tb = s.read(0)
        assert tb.read_seconds > 0
        assert s.ledger.total("hdfs_read") == pytest.approx(tb.read_seconds)

    def test_read_time_scales_with_batch_size(self, gen):
        spec = HDFSSpec()
        small = HDFSStream(gen, spec, batch_size=64, ledger=CostLedger()).read(0)
        large = HDFSStream(gen, spec, batch_size=640, ledger=CostLedger()).read(0)
        assert large.read_seconds > small.read_seconds

    def test_nodes_receive_disjoint_batches(self, tiny_spec, small_config):
        """A cluster's read stage hands node ``i`` of ``n`` global batch
        ``r * n + i`` in round ``r``, so no two streams share a batch."""
        cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=32)
        read = []
        for r in range(3):
            ctx = RoundContext(round_index=r)
            cluster.stage_read(ctx)
            read.append([timed.index for timed in ctx.timed])
        assert read == [[0, 1], [2, 3], [4, 5]]

    def test_same_index_same_data(self, gen):
        spec = HDFSSpec()
        a = HDFSStream(gen, spec, batch_size=32, ledger=CostLedger()).read(7)
        b = HDFSStream(gen, spec, batch_size=32, ledger=CostLedger()).read(7)
        assert np.array_equal(a.batch.keys, b.batch.keys)

    def test_counters(self, gen):
        s = HDFSStream(gen, HDFSSpec(), batch_size=64, ledger=CostLedger())
        for index in range(4):
            s.read(index)
        assert s.batches_read == 4
        assert s.bytes_read > 0

    def test_invalid_batch_size(self, gen):
        with pytest.raises(ValueError):
            HDFSStream(gen, HDFSSpec(), batch_size=0, ledger=CostLedger())

    def test_bandwidth_inverse_to_time(self, gen):
        fast, slow = (
            HDFSStream(gen, HDFSSpec(bandwidth=bw), batch_size=256, ledger=CostLedger())
            .read(0)
            for bw in (1e9, 1e6)
        )
        # Latency (1 ms) floors the fast read; bandwidth still dominates.
        assert slow.read_seconds > fast.read_seconds * 10

    @pytest.mark.parametrize("n_bytes", [0, 1, 4096, 10**9])
    def test_transfer_seconds_is_alpha_beta(self, n_bytes):
        """Every HDFS byte — batch reads, snapshot saves and restores,
        quarantine re-reads — pays the α–β closed form."""
        spec = HDFSSpec()
        expected = spec.latency_s + n_bytes / spec.bandwidth
        assert spec.transfer_seconds(n_bytes) == expected
