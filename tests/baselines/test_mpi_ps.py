"""Tests for the MPI-cluster baseline."""

import pytest

from repro.baselines.mpi_ps import MPITimingModel
from repro.config import PAPER_MODELS
from repro.core.trainer import ReferenceTrainer


class TestTimingModel:
    def test_throughput_positive_all_models(self):
        for spec in PAPER_MODELS.values():
            assert MPITimingModel(spec).throughput() > 0

    def test_uses_table3_node_counts(self):
        m = MPITimingModel(PAPER_MODELS["D"])
        assert m.n_nodes == 150

    def test_override_node_count(self):
        m = MPITimingModel(PAPER_MODELS["A"], n_mpi_nodes=10)
        assert m.n_nodes == 10

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            MPITimingModel(PAPER_MODELS["A"], n_mpi_nodes=0)

    def test_bigger_models_slower_per_node(self):
        """Per-node rate falls with model scale (more unique keys per
        example, bigger payloads, heavier shard)."""
        rate_a = MPITimingModel(PAPER_MODELS["A"]).node_rate()
        rate_e = MPITimingModel(PAPER_MODELS["E"]).node_rate()
        assert rate_e < rate_a

    def test_components_positive(self):
        t = MPITimingModel(PAPER_MODELS["C"]).batch_time()
        assert t.compute_seconds > 0
        assert t.network_seconds > 0
        assert t.sync_seconds > 0
        assert t.total_seconds >= t.network_seconds

    def test_read_and_compute_lines_are_the_prices(self):
        """HDFS and CPU are the spec prices; the CPU derated by
        ``cpu_efficiency``."""
        m = MPITimingModel(PAPER_MODELS["C"])
        t, spec, b = m.batch_time(), m.spec, m.round_examples
        assert t.read_seconds == m.hdfs.transfer_seconds(
            b * (16 + 8 * spec.nonzeros_per_example)
        )
        assert t.compute_seconds == b * spec.train_flops_per_example / (
            m.cpu.flops * m.cpu_efficiency
        )

    def test_sync_grows_with_cluster(self):
        small = MPITimingModel(PAPER_MODELS["A"], n_mpi_nodes=8).batch_time()
        large = MPITimingModel(PAPER_MODELS["A"], n_mpi_nodes=128).batch_time()
        assert large.sync_seconds > small.sync_seconds


class TestFunctionalBaseline:
    def test_simulated_throughput_available(self, tiny_spec, small_config):
        """The functional baseline is the reference trainer's math priced
        by the MPI timing model at the trainer's own popularity law."""
        ref = ReferenceTrainer(tiny_spec, small_config, functional_batch_size=128)
        assert ref.train_round() > 0
        timing = MPITimingModel(tiny_spec, 4)
        assert timing.zipf_exponent == ref.generator.zipf_exponent
        assert timing.throughput() > 0
        assert timing.batch_time().total_seconds > 0
