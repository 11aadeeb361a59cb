"""Tests for the paper-scale analytical timing model — these pin down the
qualitative shapes the paper's evaluation section reports."""

from dataclasses import replace

import pytest

from repro.bench.analytical import AnalyticalHPS
from repro.config import PAPER_MODELS
from repro.hardware.specs import NetworkSpec, default_node_hardware


class TestBatchTime:
    def test_all_components_positive(self):
        t = AnalyticalHPS(PAPER_MODELS["C"]).batch_time()
        for field in (
            t.read_seconds,
            t.pull_local_seconds,
            t.pull_remote_seconds,
            t.hbm_pull_seconds,
            t.gpu_train_seconds,
            t.allreduce_seconds,
        ):
            assert field > 0

    def test_read_stage_flat_across_models(self):
        """Fig. 3(c): the HDFS stage is model-independent."""
        reads = [
            AnalyticalHPS(s).batch_time().read_seconds
            for s in PAPER_MODELS.values()
        ]
        assert max(reads) == pytest.approx(min(reads))

    def test_small_models_read_bound(self):
        """Fig. 3(c): models A and B are bottlenecked by HDFS reads."""
        for name in ("A", "B"):
            t = AnalyticalHPS(PAPER_MODELS[name]).batch_time()
            assert t.read_seconds > t.pull_push_seconds
            assert t.read_seconds > t.train_seconds

    def test_large_models_pull_push_bound(self):
        """Fig. 3(c): pull/push dominates for models D and E."""
        for name in ("D", "E"):
            t = AnalyticalHPS(PAPER_MODELS[name]).batch_time()
            assert t.pull_push_seconds > t.read_seconds
            assert t.pull_push_seconds > t.train_seconds

    def test_crossover_at_model_c(self):
        """Fig. 3(c): pull/push 'catches up' with reading at model C."""
        t = AnalyticalHPS(PAPER_MODELS["C"]).batch_time()
        ratio = t.pull_push_seconds / t.read_seconds
        assert 0.7 < ratio < 1.7

    def test_pull_push_monotone_in_model_scale(self):
        times = [
            AnalyticalHPS(PAPER_MODELS[m]).batch_time().pull_push_seconds
            for m in "ABCDE"
        ]
        assert times[0] < times[1] < times[2] < times[3]

    def test_hbm_pull_tracks_nonzeros(self):
        """Fig. 4(a): pull/push HBM time follows #non-zeros (A,B=100 vs
        C,D,E=500)."""
        a = AnalyticalHPS(PAPER_MODELS["A"]).batch_time().hbm_pull_seconds
        c = AnalyticalHPS(PAPER_MODELS["C"]).batch_time().hbm_pull_seconds
        assert c > 2 * a

    def test_gpu_train_tracks_dense_params(self):
        """Fig. 4(a): training time follows the dense tower size; model E
        (7M dense) costs the most."""
        trains = {
            m: AnalyticalHPS(PAPER_MODELS[m]).batch_time().gpu_train_seconds
            for m in "ABCDE"
        }
        assert trains["E"] == max(trains.values())
        assert trains["B"] == min(trains.values())


class TestCacheHitModel:
    def test_model_e_hit_near_paper_value(self):
        """Fig. 4(c): the paper measures a ~46% steady-state hit rate."""
        hit = AnalyticalHPS(PAPER_MODELS["E"]).cache_hit_rate()
        assert 0.40 < hit < 0.55

    def test_hit_falls_with_model_size(self):
        hits = [AnalyticalHPS(PAPER_MODELS[m]).cache_hit_rate() for m in "ABCDE"]
        assert all(a >= b for a, b in zip(hits, hits[1:]))

    def test_override_respected(self):
        m = AnalyticalHPS(PAPER_MODELS["E"], cache_hit_rate=0.9)
        assert m.cache_hit_rate() == 0.9


class TestMemPS:
    def test_fig4b_local_flat_over_nodes(self):
        """Fig. 4(b): overall MEM-PS pull time 'does not hike much' as
        nodes are added."""
        spec = PAPER_MODELS["E"]
        t1 = AnalyticalHPS(spec, n_nodes=1).batch_time()
        t4 = AnalyticalHPS(spec, n_nodes=4).batch_time()
        total1 = max(t1.pull_local_seconds, t1.pull_remote_seconds)
        total4 = max(t4.pull_local_seconds, t4.pull_remote_seconds)
        assert total4 < 1.5 * total1

    def test_remote_pull_zero_single_node(self):
        t = AnalyticalHPS(PAPER_MODELS["E"], n_nodes=1).batch_time()
        assert t.pull_remote_seconds == 0.0


class TestScalability:
    def test_fig5b_sublinear_speedup(self):
        """Fig. 5(b): 4-node speedup ~3.5 out of the ideal 4."""
        spec = PAPER_MODELS["E"]
        base = AnalyticalHPS(spec, n_nodes=1).throughput()
        s4 = AnalyticalHPS(spec, n_nodes=4).throughput() / base
        assert 3.0 < s4 < 4.0

    def test_speedup_monotone_in_nodes(self):
        spec = PAPER_MODELS["E"]
        thr = [AnalyticalHPS(spec, n_nodes=n).throughput() for n in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(thr, thr[1:]))


class TestPipelineToggle:
    def test_pipelining_helps(self):
        spec = PAPER_MODELS["C"]
        on = AnalyticalHPS(spec, pipelined=True).throughput()
        off = AnalyticalHPS(spec, pipelined=False).throughput()
        assert on > 1.5 * off

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticalHPS(PAPER_MODELS["A"], n_nodes=0)


class TestSpecPrices:
    """The analytical lines are the spec prices on expected work."""

    def test_cpu_bounce_costs_more_than_rdma(self):
        """``NetworkSpec.rdma`` reaches both network lines: the bounce
        path's extra PCIe copies and per-message CPU overhead raise the
        all-reduce and the remote pull; nothing off the network moves."""
        hw = default_node_hardware()
        rdma = AnalyticalHPS(PAPER_MODELS["E"]).batch_time()
        bounce = AnalyticalHPS(
            PAPER_MODELS["E"], hardware=replace(hw, network=NetworkSpec(rdma=False))
        ).batch_time()
        assert bounce.allreduce_seconds > rdma.allreduce_seconds
        assert bounce.pull_remote_seconds > rdma.pull_remote_seconds
        assert bounce.pull_local_seconds == rdma.pull_local_seconds
        assert bounce.hbm_pull_seconds == rdma.hbm_pull_seconds
        assert bounce.gpu_train_seconds == rdma.gpu_train_seconds

    def test_each_efficiency_constant_derates_one_rate(self):
        m = AnalyticalHPS(PAPER_MODELS["C"])
        hw, eff = m.hw, m.effective_hardware()
        ssd = m.ssd_efficiency
        assert eff.ssd.seq_read_bandwidth == hw.ssd.seq_read_bandwidth * ssd
        assert eff.ssd.seq_write_bandwidth == hw.ssd.seq_write_bandwidth * ssd
        assert eff.gpu.flops == hw.gpu.flops * m.gpu_efficiency
        assert eff.gpu.hbm_bandwidth == hw.gpu.hbm_bandwidth * m.hbm_table_efficiency
        assert (eff.hdfs, eff.network, eff.nvlink, eff.cpu) == (
            hw.hdfs, hw.network, hw.nvlink, hw.cpu
        )
        assert eff.ssd.block_bytes == hw.ssd.block_bytes
        assert eff.gpu.kernel_launch_s == hw.gpu.kernel_launch_s

    def test_read_and_compute_lines_are_the_prices(self):
        m = AnalyticalHPS(PAPER_MODELS["C"], n_nodes=1)
        t, eff, spec = m.batch_time(), m.effective_hardware(), m.spec
        assert t.read_seconds == eff.hdfs.transfer_seconds(
            m.batch_size * m.log_bytes_per_example
        )
        rounds = max(1.0, m.batch_size / (eff.gpus_per_node * m.minibatch_examples))
        assert t.gpu_train_seconds == rounds * eff.gpu.compute_seconds(
            m.minibatch_examples * spec.train_flops_per_example
        )
        assert t.pull_remote_seconds == 0.0
        assert t.allreduce_seconds > 0  # the intra-node NVLink tree alone
