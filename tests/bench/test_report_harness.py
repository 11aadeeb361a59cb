"""Tests for report formatting and the experiment harness (smoke-level for
the expensive entry points; the benchmarks exercise them fully)."""

import numpy as np
import pytest

from repro.bench.harness import (
    functional_model,
    run_fig3c_stage_times,
    run_fig4b_mem_times,
    run_fig5b_scalability,
    run_pipeline_overlap,
    run_table4_speedups,
    small_cluster_config,
)
from repro.bench.report import ascii_bars, ascii_gantt, format_series, format_table
from repro.core.cluster import PIPELINE_STAGE_NAMES
from repro.core.pipeline import schedule


def algorithm1_schedule(stage_times):
    return schedule(np.asarray(stage_times), stage_names=PIPELINE_STAGE_NAMES)


class TestFormatTable:
    def test_alignment_and_header(self):
        out = format_table(["name", "value"], [("a", 1.5), ("bb", 22.25)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_title(self):
        out = format_table(["x"], [(1,)], title="T")
        assert out.splitlines()[0] == "T"

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out

    def test_large_and_small_floats(self):
        out = format_table(["v"], [(1e9,), (1e-9,), (0.0,)])
        assert "1e+09" in out and "1e-09" in out and "0" in out


class TestSeriesAndBars:
    def test_series(self):
        out = format_series([1, 2], [0.1, 0.2], x_name="t", y_name="v")
        assert "t" in out and "v" in out

    def test_bars_scale_to_max(self):
        out = ascii_bars(["a", "b"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bars_zero_values(self):
        out = ascii_bars(["a"], [0.0])
        assert "a" in out


class TestGantt:
    def test_rows_and_legend(self):
        sched = algorithm1_schedule(np.tile([1.0, 1.0, 1.0, 1.0], (3, 1)))
        out = ascii_gantt(sched, width=40)
        lines = out.splitlines()
        assert len(lines) == 4  # 3 batch rows + legend
        assert lines[0].startswith("batch  0 |")
        assert "R=read" in lines[-1]

    def test_overlap_visible(self):
        """Consecutive batches occupy overlapping columns."""
        sched = algorithm1_schedule(np.tile([2.0, 2.0, 2.0, 2.0], (2, 1)))
        out = ascii_gantt(sched, width=40).splitlines()
        row0, row1 = out[0], out[1]
        overlap = [
            i
            for i, (a, b) in enumerate(zip(row0, row1))
            if a not in " |" and b not in " |"
        ]
        assert overlap

    def test_empty_schedule(self):
        sched = algorithm1_schedule(np.zeros((0, 4)))
        assert "empty" in ascii_gantt(sched)


class TestHarnessEntryPoints:
    def test_table4_rows_complete(self):
        rows = run_table4_speedups()
        assert {r["model"] for r in rows} == set("ABCDE")
        for r in rows:
            assert r["speedup"] > 0
            assert r["cost_normalized_speedup"] > 0

    def test_fig3c_columns(self):
        rows = run_fig3c_stage_times()
        assert all(
            {"read_examples", "pull_push", "train_dnn"} <= set(r) for r in rows
        )

    def test_fig4b_single_node_nan(self):
        rows = run_fig4b_mem_times(node_counts=(1, 2))
        assert np.isnan(rows[0]["pull_remote"])
        assert rows[1]["pull_remote"] > 0

    def test_fig5b_ideal_line(self):
        rows = run_fig5b_scalability(node_counts=(1, 2))
        assert rows[0]["ideal"] == pytest.approx(rows[0]["real"])
        assert rows[1]["ideal"] == pytest.approx(2 * rows[0]["real"])

    def test_functional_model_bigger_than_cache(self):
        spec = functional_model()
        cfg = small_cluster_config()
        assert spec.n_sparse > 10 * cfg.mem_capacity_params

    def test_small_cluster_config_overrides(self):
        cfg = small_cluster_config(n_nodes=3, compaction_threshold=1.4)
        assert cfg.n_nodes == 3
        assert cfg.compaction_threshold == 1.4

    def test_pipeline_overlap_smoke(self):
        row = run_pipeline_overlap(n_batches=3, batch_size=128)
        assert row["parameter_parity"] is True
        assert row["pipelined_makespan"] < row["lockstep_makespan"]
