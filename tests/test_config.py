"""Tests for model/cluster configuration (Table 3)."""

from dataclasses import fields

import pytest

from repro.config import (
    PAPER_MODELS,
    TINY_MODEL,
    ClusterConfig,
    ModelSpec,
    scaled_model,
)
from repro.core.cluster import BatchStats
from repro.mem.cache import CombinedCache


class TestPaperModels:
    def test_five_models(self):
        assert sorted(PAPER_MODELS) == ["A", "B", "C", "D", "E"]

    def test_table3_values_verbatim(self):
        e = PAPER_MODELS["E"]
        assert e.nonzeros_per_example == 500
        assert e.n_sparse == int(2e11)
        assert e.n_dense == int(7e6)
        assert e.size_gb == 10_000.0
        assert e.mpi_nodes == 128

    def test_mpi_node_range(self):
        counts = [m.mpi_nodes for m in PAPER_MODELS.values()]
        assert min(counts) == 75 and max(counts) == 150

    def test_bytes_per_sparse_param_plausible(self):
        """Table 3 implies 30-60 B/key — an embedding + optimizer state."""
        for m in PAPER_MODELS.values():
            assert 25 < m.bytes_per_sparse_param < 80

    def test_dense_orders_of_magnitude_smaller(self):
        for m in PAPER_MODELS.values():
            assert m.n_dense < m.n_sparse / 1e3


class TestModelSpecValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            ModelSpec("x", 0, 10, 10, 1.0, 1)
        with pytest.raises(ValueError):
            ModelSpec("x", 1, 0, 10, 1.0, 1)
        with pytest.raises(ValueError):
            ModelSpec("x", 1, 10, 10, 1.0, 1, n_slots=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            TINY_MODEL.n_sparse = 5


class TestScaledModel:
    def test_shrinks_key_space(self):
        s = scaled_model("E", scale=1e-6)
        assert s.n_sparse < PAPER_MODELS["E"].n_sparse
        assert s.n_sparse >= 1_000

    def test_keeps_identity(self):
        assert scaled_model("C").name == "C"
        assert scaled_model("C").mpi_nodes == 75


class TestClusterConfig:
    def test_defaults_match_paper_deployment(self):
        cfg = ClusterConfig()
        assert cfg.n_nodes == 4
        assert cfg.gpus_per_node == 8
        assert cfg.batch_size == 4_000_000
        assert cfg.total_gpus == 32

    def test_minibatches_per_batch(self):
        cfg = ClusterConfig(n_nodes=2, gpus_per_node=4, minibatches_per_gpu=3)
        assert cfg.minibatches_per_batch == 24

    def test_field_counts_only_go_down(self):
        """ROADMAP's structural needles: a new knob or stats column has
        to raise these ceilings on purpose."""
        assert len(fields(ClusterConfig)) <= 13
        assert len(fields(BatchStats)) <= 21

    def test_with_nodes(self):
        cfg = ClusterConfig().with_nodes(2)
        assert cfg.n_nodes == 2
        assert cfg.gpus_per_node == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(batch_size=-1)
        with pytest.raises(ValueError):
            ClusterConfig(cache_lru_fraction=1.5)
        with pytest.raises(ValueError):
            ClusterConfig(compaction_threshold=0.5)
        with pytest.raises(ValueError):
            ClusterConfig(compaction_stale_fraction=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            "minibatches_per_gpu",
            "mem_capacity_params",
            "hbm_capacity_params",
            "ssd_file_capacity",
        ],
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_unusable_shapes_rejected_at_construction(self, field, value):
        """A zero-sized tier or shard count used to be accepted and die
        rounds later (``n_shards must be positive`` in batch sharding);
        the error now names the field."""
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("cache_lru_fraction", 0.0, r"cache_lru_fraction must be in \(0, 1\)"),
            ("cache_lru_fraction", 1.0, r"cache_lru_fraction must be in \(0, 1\)"),
            ("mem_capacity_params", 1, "mem_capacity_params must be >= 2"),
        ],
    )
    def test_values_the_mem_cache_refuses_are_rejected_here(self, field, value, match):
        """These used to pass and die inside ``HPSCluster(...)`` with
        ``CombinedCache``'s own words (``lru_fraction must be in (0, 1)``,
        ``combined cache needs capacity >= 2``) — names the user never
        wrote.  Every accepted pair builds a cache."""
        with pytest.raises(ValueError, match=match):
            ClusterConfig(**{field: value})
        for capacity, fraction in ((2, 0.5), (2, 1e-9), (3, 1 - 1e-9)):
            cfg = ClusterConfig(
                mem_capacity_params=capacity, cache_lru_fraction=fraction
            )
            cache = CombinedCache(
                cfg.mem_capacity_params, lru_fraction=cfg.cache_lru_fraction
            )
            assert cache.lru_capacity >= 1 and cache.lfu_capacity >= 1
