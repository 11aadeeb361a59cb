"""Tests for model/cluster configuration (Table 3)."""

import importlib
import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.ckpt.checkpoint import CheckpointStats
from repro.config import PAPER_MODELS, TINY_MODEL, ClusterConfig, ModelSpec
from repro.core.cluster import BatchStats
from repro.hardware.specs import GPUSpec, HDFSSpec, SSDSpec
from repro.mem.cache import CombinedCache

#: The signatures on the cluster's build/restore path.  A defaulted
#: parameter there is an option a caller may set, so their count is a
#: structural needle like the field counts (CI prints it head vs base).
BUILD_RESTORE_SIGNATURES = (
    "repro.core.cluster:HPSCluster.__init__",
    "repro.core.cluster:HPSCluster.restore",
    "repro.core.cluster:HPSCluster.train_round",
    "repro.ckpt.checkpoint:restore_cluster",
    "repro.ckpt.format:latest_checkpoint",
    "repro.core.node:HPSNode.__init__",
    "repro.core.trainer:ReferenceTrainer.__init__",
    "repro.ssd.ssd_ps:SSDPS.__init__",
    "repro.hbm.partition:ModuloPartitioner.__init__",
    "repro.hardware.ssd_device:SSDDevice.read_time",
    "repro.hardware.ssd_device:SSDDevice.write_time",
    "repro.hardware.ssd_device:SSDDevice.write",
)

#: The fault layer's constructors.  Every parameter is a value a caller
#: sets, so their count is a needle too (CI prints it head vs base).
FAULT_LAYER_CONSTRUCTORS = (
    "repro.faults.schedule:FaultSchedule",
    "repro.faults.inject:FaultInjection",
    "repro.faults.supervisor:Supervisor",
)

#: The storage tiers' and the MPI baseline's constructors.  A cluster
#: passes every ClusterConfig value they need, so a parameter here that
#: restates a config default, or that nothing reads, is a knob that
#: does nothing; their count is a needle (CI prints it head vs base).
TIER_CONSTRUCTORS = (
    "repro.mem.mem_ps:MemPS",
    "repro.ssd.ssd_ps:SSDPS",
    "repro.ssd.compaction:Compactor",
    "repro.data.hdfs:HDFSStream",
    "repro.hbm.hbm_ps:HBMPS",
    "repro.hbm.hbm_ps:GPUFabric",
    "repro.baselines.mpi_ps:MPITimingModel",
    "repro.hardware.specs:default_node_hardware",
)

#: Everything that charges a ledger.  A node passes each its ledger,
#: specs and fabrics, so a defaulted parameter here is a way to price on
#: a ledger no node reads, or not at all; their count is a needle (CI
#: prints it head vs base).  ``FileStore``'s ``ssd_spec`` / ``ledger`` /
#: ``directory`` and ``hierarchical_allreduce``'s ``networks`` /
#: ``nvlinks`` stay defaulted until benchmark v2 (``micro.py`` uses them).
PRICED_CONSTRUCTORS = (
    "repro.hardware.gpu:GPUDevice",
    "repro.hardware.gpu:NVLink",
    "repro.hardware.network:Network",
    "repro.hardware.ssd_device:SSDDevice",
    "repro.ssd.file_store:FileStore",
    "repro.ssd.ssd_ps:SSDPS",
    "repro.hbm.hbm_ps:GPUFabric",
    "repro.hbm.hbm_ps:HBMPS",
    "repro.data.hdfs:HDFSStream",
    "repro.hbm.allreduce:allreduce_dense",
    "repro.hbm.allreduce:hierarchical_allreduce",
)


def _parameters(name: str) -> list[inspect.Parameter]:
    module, qualname = name.split(":")
    obj = importlib.import_module(module)
    for attr in qualname.split("."):
        obj = getattr(obj, attr)
    return list(inspect.signature(obj).parameters.values())


def _defaulted(names: tuple[str, ...]) -> int:
    return sum(
        p.default is not inspect.Parameter.empty
        for name in names
        for p in _parameters(name)
    )


def defaulted_build_options() -> int:
    """Defaulted parameters across :data:`BUILD_RESTORE_SIGNATURES`."""
    return _defaulted(BUILD_RESTORE_SIGNATURES)


def defaulted_priced_parameters() -> int:
    """Defaulted parameters across :data:`PRICED_CONSTRUCTORS`."""
    return _defaulted(PRICED_CONSTRUCTORS)


def fault_layer_parameters() -> int:
    """Parameters across :data:`FAULT_LAYER_CONSTRUCTORS`."""
    return sum(len(_parameters(name)) for name in FAULT_LAYER_CONSTRUCTORS)


def tier_constructor_parameters() -> int:
    """Parameters across :data:`TIER_CONSTRUCTORS`."""
    return sum(len(_parameters(name)) for name in TIER_CONSTRUCTORS)


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


class TestClusterConfig:
    def test_defaults_match_paper_deployment(self):
        cfg = ClusterConfig()
        assert cfg.n_nodes == 4
        assert cfg.gpus_per_node == 8
        assert cfg.total_gpus == 32

    def test_minibatches_per_batch(self):
        cfg = ClusterConfig(n_nodes=2, gpus_per_node=4, minibatches_per_gpu=3)
        assert cfg.minibatches_per_batch == 24

    def test_field_counts_only_go_down(self):
        """ROADMAP's structural needles: a new knob or stats column has
        to raise these ceilings on purpose."""
        assert len(fields(ClusterConfig)) <= 10
        assert len(fields(BatchStats)) <= 19
        assert len(fields(CheckpointStats)) <= 5
        assert len(fields(HDFSSpec)) <= 2
        assert len(fields(GPUSpec)) <= 3
        assert len(fields(SSDSpec)) <= 3
        assert defaulted_build_options() <= 4
        assert fault_layer_parameters() <= 8
        assert tier_constructor_parameters() <= 32
        assert defaulted_priced_parameters() <= 8

    def test_with_nodes(self):
        """Derive a config with ``dataclasses.replace``: the other fields
        carry over and the derived config is validated like any other."""
        cfg = replace(ClusterConfig(), n_nodes=2)
        assert cfg.n_nodes == 2
        assert cfg.gpus_per_node == 8
        with pytest.raises(ValueError):
            replace(cfg, n_nodes=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(cache_lru_fraction=1.5)
        for threshold in (0.5, float("nan")):
            with pytest.raises(ValueError, match="compaction_threshold"):
                ClusterConfig(compaction_threshold=threshold)

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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected_at_construction(self, seed):
        """Such a seed used to be accepted and die in the cluster's
        ``derive_seed`` as a bare ``OverflowError``."""
        match = rf"seed must be in \[0, 2\*\*64\), got {seed}"
        with pytest.raises(ValueError, match=match):
            ClusterConfig(seed=seed)

    def test_largest_seed_accepted(self):
        assert ClusterConfig(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("cache_lru_fraction", 0.0, r"cache_lru_fraction must be in \(0, 1\)"),
            ("cache_lru_fraction", 1.0, r"cache_lru_fraction must be in \(0, 1\)"),
            ("mem_capacity_params", 1, "mem_capacity_params must be >= 2"),
            *(
                (field, value, f"{field} must be an integer, got {value!r}")
                for field, value in (
                    ("ssd_file_capacity", 4.0),
                    ("ssd_file_capacity", 4.5),
                    ("n_nodes", 2.0),
                    ("gpus_per_node", 2.0),
                    ("minibatches_per_gpu", 1.5),
                    ("mem_capacity_params", 4000.5),
                    ("hbm_capacity_params", 1.5),
                    ("seed", 0.5),
                    ("n_nodes", True),
                    ("seed", False),
                )
            ),
        ],
    )
    def test_values_the_mem_cache_refuses_are_rejected_here(self, field, value, match):
        """These used to pass and die inside ``HPSCluster(...)`` with
        ``CombinedCache``'s own words (``lru_fraction must be in (0, 1)``,
        ``combined cache needs capacity >= 2``) — names the user never
        wrote — or, for a count that is a float or a bool, rounds later
        in numpy or ``range`` naming no field at all.  Every accepted
        pair builds a cache."""
        with pytest.raises(ValueError, match=match):
            ClusterConfig(**{field: value})
        for capacity, fraction in ((2, 0.5), (2, 1e-9), (np.int64(3), 1 - 1e-9)):
            cfg = ClusterConfig(
                mem_capacity_params=capacity, cache_lru_fraction=fraction
            )
            assert type(cfg.mem_capacity_params) is int  # JSON-able in a manifest
            cache = CombinedCache(
                cfg.mem_capacity_params, lru_fraction=cfg.cache_lru_fraction
            )
            assert cache.lru_capacity >= 1 and cache.lfu_capacity >= 1
