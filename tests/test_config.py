"""Tests for model/cluster configuration (Table 3)."""

import collections
import importlib
import inspect
import types
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.ckpt.checkpoint import CheckpointStats
from repro.config import PAPER_MODELS, TINY_MODEL, ClusterConfig, ModelSpec
from repro.core.cluster import BatchStats, HPSCluster
from repro.data.generator import CTRDataGenerator
from repro.hardware.specs import GPUSpec, HDFSSpec, SSDSpec
from repro.hbm.partition import ModuloPartitioner
from repro.mem.cache import CombinedCache
from repro.nn.model import CTRModel, Shard
from repro.store.slot_index import SlotIndex

#: The signatures on the cluster's build/restore path.  A defaulted
#: parameter there is an option a caller may set, so their count is a
#: structural needle like the field counts (CI prints it head vs base).
BUILD_RESTORE_SIGNATURES = (
    "repro.core.cluster:HPSCluster.__init__",
    "repro.core.cluster:HPSCluster.restore",
    "repro.core.cluster:HPSCluster.train_round",
    "repro.core.cluster:HPSCluster.train_pipelined",
    "repro.ckpt.checkpoint:restore_cluster",
    "repro.ckpt.format:latest_checkpoint",
    "repro.core.node:HPSNode.__init__",
    "repro.core.trainer:ReferenceTrainer.__init__",
    "repro.ssd.ssd_ps:SSDPS.__init__",
    "repro.hbm.partition:ModuloPartitioner.__init__",
    "repro.hardware.specs:SSDSpec.read_seconds",
    "repro.hardware.specs:SSDSpec.write_seconds",
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

#: The training rule's constructors.  Every trainer steps with the one
#: Adagrad pair at one learning rate, so a parameter here is a second
#: rule or a second rate; their count is a needle (CI prints it head vs
#: base).
TRAINING_CONSTRUCTORS = (
    "repro.nn.optim:SparseAdagrad",
    "repro.nn.optim:DenseAdagrad",
    "repro.hashing.dnn:SimpleDNN",
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


def training_constructor_parameters() -> int:
    """Parameters across :data:`TRAINING_CONSTRUCTORS`."""
    return sum(len(_parameters(name)) for name in TRAINING_CONSTRUCTORS)


def key_table_bytes() -> tuple[int, int]:
    """Bytes per key of the per-key tables: a :class:`SlotIndex` payload
    and a 256-bucket :class:`ModuloPartitioner`'s bucket table."""
    index = SlotIndex()
    index.set(np.arange(4, dtype=np.uint64), np.arange(4))
    partitioner = ModuloPartitioner(256)
    partitioner.part_of(np.arange(2048, dtype=np.uint64))  # builds the table
    return index._payload.itemsize, partitioner._table.itemsize


def objects_under(obj, seen):
    """Every object reachable from ``obj`` through repro objects'
    ``__dict__`` and ``__slots__``, plain containers, and functions'
    closures and attributes (the stage registry's closures)."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset, collections.deque)):
        children = list(obj)
    elif isinstance(obj, types.FunctionType):
        cells = [cell.cell_contents for cell in obj.__closure__ or ()]
        children = cells + list(vars(obj).values())
    elif isinstance(obj, types.MethodType):
        children = [obj.__self__, obj.__func__]
    elif type(obj).__module__.startswith("repro."):
        names = list(getattr(obj, "__dict__", ()))
        for klass in type(obj).__mro__:
            names += list(getattr(klass, "__slots__", ()))
        children = [getattr(obj, name, None) for name in names]
    else:
        return
    for child in children:
        yield from objects_under(child, seen)


def dense_tower_bytes() -> tuple[int, int]:
    """Bytes of the arrays a ``dense_heavy``-shaped :class:`CTRModel`
    keeps alive (views counted once, at the array owning the memory):
    untrained, then after one 8-shard ``train_minibatch`` whose workers'
    dense gradients are read one by one, as ``stage_train`` reads them."""

    def owned() -> int:
        owners = {}
        for a in objects_under(model, set()):
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                owners[id(a)] = a.nbytes
        return sum(owners.values())

    spec = replace(
        TINY_MODEL, n_sparse=20_000, embedding_dim=16, hidden_layers=(256, 128, 64)
    )
    model = CTRModel(spec)
    untrained = owned()
    batch = CTRDataGenerator(spec, seed=0).batch(0, 1024)
    keys = batch.unique_keys()
    table = np.full((keys.size, 2 * spec.embedding_dim), 0.01, np.float32)
    shards = [Shard.of(b) for b in batch.shard(8)]
    shards = [s._replace(rows=keys.searchsorted(s.keys)[s.key_idx]) for s in shards]
    for result in model.train_minibatch(table, shards):
        result.dense_grads
    return untrained, owned()


def pipeline_shapes() -> int:
    """Distinct stage-name lists a cluster registers across
    ``ClusterConfig.prefetch`` ∈ {False, True} (CI prints it head vs
    base)."""
    return len(
        {
            tuple(
                name
                for name, _ in HPSCluster(
                    TINY_MODEL, replace(pressured_config(2), prefetch=flag)
                ).stage_functions()
            )
            for flag in (False, True)
        }
    )


def pressured_config(n_nodes: int) -> ClusterConfig:
    """A 2-GPU-per-node cluster under the fault soak's pressured MEM budget."""
    return ClusterConfig(
        n_nodes=n_nodes,
        gpus_per_node=2,
        minibatches_per_gpu=2,
        mem_capacity_params=1_400,
        hbm_capacity_params=50_000,
        ssd_file_capacity=128,
        seed=7,
    )


def allreduce_ledger_over_clock(n_nodes: int = 2) -> float:
    """Growth of the node ledgers' ``allreduce`` lines over the summed
    ``BatchStats.allreduce_seconds`` of 2 lockstep and 2 pipelined
    fault-free rounds: 1.0 when each collective is charged once."""
    cluster = HPSCluster(
        TINY_MODEL, pressured_config(n_nodes), functional_batch_size=256
    )

    def charged() -> float:
        return sum(node.ledger.total("allreduce") for node in cluster.nodes)

    before = charged()
    stats = cluster.train(2) + cluster.train_pipelined(2).stats
    return (charged() - before) / sum(s.allreduce_seconds for s in stats)


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

    def test_train_flops_per_example(self):
        """The analytical models' paper-scale count: 6 per dense
        parameter plus 6 per gathered embedding element."""
        e = PAPER_MODELS["E"]
        assert e.train_flops_per_example == 6.0 * 7e6 + 6.0 * 500 * 8

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
        assert defaulted_priced_parameters() <= 7
        assert training_constructor_parameters() <= 3
        assert pipeline_shapes() <= 1

    def test_key_tables_stay_narrow(self):
        """Per-key bytes grow with the model: an index payload holds an
        int32 slab row or row locator, a bucket table one byte per key
        up to 256 buckets (CI prints both head vs base)."""
        payload, bucket = key_table_bytes()
        assert payload <= 4
        assert bucket <= 1

    def test_dense_tower_holds_what_it_computes(self):
        """Bytes a ``dense_heavy`` tower keeps: no float64 weight shadow
        before its first forward, one weight-gradient buffer per layer
        however many workers read theirs (CI prints both head vs base)."""
        untrained, trained = dense_tower_bytes()
        assert untrained <= 231_428
        assert trained <= 10_476_628

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
            "n_nodes",
            "gpus_per_node",
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
        minimum = 2 if field == "mem_capacity_params" else 1
        match = f"^{field} must be an integer >= {minimum}, got {value}$"
        with pytest.raises(ValueError, match=match):
            ClusterConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected_at_construction(self, seed):
        """Such a seed used to be accepted and die in the cluster's
        ``derive_seed`` as a bare ``OverflowError``."""
        match = (
            rf"^seed must be an integer >= 0, got {seed}$"
            if seed < 0
            else rf"^seed must be in \[0, 2\*\*64\), got {seed}$"
        )
        with pytest.raises(ValueError, match=match):
            ClusterConfig(seed=seed)

    def test_largest_seed_accepted(self):
        assert ClusterConfig(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("cache_lru_fraction", 0.0, r"cache_lru_fraction must be in \(0, 1\)"),
            ("cache_lru_fraction", 1.0, r"cache_lru_fraction must be in \(0, 1\)"),
            (
                "mem_capacity_params",
                1,
                "^mem_capacity_params must be an integer >= 2, got 1$",
            ),
            *(
                (
                    field,
                    value,
                    f"^{field} must be an integer >= {minimum}, got {value!r}$",
                )
                for field, value, minimum in (
                    ("ssd_file_capacity", 4.0, 1),
                    ("ssd_file_capacity", 4.5, 1),
                    ("n_nodes", 2.0, 1),
                    ("gpus_per_node", 2.0, 1),
                    ("minibatches_per_gpu", 1.5, 1),
                    ("mem_capacity_params", 4000.5, 2),
                    ("hbm_capacity_params", 1.5, 1),
                    ("seed", 0.5, 0),
                    ("n_nodes", True, 1),
                    ("seed", False, 0),
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
