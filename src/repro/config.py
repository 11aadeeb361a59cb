"""Model and cluster configuration.

:class:`ModelSpec` carries the paper's Table 3 verbatim (models A–E) plus
the laptop-scale :data:`TINY_MODEL`.  :class:`ClusterConfig`
describes the simulated deployment (nodes, GPUs per node, batch sharding).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

__all__ = [
    "check_count",
    "ModelSpec",
    "ClusterConfig",
    "PAPER_MODELS",
    "TINY_MODEL",
]


def check_count(name: str, value: object, minimum: int = 1) -> int:
    """``value`` as an ``int`` count of at least ``minimum``.

    A bool, a non-integer (``2.5``, ``"2"``) or a smaller value is a
    ``ValueError`` naming ``name``; NumPy integers pass.  Every entry
    point checks its counts with this before it creates anything.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModelSpec:
    """Specification of one CTR model (paper Table 3).

    Attributes
    ----------
    name:
        Model identifier (``"A"`` … ``"E"`` for the paper's models).
    nonzeros_per_example:
        Average number of non-zero sparse features per example
        (paper column ``#Non-zeros``).
    n_sparse:
        Size of the sparse feature key space (paper column ``#Sparse``).
    n_dense:
        Number of dense (fully-connected) parameters (paper ``#Dense``).
    size_gb:
        Total parameter size in GB (paper ``Size (GB)``).
    mpi_nodes:
        Number of CPU-only nodes Baidu used to train this model on the MPI
        cluster (paper ``MPI``) — used for the cost-normalized speedup.
    embedding_dim:
        Width of each sparse parameter's embedding vector.  The paper does
        not publish this; the per-key value payload implied by
        ``size_gb / n_sparse`` is ~36–48 bytes, consistent with a dim-8–12
        float32 embedding — we default to 8 for functional runs.
    hidden_layers:
        Fully-connected layer widths above the embedding concat.
    """

    name: str
    nonzeros_per_example: int
    n_sparse: int
    n_dense: int
    size_gb: float
    mpi_nodes: int
    embedding_dim: int = 8
    hidden_layers: tuple[int, ...] = (64, 32)
    n_slots: int = 10

    def __post_init__(self) -> None:
        if self.nonzeros_per_example <= 0:
            raise ValueError("nonzeros_per_example must be positive")
        if self.n_sparse <= 0 or self.n_dense <= 0:
            raise ValueError("parameter counts must be positive")
        if self.n_slots <= 0:
            raise ValueError("n_slots must be positive")

    @property
    def bytes_per_sparse_param(self) -> float:
        """Value payload per sparse key implied by the model size."""
        return self.size_gb * 1e9 / self.n_sparse

    @property
    def train_flops_per_example(self) -> float:
        """Paper-scale train FLOPs per example (analytical models): 6 per
        dense parameter and per gathered embedding element."""
        return 6.0 * self.n_dense + 6.0 * self.nonzeros_per_example * self.embedding_dim


#: Paper Table 3, verbatim.
PAPER_MODELS: dict[str, ModelSpec] = {
    "A": ModelSpec("A", 100, int(8e9), int(7e5), 300.0, 100),
    "B": ModelSpec("B", 100, int(2e10), int(2e4), 600.0, 80),
    "C": ModelSpec("C", 500, int(6e10), int(2e6), 2_000.0, 75),
    "D": ModelSpec("D", 500, int(1e11), int(4e6), 6_000.0, 150),
    "E": ModelSpec("E", 500, int(2e11), int(7e6), 10_000.0, 128),
}


#: A minimal spec used throughout the unit tests.
TINY_MODEL = ModelSpec(
    name="tiny",
    nonzeros_per_example=8,
    n_sparse=5_000,
    n_dense=1_000,
    size_gb=0.001,
    mpi_nodes=10,
    embedding_dim=4,
    hidden_layers=(16, 8),
    n_slots=4,
)


@dataclass(frozen=True)
class ClusterConfig:
    """Deployment shape of the hierarchical parameter server.

    The paper's flagship deployment is 4 nodes × 8 GPUs.  Each HDFS
    batch (paper: ~4M examples; here the cluster's
    ``functional_batch_size``) is sharded into ``minibatches_per_gpu``
    minibatches per GPU worker.
    """

    n_nodes: int = 4
    gpus_per_node: int = 8
    minibatches_per_gpu: int = 4
    mem_capacity_params: int = 10**9
    hbm_capacity_params: int = 10**8
    ssd_file_capacity: int = 2**16
    cache_lru_fraction: float = 0.5
    compaction_threshold: float = 2.0
    #: accepted and ignored (the MEM resolve always heads the prepare
    #: stage); the frozen benchmark passes it — drop at benchmark v2
    prefetch: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        # A float or bool count used to construct and then die rounds
        # later in numpy or ``range`` with words naming no field.  The MEM
        # cache is two tiers: each needs at least one row.
        for name, minimum in (
            ("n_nodes", 1),
            ("gpus_per_node", 1),
            ("minibatches_per_gpu", 1),
            ("mem_capacity_params", 2),
            ("hbm_capacity_params", 1),
            ("ssd_file_capacity", 1),
            ("seed", 0),
        ):
            value = check_count(name, getattr(self, name), minimum)
            object.__setattr__(self, name, value)
        if self.seed >= 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0.0 < self.cache_lru_fraction < 1.0:
            raise ValueError("cache_lru_fraction must be in (0, 1)")
        if not self.compaction_threshold >= 1.0:  # NaN fails too
            raise ValueError("compaction_threshold must be >= 1.0")

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node

    @property
    def minibatches_per_batch(self) -> int:
        return self.total_gpus * self.minibatches_per_gpu
