"""Model and cluster configuration.

:class:`ModelSpec` carries the paper's Table 3 verbatim (models A–E) plus
scaled-down variants that actually run on a laptop.  :class:`ClusterConfig`
describes the simulated deployment (nodes, GPUs per node, batch sharding).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "ModelSpec",
    "ClusterConfig",
    "PAPER_MODELS",
    "scaled_model",
    "TINY_MODEL",
]


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


#: Paper Table 3, verbatim.
PAPER_MODELS: dict[str, ModelSpec] = {
    "A": ModelSpec("A", 100, int(8e9), int(7e5), 300.0, 100),
    "B": ModelSpec("B", 100, int(2e10), int(2e4), 600.0, 80),
    "C": ModelSpec("C", 500, int(6e10), int(2e6), 2_000.0, 75),
    "D": ModelSpec("D", 500, int(1e11), int(4e6), 6_000.0, 150),
    "E": ModelSpec("E", 500, int(2e11), int(7e6), 10_000.0, 128),
}


def scaled_model(
    name: str,
    *,
    scale: float = 1e-6,
    embedding_dim: int = 8,
    hidden_layers: tuple[int, ...] = (32, 16),
) -> ModelSpec:
    """A laptop-scale functional variant of a paper model.

    ``scale`` multiplies the sparse key space; nonzeros per example are
    scaled with a gentler factor so batches stay realistically sparse.
    """
    base = PAPER_MODELS[name]
    n_sparse = max(1_000, int(base.n_sparse * scale))
    nnz = max(5, base.nonzeros_per_example // 10)
    return replace(
        base,
        n_sparse=n_sparse,
        nonzeros_per_example=nnz,
        n_dense=sum(hidden_layers) * 8,
        embedding_dim=embedding_dim,
        hidden_layers=hidden_layers,
    )


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

    The paper's flagship deployment is 4 nodes × 8 GPUs.  ``batch_size`` is
    the HDFS batch (paper: ~4M examples); each batch is sharded into
    ``minibatches_per_gpu`` minibatches per GPU worker.
    """

    n_nodes: int = 4
    gpus_per_node: int = 8
    batch_size: int = 4_000_000
    minibatches_per_gpu: int = 4
    mem_capacity_params: int = 10**9
    hbm_capacity_params: int = 10**8
    ssd_file_capacity: int = 2**16
    cache_lru_fraction: float = 0.5
    compaction_threshold: float = 2.0
    compaction_stale_fraction: float = 0.5
    #: *schedules* the MEM tier's once-per-round resolve (every key of
    #: the round the node owns — one cache probe per distinct key,
    #: pinned for the round); it selects no code path.  True runs the
    #: resolve as its own pipeline stage between read and prepare,
    #: where the clock can overlap it; False runs the same resolve
    #: inline at the head of the prepare stage.
    prefetch: bool = False
    #: SSD extent cache: parameter-file payloads kept hot so repeat
    #: miss-path reads of the same file pay the cheap warm rate instead
    #: of a device read (0 disables; see
    #: :class:`~repro.ssd.extent_cache.FileHandleCache`).  On by default
    #: since hits are priced (warm ≠ free), so enabling it does not fork
    #: the sim-seconds parity groups.
    ssd_extent_cache_files: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes <= 0 or self.gpus_per_node <= 0:
            raise ValueError("cluster must have at least one node and GPU")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        for name in (
            "minibatches_per_gpu",
            "mem_capacity_params",
            "hbm_capacity_params",
            "ssd_file_capacity",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.ssd_extent_cache_files < 0:
            raise ValueError("ssd_extent_cache_files must be >= 0")
        # The MEM cache is two tiers: each needs at least one row.
        if self.mem_capacity_params < 2:
            raise ValueError("mem_capacity_params must be >= 2")
        if not 0.0 < self.cache_lru_fraction < 1.0:
            raise ValueError("cache_lru_fraction must be in (0, 1)")
        if self.compaction_threshold < 1.0:
            raise ValueError("compaction_threshold must be >= 1.0")
        if not 0.0 < self.compaction_stale_fraction <= 1.0:
            raise ValueError("compaction_stale_fraction must be in (0, 1]")

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node

    @property
    def minibatches_per_batch(self) -> int:
        return self.total_gpus * self.minibatches_per_gpu

    def with_nodes(self, n_nodes: int) -> "ClusterConfig":
        """Copy of this config with a different node count."""
        return replace(self, n_nodes=n_nodes)
