"""One compute node of the hierarchical parameter server.

Bundles the three storage layers (HBM-PS / MEM-PS / SSD-PS), the node's
fabric models, its HDFS stream, and a replica of the dense CTR tower.  The
cluster (:mod:`repro.core.cluster`) wires nodes together and drives
Algorithm 1 across them.
"""

from __future__ import annotations

from repro.config import ClusterConfig, ModelSpec
from repro.data.generator import CTRDataGenerator
from repro.data.hdfs import HDFSStream
from repro.hardware.gpu import GPUDevice
from repro.hardware.ledger import CostLedger
from repro.hardware.network import Network
from repro.hardware.specs import default_node_hardware
from repro.hbm.hbm_ps import HBMPS
from repro.mem.mem_ps import MemPS
from repro.nn.model import CTRModel
from repro.nn.optim import DenseAdagrad, SparseAdagrad
from repro.ssd.ssd_ps import SSDPS
from repro.utils.rng import derive_seed

__all__ = ["HPSNode"]


class HPSNode:
    """A GPU computing node: 3-layer PS + workers + data stream."""

    def __init__(
        self,
        node_id: int,
        model_spec: ModelSpec,
        cluster_config: ClusterConfig,
        sparse_optimizer: SparseAdagrad,
        generator: CTRDataGenerator,
        *,
        functional_batch_size: int,
    ) -> None:
        cfg = cluster_config
        self.node_id = node_id
        self.config = cfg
        self.hardware = default_node_hardware(gpus_per_node=cfg.gpus_per_node)
        self.ledger = CostLedger()
        self.network = Network(self.hardware.network, self.ledger)

        self.ssd_ps = SSDPS(
            sparse_optimizer.value_dim,
            file_capacity=cfg.ssd_file_capacity,
            ssd_spec=self.hardware.ssd,
            usage_threshold=cfg.compaction_threshold,
            ledger=self.ledger,
        )
        self.mem_ps = MemPS(
            node_id,
            cfg.n_nodes,
            sparse_optimizer,
            self.ssd_ps,
            cache_capacity=cfg.mem_capacity_params,
            lru_fraction=cfg.cache_lru_fraction,
            network=self.network,
            seed=cfg.seed,
        )
        self.hbm_ps = HBMPS(
            cfg.gpus_per_node,
            cfg.hbm_capacity_params,
            sparse_optimizer,
            gpu_spec=self.hardware.gpu,
            nvlink_spec=self.hardware.nvlink,
            ledger=self.ledger,
        )
        self.hdfs = HDFSStream(
            generator,
            self.hardware.hdfs,
            batch_size=functional_batch_size,
            ledger=self.ledger,
        )
        # Every node starts from the same dense initialization (seeded by
        # the cluster seed, not the node id) so replicas are identical.
        self.model = CTRModel(model_spec, seed=derive_seed(cfg.seed, "dense"))
        self.dense_optimizer = DenseAdagrad()
        self.gpu_compute = GPUDevice(self.hardware.gpu, self.ledger)

    # ------------------------------------------------------------------
    @property
    def n_gpus(self) -> int:
        return self.config.gpus_per_node

    def cpu_partition_time(self, n_keys: int) -> float:
        """Simulated seconds to shard ``n_keys`` working keys across this
        node's GPUs (Alg. 1 line 5), charged to the node's ledger."""
        return self.ledger.add(
            "cpu_partition", self.hardware.cpu.partition_seconds(n_keys)
        )
