"""repro — reproduction of the MLSys 2020 Distributed Hierarchical GPU
Parameter Server (Zhao et al., Baidu).

Public API highlights
---------------------
- :class:`repro.config.ModelSpec` / :data:`repro.config.PAPER_MODELS` — the
  paper's Table 3 model zoo.
- :class:`repro.core.cluster.HPSCluster` — the 3-layer (HBM/MEM/SSD)
  hierarchical parameter server, trained with Algorithm 1.
- :class:`repro.core.trainer.Trainer` / ``ReferenceTrainer`` — training
  drivers and the lossless single-store reference.
- :class:`repro.baselines.mpi_ps.MPIClusterBaseline` — the in-memory MPI
  parameter-server baseline the paper compares against.
- :mod:`repro.hashing.op_osrp` — the OP+OSRP hashing study of Section 2.
- :mod:`repro.ckpt` — crash-consistent checkpoint/restore of the
  three-tier store.
- :class:`repro.faults.Supervisor` — seeded fault schedules (a scripted
  ``node_crash`` for kill-and-recover experiments) healed by partial or
  full restore + replay.
"""

from repro.config import PAPER_MODELS, ClusterConfig, ModelSpec, scaled_model

__version__ = "1.0.0"

__all__ = [
    "PAPER_MODELS",
    "ClusterConfig",
    "ModelSpec",
    "scaled_model",
    "__version__",
]
