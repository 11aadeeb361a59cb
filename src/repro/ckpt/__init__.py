"""Crash-consistent checkpoint/restore for the three-tier store.

The paper's production deployment survives machine failures by
materializing batch-granular snapshots of the hierarchical parameter
server and replaying from the last snapshot.  This package implements
that: a versioned on-disk format (``manifest.json`` + per-node ``.npz``
shards) capturing the dense tower, dense/sparse optimizer state, every
node's MEM cache (contents *and* replacement order), the SSD file store
(files, mapping, stale counters), the data-stream position, and the RNG
identity — everything needed for ``train(k) + save + restore + train(m)``
to be bit-identical to ``train(k + m)``.

Durability model: shards are written to temp files and ``os.replace``d
into place; the manifest is removed first and rewritten *last*, so a
directory either holds a complete, self-consistent checkpoint or no
manifest at all.  Simulated write/read cost is charged per node through
the HDFS model (snapshots persist to the distributed FS, as in the
paper) under the ``ckpt_write`` / ``ckpt_read`` ledger categories.
Crash recovery — restore + replay, or a single-node partial restore —
is driven by :class:`repro.faults.Supervisor`.
"""

from repro.ckpt.checkpoint import (
    CheckpointStats,
    restore_cluster,
    save_cluster,
)
from repro.ckpt.format import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    CheckpointError,
    CheckpointScanWarning,
    latest_checkpoint,
    prune_checkpoints,
    read_manifest,
)

__all__ = [
    "CheckpointError",
    "CheckpointScanWarning",
    "CheckpointStats",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "latest_checkpoint",
    "prune_checkpoints",
    "read_manifest",
    "restore_cluster",
    "save_cluster",
]
