"""Cluster-level checkpoint save/restore.

:func:`save_cluster` snapshots a quiescent
:class:`~repro.core.cluster.HPSCluster` into a checkpoint directory;
:func:`restore_cluster` rebuilds a cluster from one.  Both charge the
simulated cost of moving the snapshot to/from the distributed FS through
each node's :class:`~repro.hardware.ledger.CostLedger` (categories
``ckpt_write`` / ``ckpt_read``) at one price, the one every HDFS byte
pays: each node's bytes are one ``node.hdfs.spec.transfer_seconds`` (latency
+ bytes / bandwidth; node 0's include the dense shard and the manifest).

* Serialization is free on the critical path: the ~2 GB/s encode runs
  ~6.7x faster than the 300 MB/s pipe, so a streaming writer hides it.
* A save's ``seconds`` is the sum of the nodes' transfers, in node
  order: the snapshot stage overlaps later rounds' read stage on the
  same HDFS pipes.  Pricing nodes in parallel (the max, like a restore)
  gives ``snapshot_serving`` 0.2400 s, but there each node's pipe
  carries ~0.200 s of read stage plus ~0.079 s of its own snapshot
  transfers — more than that makespan — so the parallel price waits for
  a pipe-contention model; the sum (0.2864 s) stays above the pipe time.
* A restore's ``seconds`` is the max: nothing overlaps it, every node
  reads its own chain at once.

Delta snapshots (``save_cluster(kind="delta")``) record only the state
that changed since the previous snapshot: new SSD parameter files plus
the erased-file and stale-counter diff (the key → file mapping is never
shipped: a load derives it, each key's newest file), per MEM tier a
bitmask of the base entries still in place plus the reordered entries
with values for their written rows only, and the (full, tiny)
dense/optimizer state.  Every shard is one header plus raw arrays
(:func:`~repro.ckpt.format.write_shard`), read back once and hashed over
the bytes it decodes (:func:`~repro.ckpt.format.read_shard`).

This module is the only one that knows the tier protocol.  A node's
persistent state lives in two objects, its MEM cache
(:class:`~repro.mem.cache.CombinedCache`) and its SSD file store
(:class:`~repro.ssd.file_store.FileStore`); :data:`_TIERS` maps each
tier name to the one holding it, and save, fold, load and mark loop over
that table calling the holders' five verbs: ``export_state`` /
``export_delta`` / ``mark_snapshot`` on the way out, the pure
``fold_delta(base, delta)`` and one loader, ``load_state``, on the way
in.  HBM is transient (every round restages its working set from MEM and
writes it back), so it holds nothing between rounds and has no entry.
Each tier holds its own delta base — row-dirty bits in the MEM slab, a
file-id watermark in the SSD store — so a delta export reads only what
changed and steady-state snapshot cost scales with the round's write
set, not the model.  This module tells the tiers *when* a snapshot
exists: every tier's ``mark_snapshot()`` runs after a manifest commits
(full or delta) and after a restore finishes loading, never before, so
a save that dies mid-write leaves every mark where it was and the retry
ships the same bytes.  A save is refused mid-round with a typed error
before any mark moves: :func:`save_cluster` refuses a round staged in
HBM, the MEM cache a resolved round's pinned rows.  The cluster keeps
the chain link (``cluster._ckpt_base``: directory, round, manifest
digest, chain length) and, in commit order, every snapshot it wrote with
its base (``cluster._ckpt_written``) — the only snapshots its snapshot
stage ever prunes.

Every restore takes one path: resolve the manifest chain
(:func:`~repro.ckpt.format.resolve_chain`), build fresh nodes from the
cluster's own recipe, fold each node's shards base first in memory —
every tier's ``fold_delta`` is a pure function of its exported arrays —
and load each tier once.  :func:`restore_cluster` does it for a newly
constructed cluster; :func:`restore_nodes` replaces nodes of a live one
in place: one dead node at a round boundary where a snapshot exists (the
surviving majority reloads *nothing*), or every node (a full restore
that keeps the cluster object, its stages and its instrumentation).

Resume parity: batches are pure functions of ``(seed, index)`` and every
piece of mutable training state is captured (dense tower, dense/sparse
optimizer state, MEM cache contents *and* replacement order, SSD file
layout with stale counters, stream position), so ``train(k) + save +
restore + train(m)`` is bit-identical to ``train(k + m)`` in both
lockstep and pipelined modes — for full snapshots, delta chains, and
partial-node restores alike.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from repro.ckpt import format as fmt
from repro.ckpt.format import (
    DENSE_SHARD,
    FORMAT_VERSION,
    CheckpointError,
    fingerprint,
    node_shard_name,
)
from repro.config import ClusterConfig, ModelSpec
from repro.utils.io import fsync_dir

__all__ = [
    "CheckpointStats",
    "save_cluster",
    "delta_base_problem",
    "find_ssd_file",
    "restore_cluster",
    "restore_nodes",
]


@dataclass(frozen=True)
class CheckpointStats:
    """Cost accounting for one save or restore (each node's share is its
    ``ckpt_write`` / ``ckpt_read`` ledger charge)."""

    directory: str
    rounds_completed: int
    #: Critical path: the sum of the nodes' HDFS transfers for a save
    #: (node-serial), the slowest node's for a restore.
    seconds: float
    nbytes: int
    #: "full" | "delta" for saves; "full" | "delta" | "partial" for
    #: restores (what the newest chain member / restore mode was).
    kind: str = "full"


#: The persistent tiers: each one's name — the prefix its arrays carry
#: in a node shard — and the node attribute holding its state.
_TIERS = {
    "mem": attrgetter("mem_ps.cache"),
    "ssd": attrgetter("ssd_ps.store"),
}

#: The SSD compactor's run count: a scalar beside the store's arrays, so
#: every snapshot, full or delta, ships it whole and a restore takes the
#: newest chain member's, like the stream position.
_COMPACTIONS = "ssd_total_compactions"


def _tiers(node) -> dict:
    """``node``'s persistent tiers: name → the object holding its state."""
    return {tier: holder_of(node) for tier, holder_of in _TIERS.items()}


def _mark_snapshot(nodes) -> None:
    """Every tier of ``nodes`` marks its state as of now as the committed
    snapshot its next ``export_delta`` diffs against."""
    for node in nodes:
        for holder in _tiers(node).values():
            holder.mark_snapshot()


# ----------------------------------------------------------------------
def _config_payload(cluster) -> dict:
    """The JSON-able identity a checkpoint is only valid against.

    Covers everything that shapes training semantics: model/cluster
    config, optimizer identities (the sparse value layout in particular),
    and the data stream's RNG identity (``cluster_config.seed``, skew,
    batch size) — batch ``i`` is a pure function of these, which is what
    makes replay exact.
    """
    return {
        "format_version": FORMAT_VERSION,
        "model_spec": asdict(cluster.model_spec),
        "cluster_config": asdict(cluster.config),
        "sparse_optimizer": cluster.sparse_optimizer.spec(),
        "dense_optimizer": cluster.nodes[0].dense_optimizer.spec(),
        "zipf_exponent": cluster.generator.zipf_exponent,
        "noise": cluster.generator.noise,
        "functional_batch_size": cluster.functional_batch_size,
    }


def _charge_transfers(nodes, node_bytes, category: str) -> list[float]:
    """Price each node's bytes as one HDFS transfer, charge it to the
    node's ledger under ``category`` and return the per-node seconds."""
    seconds = [node.hdfs.spec.transfer_seconds(n) for node, n in zip(nodes, node_bytes)]
    for node, t in zip(nodes, seconds):
        node.ledger.add(category, t)
    return seconds


def _dense_arrays(cluster) -> dict[str, np.ndarray]:
    """Dense replica + dense optimizer state (identical on every node by
    the all-reduce invariant; node 0's copy is canonical).  Dense state
    is small, so both full and delta snapshots ship it whole."""
    dense: dict[str, np.ndarray] = dict(cluster.nodes[0].model.mlp.state_dict())
    for i, acc in enumerate(cluster.nodes[0].dense_optimizer.get_state()):
        dense[f"adagrad_acc_{i}"] = acc
    return dense


def _node_shard_arrays(node, tiers: dict[str, dict]) -> dict[str, np.ndarray]:
    """Pack one node's tier exports (full or delta) into shard arrays.

    Tier arrays are namespaced with a 4-char prefix (``mem_``/``ssd_``);
    the compaction counter, the stream position and the long-horizon
    cost accounting ride alongside — the cost of *this* save lands after
    the snapshot (it depends on the shard bytes), exactly as a
    deployment would book it.
    """
    arrays: dict[str, np.ndarray] = {}
    for tier, state in tiers.items():
        for key, value in state.items():
            arrays[f"{tier}_{key}"] = value
    arrays[_COMPACTIONS] = np.int64(node.ssd_ps.compactor.total_compactions)
    arrays["hdfs_batches_read"] = np.int64(node.hdfs.batches_read)
    arrays["hdfs_bytes_read"] = np.int64(node.hdfs.bytes_read)
    ledger_state = node.ledger.export_state()
    arrays["ledger_categories"] = np.array(
        ledger_state["categories"], dtype=np.str_
    )
    arrays["ledger_totals"] = np.array(ledger_state["totals"], dtype=np.float64)
    arrays["ledger_counts"] = np.array(ledger_state["counts"], dtype=np.int64)
    return arrays


def _split_tier_arrays(arrays: dict[str, np.ndarray]) -> dict[str, dict]:
    """Invert :func:`_node_shard_arrays`'s tier namespacing."""
    return {
        tier: {
            k[len(tier) + 1 :]: v
            for k, v in arrays.items()
            if k.startswith(f"{tier}_") and k != _COMPACTIONS
        }
        for tier in _TIERS
    }


def _load_node_counters(node, arrays: dict[str, np.ndarray]) -> None:
    """Compaction counter, stream position + cost history (restored
    first, then the restore itself is charged on top — accounting
    continues, it does not restart)."""
    node.ssd_ps.compactor.total_compactions = int(arrays[_COMPACTIONS])
    node.hdfs.batches_read = int(arrays["hdfs_batches_read"])
    node.hdfs.bytes_read = int(arrays["hdfs_bytes_read"])
    node.ledger.load_state(
        {
            "categories": arrays["ledger_categories"].tolist(),
            "totals": arrays["ledger_totals"].tolist(),
            "counts": arrays["ledger_counts"].tolist(),
        }
    )


def _record_base(cluster, directory: str, chain_length: int) -> None:
    """The snapshot in ``directory`` has committed (or just loaded) and
    is the cluster's state: every tier marks it as its delta base and
    the cluster remembers the chain link and how many members a restore
    from it walks."""
    _mark_snapshot(cluster.nodes)
    cluster._ckpt_base = {
        "directory": os.path.abspath(directory),
        "rounds": cluster.rounds_completed,
        "manifest_sha256": fmt.manifest_sha256(directory),
        "chain_length": chain_length,
    }


def _require_boundary(cluster) -> None:
    if cluster._staged_rounds:
        raise CheckpointError(
            "cannot checkpoint: a round has working parameters staged in "
            "HBM — checkpoints are only valid at a round boundary"
        )


# ----------------------------------------------------------------------
def delta_base_problem(cluster, directory: str) -> str | None:
    """Why a delta into ``directory`` has no usable in-memory base, or
    ``None`` when it has one: the base exists, it is a committed
    *sibling* of the target, training has advanced past it, and the
    on-disk manifest still hashes to the recorded link."""
    base = cluster._ckpt_base
    if base is None:
        return "no base snapshot in memory — take a full checkpoint first"
    abs_dir = os.path.abspath(directory)
    if os.path.dirname(abs_dir) != os.path.dirname(base["directory"]):
        return (
            "a delta snapshot must be a sibling of its base "
            f"({base['directory']!r})"
        )
    if abs_dir == base["directory"]:
        return "a delta snapshot cannot overwrite its base"
    if cluster.rounds_completed <= base["rounds"]:
        return "no training progress since the base snapshot — nothing to delta"
    try:
        actual = fmt.manifest_sha256(base["directory"])
    except CheckpointError as err:
        return str(err)
    if actual != base["manifest_sha256"]:
        return (
            f"base snapshot at {base['directory']!r} changed on disk since "
            "it was recorded — take a full checkpoint"
        )
    return None


def save_cluster(cluster, directory: str, *, kind: str = "full") -> CheckpointStats:
    """Materialize a checkpoint of ``cluster`` into ``directory``.

    ``kind`` is ``"full"`` (self-contained), ``"delta"`` (only the state
    each tier changed since the mark it took when the previous snapshot
    committed — nothing is re-exported or read back to diff; raises
    :class:`CheckpointError` with :func:`delta_base_problem`'s reason
    when there is no usable base) or ``"auto"`` (delta when the base is
    usable, else full).  A delta must be a *sibling* of its base (the
    manifest's ``base`` link is a directory name).

    The cluster must be quiescent (no round staged between HBM load and
    write-back) — both training modes are quiescent between ``train`` /
    ``train_pipelined`` calls.  Every tier export runs before the
    directory is touched, so a refused save leaves a snapshot already
    committed there intact.  The manifest is invalidated first and
    committed last, so a crash mid-save can never leave a directory that
    reads back as a valid-but-inconsistent checkpoint; the tiers' marks
    and the chain link only advance after it commits, so a crashed save
    can be retried into the same directory against the unchanged base.
    A committed save is appended to ``cluster._ckpt_written`` (a re-saved
    directory moves to the end) with its base directory, or ``None``.
    """
    if kind not in ("full", "delta", "auto"):
        raise ValueError(f"unknown checkpoint mode {kind!r}")
    _require_boundary(cluster)
    base = None
    if kind != "full":
        problem = delta_base_problem(cluster, directory)
        if problem is None:
            base = cluster._ckpt_base
        elif kind == "delta":
            raise CheckpointError(problem)
    # Every export (and so every refusal: pinned rows, no mark) before
    # anything on disk changes.
    exports = [
        {
            tier: holder.export_state() if base is None else holder.export_delta()
            for tier, holder in _tiers(node).items()
        }
        for node in cluster.nodes
    ]
    os.makedirs(directory, exist_ok=True)
    fmt.invalidate(directory)

    shards: dict[str, str] = {}
    dense_bytes, shards[DENSE_SHARD] = fmt.write_shard(
        directory, DENSE_SHARD, _dense_arrays(cluster)
    )
    node_bytes: list[int] = []
    for node, tiers in zip(cluster.nodes, exports):
        name = node_shard_name(node.node_id)
        nbytes, shards[name] = fmt.write_shard(
            directory, name, _node_shard_arrays(node, tiers)
        )
        node_bytes.append(nbytes)

    written = "full" if base is None else "delta"
    payload = _config_payload(cluster)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": written,
        "fingerprint": fingerprint(payload),
        "config": payload,
        "rounds_completed": cluster.rounds_completed,
        "n_nodes": cluster.n_nodes,
        "shards": shards,
    }
    if base is not None:
        manifest["base"] = os.path.basename(base["directory"])
        manifest["base_manifest_sha256"] = base["manifest_sha256"]
    manifest_bytes = fmt.write_manifest(directory, manifest)
    # The commit is durable only once the directory entries are: without
    # this a power loss could undo it after a prune deleted older chains.
    fsync_dir(directory)
    _record_base(
        cluster, directory, 1 if base is None else base["chain_length"] + 1
    )
    committed = os.path.abspath(directory)
    cluster._ckpt_written.pop(committed, None)  # a re-save is the newest commit
    cluster._ckpt_written[committed] = None if base is None else base["directory"]

    # Simulated cost: one HDFS transfer per node, node-serial (the module
    # docstring says why); node 0 also ships the dense shard and manifest.
    node_bytes[0] += dense_bytes + manifest_bytes
    return CheckpointStats(
        directory=directory,
        rounds_completed=cluster.rounds_completed,
        seconds=sum(_charge_transfers(cluster.nodes, node_bytes, "ckpt_write")),
        nbytes=sum(node_bytes),
        kind=written,
    )


# ----------------------------------------------------------------------
def _diff_hint(saved: dict, current: dict) -> str:
    # Compare by canonical digest, not equality: the saved payload went
    # through JSON (tuples became lists), the current one did not.
    diffs = [
        key
        for key in sorted(set(saved) | set(current))
        if fingerprint({"v": saved.get(key)})
        != fingerprint({"v": current.get(key)})
    ]
    return ", ".join(diffs) if diffs else "unknown"


def _read_shard(
    directory: str, manifest: dict, name: str
) -> tuple[dict[str, np.ndarray], int]:
    """Shard ``name`` of one chain member, read once and digest-verified:
    ``(arrays, bytes)``."""
    digest = manifest["shards"].get(name)
    if digest is None:
        raise CheckpointError(f"checkpoint manifest lists no shard {name!r}")
    return fmt.read_shard(directory, name, digest)


def find_ssd_file(directory: str, node, file_id: int):
    """``node``'s SSD parameter file ``file_id`` from the chain ending at
    ``directory``, newest member first — files are immutable and ids
    never reused, so the first copy is exact.  A member whose shard is
    missing or corrupt is skipped.  Returns ``((keys, values)
    or None, sizes)``: the size of every shard the walk read."""
    from repro.ssd.file_store import packed_file

    name = node_shard_name(node.node_id)
    sizes: list[int] = []
    for member_dir, manifest in reversed(fmt.resolve_chain(directory)):
        try:
            arrays, size = _read_shard(member_dir, manifest, name)
        except CheckpointError:
            continue
        sizes.append(size)
        ssd = _split_tier_arrays(arrays)["ssd"]
        found = packed_file(ssd, file_id, node.ssd_ps.store.value_dim)
        if found is not None:
            return found, sizes
    return None, sizes


def _load_dense(node, dense: dict[str, np.ndarray]) -> None:
    mlp_state = {k: v for k, v in dense.items() if k.startswith("layer")}
    acc = [
        dense[f"adagrad_acc_{i}"]
        for i in range(sum(k.startswith("adagrad_acc_") for k in dense))
    ]
    node.model.mlp.load_state_dict(mlp_state)
    node.dense_optimizer.set_state([a.copy() for a in acc])


def _restore_nodes(cluster, chain, nodes) -> CheckpointStats:
    """The one restore path: load fresh ``nodes`` (built by the cluster's
    own recipe) from a resolved chain and splice them into ``cluster``.

    Each node reads its shards once, base first, digest-verifying each
    and folding it in memory (every tier's pure ``fold_delta``), and
    loads every tier once, takes the newest member's dense replica,
    compaction counter, stream position and cost history, and pays its
    own ``ckpt_read``: its shard chain plus the dense replica and the
    chain's manifests.  The nodes are spliced into ``cluster`` only once
    every one has loaded, so a missing or corrupt shard leaves the
    cluster as it was.

    Replacing every node rewinds the cluster to the snapshot — its
    round, nothing staged, the chain as the next delta's base.
    Replacing some is sound only while the survivors sit at the
    snapshot's round boundary, which is enforced; the replacements are
    marked at the snapshot, and the chain link survives only if it
    records this chain (otherwise survivors and replacements hold marks
    of different snapshots and the next save must be full).
    """
    newest_dir, manifest = chain[-1]
    current = _config_payload(cluster)
    if fingerprint(current) != manifest["fingerprint"]:
        raise CheckpointError(
            "checkpoint configuration mismatch (differs in: "
            f"{_diff_hint(manifest['config'], current)}) — refusing to restore"
        )
    if int(manifest["n_nodes"]) != cluster.n_nodes:
        raise CheckpointError("checkpoint n_nodes does not match cluster")
    partial = len(nodes) < cluster.n_nodes
    if partial:
        _require_boundary(cluster)
        if int(manifest["rounds_completed"]) != cluster.rounds_completed:
            raise CheckpointError(
                "partial restore requires a snapshot at the survivors' round "
                f"boundary (snapshot at round {manifest['rounds_completed']}, "
                f"survivors at {cluster.rounds_completed}) — restore the full "
                "cluster and replay instead"
            )

    dense, dense_bytes = _read_shard(newest_dir, manifest, DENSE_SHARD)
    shared_bytes = dense_bytes + sum(
        os.path.getsize(os.path.join(d, fmt.MANIFEST_NAME)) for d, _ in chain
    )
    nbytes = shared_bytes
    node_bytes: list[int] = []
    for node in nodes:
        # One member's shard in memory at a time: read, verify, fold in.
        states: dict[str, dict] = {}
        own_bytes = 0
        for d, m in chain:
            arrays, size = _read_shard(d, m, node_shard_name(node.node_id))
            tiers = _split_tier_arrays(arrays)
            if states:
                tiers = {
                    tier: holder.fold_delta(states[tier], tiers[tier])
                    for tier, holder in _tiers(node).items()
                }
            states = tiers
            own_bytes += size
        for tier, holder in _tiers(node).items():
            holder.load_state(states[tier])
        _load_dense(node, dense)
        _load_node_counters(node, arrays)  # the newest member's
        node_bytes.append(own_bytes + shared_bytes)
        nbytes += own_bytes
    seconds = max(_charge_transfers(nodes, node_bytes, "ckpt_read"))
    for node in nodes:  # every shard read and verified: splice them in
        cluster.nodes[node.node_id] = node

    if partial:
        _mark_snapshot(nodes)
        base = cluster._ckpt_base
        if base is not None and base["manifest_sha256"] != fmt.manifest_sha256(
            newest_dir
        ):
            cluster._ckpt_base = None
    else:
        cluster.rounds_completed = int(manifest["rounds_completed"])
        cluster._staged_rounds = 0
        _record_base(cluster, newest_dir, len(chain))
    stats = CheckpointStats(
        directory=newest_dir,
        rounds_completed=cluster.rounds_completed,
        seconds=seconds,
        nbytes=nbytes,
        kind="partial" if partial else manifest.get("kind", "full"),
    )
    cluster.restore_stats = stats
    return stats


def restore_cluster(cluster_cls, directory: str):
    """Build a cluster from a committed checkpoint (full or delta).

    The chain is resolved (:func:`~repro.ckpt.format.resolve_chain`), a
    cluster is built from the newest manifest's model, cluster config
    and stream parameters, and its nodes are loaded by the one restore
    path every restore takes — which checks that the rebuilt cluster
    hashes to the saved configuration fingerprint.
    """
    chain = fmt.resolve_chain(directory)
    saved = chain[-1][1]["config"]
    spec = dict(saved["model_spec"])
    spec["hidden_layers"] = tuple(spec["hidden_layers"])
    cluster = cluster_cls(
        ModelSpec(**spec),
        ClusterConfig(**saved["cluster_config"]),
        functional_batch_size=saved["functional_batch_size"],
        zipf_exponent=saved["zipf_exponent"],
    )
    _restore_nodes(cluster, chain, list(cluster.nodes))
    return cluster


def restore_nodes(cluster, directory: str, node_ids) -> CheckpointStats:
    """Replace the nodes ``node_ids`` of ``cluster`` in place with fresh
    ones loaded from a committed checkpoint (full or delta).

    Node shards are independent, so one dead node is rebuilt from its
    own shard chain while the survivors reload nothing — valid only when
    the snapshot was taken at the survivors' current round boundary,
    which is enforced.  Replacing every node is a full restore into the
    same object: stage registry, instrumentation and fault wrappers
    stay, and the cluster rewinds to the snapshot's round.  Only the
    replacements pay ``ckpt_read``.
    """
    ids = sorted({int(i) for i in node_ids})
    if not ids or ids[0] < 0 or ids[-1] >= cluster.n_nodes:
        raise ValueError("node_id out of range")
    chain = fmt.resolve_chain(directory)
    return _restore_nodes(cluster, chain, [cluster._make_node(i) for i in ids])
