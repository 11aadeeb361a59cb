"""Cluster-level checkpoint save/restore.

:func:`save_cluster` snapshots a quiescent
:class:`~repro.core.cluster.HPSCluster` into a checkpoint directory;
:func:`restore_cluster` rebuilds a cluster from one.  Both charge the
simulated cost of moving the snapshot to/from the distributed FS through
each node's :class:`~repro.hardware.ledger.CostLedger` (categories
``ckpt_write`` / ``ckpt_read``) using the node's HDFS model.  Saves
split a shard's cost into serialization vs HDFS transfer and overlap
them (serialize shard ``n + 1`` while shipping shard ``n``), so the
save-level cost is a flow-shop makespan; restores read shards in
parallel, so their cost is the slowest node.

Delta snapshots (:func:`save_cluster_delta`, format v3) record only the
state that changed since the previous snapshot: new SSD parameter files
plus the mapping/stale-counter diff, the MEM cache's metadata plus only
its written value rows, and the (full, tiny) dense/optimizer state.
Each tier holds its own delta base — row-dirty bits in the MEM slab, a
file-id watermark in the SSD store — so a delta export reads only what
changed and steady-state snapshot cost scales with the round's write
set, not the model.  This module tells the tiers *when* a snapshot
exists: ``node.mark_snapshot()`` runs after a manifest commits (full or
delta) and after a restore finishes loading, never before, so a save
that dies mid-write leaves every mark where it was and the retry ships
the same bytes.  The cluster keeps only the chain link
(``cluster._ckpt_base``: directory, round, manifest digest, chain
length).  Restore
walks the manifest chain (:func:`~repro.ckpt.format.resolve_chain`) —
base first, deltas replayed in order.

Partial restore (:func:`restore_node`): node shards are independent, so
when one node dies at a round boundary where a snapshot exists, the
surviving majority reloads *nothing* — a fresh replacement node loads
its base shard, replays its delta chain, and splices in.

Resume parity: batches are pure functions of ``(seed, index)`` and every
piece of mutable training state is captured (dense tower, dense/sparse
optimizer state, MEM cache contents *and* replacement order, SSD file
layout with stale counters, stream position), so ``train(k) + save +
restore + train(m)`` is bit-identical to ``train(k + m)`` in both
lockstep and pipelined modes — for full snapshots, delta chains, and
partial-node restores alike.
"""

from __future__ import annotations

import hashlib
import io
import os
from dataclasses import asdict, dataclass

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

__all__ = [
    "CheckpointStats",
    "save_cluster",
    "save_cluster_delta",
    "restore_cluster",
    "restore_node",
]


@dataclass(frozen=True)
class CheckpointStats:
    """Cost accounting for one save or restore."""

    op: str  # "save" | "restore"
    directory: str
    rounds_completed: int
    #: Critical path.  Saves price as a serialize/transfer flow shop
    #: (shard ``n + 1`` serializes while shard ``n`` ships), so this is
    #: the pipeline makespan; restores keep the parallel-shard model
    #: (slowest node).
    seconds: float
    nbytes: int
    per_node_seconds: tuple[float, ...]
    #: "full" | "delta" for saves; "full" | "delta" | "partial" for
    #: restores (what the newest chain member / restore mode was).
    kind: str = "full"
    #: Total CPU-side shard serialization time across nodes (saves only;
    #: zero for restores).
    serialize_seconds: float = 0.0
    #: Total HDFS transfer time across nodes (saves only; zero for
    #: restores).
    transfer_seconds: float = 0.0


# ----------------------------------------------------------------------
def _config_payload(cluster) -> dict:
    """The JSON-able identity a checkpoint is only valid against.

    Covers everything that shapes training semantics: model/cluster
    config, optimizer identities (the sparse value layout in particular),
    and the data stream's RNG identity (seed, skew, batch size) — batch
    ``i`` is a pure function of these, which is what makes replay exact.
    """
    return {
        "format_version": FORMAT_VERSION,
        "model_spec": asdict(cluster.model_spec),
        "cluster_config": asdict(cluster.config),
        "sparse_optimizer": cluster.sparse_optimizer.spec(),
        "dense_optimizer": cluster.nodes[0].dense_optimizer.spec(),
        "data_seed": cluster.generator.seed,
        "zipf_exponent": cluster.generator.zipf_exponent,
        "noise": cluster.generator.noise,
        "functional_batch_size": cluster.functional_batch_size,
    }


def _write_shard(directory: str, name: str, arrays: dict) -> tuple[int, str]:
    """Serialize ``arrays`` to an ``.npz`` shard; returns (bytes, digest).

    The shard is built in memory so its digest is of exactly what was
    committed, then written durably (temp + ``os.replace``).
    """
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    with buf.getbuffer() as data:  # the buffer itself, not a copy of it
        fmt.atomic_write_bytes(os.path.join(directory, name), data)
        return data.nbytes, hashlib.sha256(data).hexdigest()


def _hdfs_transfer_seconds(node, nbytes: int) -> float:
    """Checkpoint traffic prices through the node's HDFS stream model."""
    return node.hdfs.transfer_seconds(nbytes)


def _overlap_snapshot_cost(
    cluster, node_bytes: list[int], dense_bytes: int, manifest_bytes: int
) -> tuple[tuple[float, ...], float, float, float]:
    """Flow-shop cost of materializing a snapshot's shards.

    A shard costs two distinct things: CPU-side serialization (priced by
    the HDFS spec's ``serialize_bandwidth``) and the HDFS transfer
    itself.  The snapshot stage overlaps them — shard ``n + 1``
    serializes while shard ``n`` is in flight — so the snapshot-level
    cost is the two-machine flow-shop makespan over shards in node
    order, not the serial sum of both components.  Node 0's shard also
    carries the dense replica and the manifest.

    Charges each node's ledger its own ``serialize + transfer`` share
    and returns ``(per_node_seconds, serialize_total, transfer_total,
    makespan)``.
    """
    serialize: list[float] = []
    transfer: list[float] = []
    for node, nbytes in zip(cluster.nodes, node_bytes):
        total = nbytes + (
            dense_bytes + manifest_bytes if node.node_id == 0 else 0
        )
        serialize.append(total / node.hdfs.spec.serialize_bandwidth)
        transfer.append(_hdfs_transfer_seconds(node, total))
    per_node: list[float] = []
    s_done = 0.0
    t_done = 0.0
    for node, s, t in zip(cluster.nodes, serialize, transfer):
        s_done += s
        t_done = max(t_done, s_done) + t
        node.ledger.add("ckpt_write", s + t)
        per_node.append(s + t)
    return tuple(per_node), sum(serialize), sum(transfer), t_done


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

    Tier arrays are namespaced with a 4-char prefix (``mem_``/``ssd_``/
    ``hbm_``); the stream position and the long-horizon cost accounting
    ride alongside — the cost of *this* save lands after the snapshot
    (it depends on the shard bytes), exactly as a deployment would book
    it.
    """
    arrays: dict[str, np.ndarray] = {}
    for tier, state in tiers.items():
        for key, value in state.items():
            arrays[f"{tier}_{key}"] = value
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
    from repro.core.node import HPSNode

    return {
        tier: {
            k[len(tier) + 1 :]: v
            for k, v in arrays.items()
            if k.startswith(f"{tier}_")
        }
        for tier in HPSNode.TIERS
    }


def _load_npz(path: str) -> dict[str, np.ndarray]:
    with np.load(path) as z:
        return {key: z[key] for key in z.files}


def _load_node_counters(node, arrays: dict[str, np.ndarray]) -> None:
    """Stream position + cost history (restored first, then the restore
    itself is charged on top — accounting continues, it does not
    restart)."""
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
    for node in cluster.nodes:
        node.mark_snapshot()
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
def save_cluster(cluster, directory: str) -> CheckpointStats:
    """Materialize a full checkpoint of ``cluster`` into ``directory``.

    The cluster must be quiescent (no round staged between HBM load and
    write-back) — both training modes are quiescent between ``train`` /
    ``train_pipelined`` calls.  The manifest is invalidated first and
    committed last, so a crash mid-save can never leave a directory that
    reads back as a valid-but-inconsistent checkpoint.
    """
    _require_boundary(cluster)
    os.makedirs(directory, exist_ok=True)
    fmt.invalidate(directory)

    shards: dict[str, str] = {}
    dense_bytes, digest = _write_shard(directory, DENSE_SHARD, _dense_arrays(cluster))
    shards[DENSE_SHARD] = digest

    node_bytes: list[int] = []
    for node in cluster.nodes:
        name = node_shard_name(node.node_id)
        nbytes, digest = _write_shard(
            directory, name, _node_shard_arrays(node, node.tier_states())
        )
        shards[name] = digest
        node_bytes.append(nbytes)

    payload = _config_payload(cluster)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "full",
        "fingerprint": fingerprint(payload),
        "config": payload,
        "rounds_completed": cluster.rounds_completed,
        "n_nodes": cluster.n_nodes,
        "shards": shards,
    }
    manifest_bytes = fmt.write_manifest(directory, manifest)
    _record_base(cluster, directory, 1)

    # Simulated cost: serialize/transfer flow shop over node shards —
    # shard n+1 serializes while shard n ships; node 0 additionally
    # commits the dense replica and the manifest.
    per_node, ser_s, xfer_s, makespan = _overlap_snapshot_cost(
        cluster, node_bytes, dense_bytes, manifest_bytes
    )
    return CheckpointStats(
        op="save",
        directory=directory,
        rounds_completed=cluster.rounds_completed,
        seconds=makespan,
        nbytes=sum(node_bytes) + dense_bytes + manifest_bytes,
        per_node_seconds=per_node,
        kind="full",
        serialize_seconds=ser_s,
        transfer_seconds=xfer_s,
    )


def delta_base_valid(cluster, directory: str) -> bool:
    """Whether a delta into ``directory`` has a usable in-memory base:
    one exists, it is a committed *sibling* of the target, the on-disk
    manifest still hashes to the recorded link, and training has
    advanced past it."""
    base = getattr(cluster, "_ckpt_base", None)
    if base is None:
        return False
    abs_dir = os.path.abspath(directory)
    if os.path.dirname(abs_dir) != os.path.dirname(base["directory"]):
        return False
    if abs_dir == base["directory"]:
        return False
    if cluster.rounds_completed <= base["rounds"]:
        return False
    try:
        return fmt.manifest_sha256(base["directory"]) == base["manifest_sha256"]
    except CheckpointError:
        return False


def save_cluster_delta(cluster, directory: str) -> CheckpointStats:
    """Materialize a delta snapshot chained to the previous snapshot.

    Each tier diffs against the mark it took when the previous snapshot
    committed (:func:`save_cluster` / :func:`save_cluster_delta` /
    restore), so nothing is re-exported or read back to diff.
    ``directory`` must be a *sibling* of the base (the manifest's
    ``base`` link is a directory name).

    Same atomicity discipline as a full save: invalidate first, commit
    the manifest last.  The tiers' marks and the chain link only advance
    after the manifest commits, so a crashed delta save can be retried
    into the same directory against the unchanged base.
    """
    _require_boundary(cluster)
    base = getattr(cluster, "_ckpt_base", None)
    if base is None:
        raise CheckpointError(
            "no base snapshot in memory — take a full checkpoint first"
        )
    abs_dir = os.path.abspath(directory)
    if os.path.dirname(abs_dir) != os.path.dirname(base["directory"]):
        raise CheckpointError(
            "a delta snapshot must be a sibling of its base "
            f"({base['directory']!r})"
        )
    if abs_dir == base["directory"]:
        raise CheckpointError("a delta snapshot cannot overwrite its base")
    if cluster.rounds_completed <= base["rounds"]:
        raise CheckpointError(
            "no training progress since the base snapshot — nothing to delta"
        )
    actual = fmt.manifest_sha256(base["directory"])
    if actual != base["manifest_sha256"]:
        raise CheckpointError(
            f"base snapshot at {base['directory']!r} changed on disk since "
            "it was recorded — take a full checkpoint"
        )

    os.makedirs(directory, exist_ok=True)
    fmt.invalidate(directory)

    shards: dict[str, str] = {}
    dense_bytes, digest = _write_shard(directory, DENSE_SHARD, _dense_arrays(cluster))
    shards[DENSE_SHARD] = digest

    node_bytes: list[int] = []
    for node in cluster.nodes:
        name = node_shard_name(node.node_id)
        nbytes, digest = _write_shard(
            directory, name, _node_shard_arrays(node, node.tier_deltas())
        )
        shards[name] = digest
        node_bytes.append(nbytes)

    payload = _config_payload(cluster)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "delta",
        "base": os.path.basename(base["directory"]),
        "base_manifest_sha256": base["manifest_sha256"],
        "fingerprint": fingerprint(payload),
        "config": payload,
        "rounds_completed": cluster.rounds_completed,
        "n_nodes": cluster.n_nodes,
        "shards": shards,
    }
    manifest_bytes = fmt.write_manifest(directory, manifest)
    _record_base(cluster, directory, base["chain_length"] + 1)

    per_node, ser_s, xfer_s, makespan = _overlap_snapshot_cost(
        cluster, node_bytes, dense_bytes, manifest_bytes
    )
    return CheckpointStats(
        op="save",
        directory=directory,
        rounds_completed=cluster.rounds_completed,
        seconds=makespan,
        nbytes=sum(node_bytes) + dense_bytes + manifest_bytes,
        per_node_seconds=per_node,
        kind="delta",
        serialize_seconds=ser_s,
        transfer_seconds=xfer_s,
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


def _verify_chain_shards(chain, node_ids, *, dense: bool = True):
    """Digest-verify every shard the restore will read, up front.

    Returns one ``{shard name: verified path}`` dict per chain member.
    A truncated or missing shard anywhere in the chain fails the restore
    before any state has been loaded.
    """
    verified: list[dict[str, str]] = []
    for directory, manifest in chain:
        shards = dict(manifest["shards"])
        wanted: list[str] = []
        if dense:
            if DENSE_SHARD not in shards:
                raise CheckpointError("checkpoint manifest lists no dense shard")
            wanted.append(DENSE_SHARD)
        for node_id in node_ids:
            name = node_shard_name(node_id)
            if name not in shards:
                raise CheckpointError(
                    f"checkpoint manifest lists no shard {name!r}"
                )
            wanted.append(name)
        verified.append(
            {
                name: fmt.verify_shard(directory, name, shards[name])
                for name in wanted
            }
        )
    return verified


def _load_dense(node, dense: dict[str, np.ndarray]) -> None:
    mlp_state = {k: v for k, v in dense.items() if k.startswith("layer")}
    acc = [
        dense[f"adagrad_acc_{i}"]
        for i in range(sum(k.startswith("adagrad_acc_") for k in dense))
    ]
    node.model.mlp.load_state_dict(mlp_state)
    node.dense_optimizer.set_state([a.copy() for a in acc])


def restore_cluster(
    cluster_cls,
    directory: str,
    cluster_config: ClusterConfig | None = None,
    *,
    model_spec: ModelSpec | None = None,
    sparse_optimizer=None,
    hardware=None,
    data_seed: int | None = None,
    functional_batch_size: int | None = None,
    zipf_exponent: float | None = None,
    ssd_directory: str | None = None,
):
    """Rebuild a cluster from a committed checkpoint (full or delta).

    A delta target resolves its whole chain first
    (:func:`~repro.ckpt.format.resolve_chain`); every chain member's
    shard digests are verified before any state loads, then each node
    loads its base shard and replays its deltas oldest-first.
    Construction parameters left as ``None`` are taken from the
    manifest; parameters passed explicitly must hash to the saved
    configuration fingerprint (a checkpoint restored under a different
    config would silently train a different model, so mismatches are
    errors, not warnings).
    """
    chain = fmt.resolve_chain(directory)
    newest_dir, manifest = chain[-1]
    saved = manifest["config"]
    if model_spec is None:
        kwargs = dict(saved["model_spec"])
        kwargs["hidden_layers"] = tuple(kwargs["hidden_layers"])
        model_spec = ModelSpec(**kwargs)
    if cluster_config is None:
        cluster_config = ClusterConfig(**saved["cluster_config"])
    cluster = cluster_cls(
        model_spec,
        cluster_config,
        sparse_optimizer=sparse_optimizer,
        hardware=hardware,
        data_seed=saved["data_seed"] if data_seed is None else data_seed,
        functional_batch_size=(
            saved["functional_batch_size"]
            if functional_batch_size is None
            else functional_batch_size
        ),
        zipf_exponent=(
            saved["zipf_exponent"] if zipf_exponent is None else zipf_exponent
        ),
        ssd_directory=ssd_directory,
    )
    current = _config_payload(cluster)
    if fingerprint(current) != manifest["fingerprint"]:
        raise CheckpointError(
            "checkpoint configuration mismatch (differs in: "
            f"{_diff_hint(saved, current)}) — refusing to restore"
        )
    if int(manifest["n_nodes"]) != cluster.n_nodes:
        raise CheckpointError("checkpoint n_nodes does not match cluster")

    node_ids = [node.node_id for node in cluster.nodes]
    verified = _verify_chain_shards(chain, node_ids)

    dense_path = verified[-1][DENSE_SHARD]
    dense = _load_npz(dense_path)
    dense_bytes = os.path.getsize(dense_path)
    manifest_bytes = sum(
        os.path.getsize(os.path.join(d, fmt.MANIFEST_NAME)) for d, _ in chain
    )

    per_node: list[float] = []
    read_bytes = 0
    for node in cluster.nodes:
        name = node_shard_name(node.node_id)
        own_bytes = 0
        arrays: dict[str, np.ndarray] = {}
        for i, member in enumerate(verified):
            path = member[name]
            arrays = _load_npz(path)
            if i == 0:
                node.load_tier_states(_split_tier_arrays(arrays))
            else:
                node.load_tier_deltas(_split_tier_arrays(arrays))
            own_bytes += os.path.getsize(path)
        _load_dense(node, dense)
        _load_node_counters(node, arrays)  # newest chain member's counters
        # Every node pulls its own shard chain plus the shared dense
        # replica and the chain's manifests back from the distributed FS.
        t = _hdfs_transfer_seconds(node, own_bytes + dense_bytes + manifest_bytes)
        node.ledger.add("ckpt_read", t)
        per_node.append(t)
        read_bytes += own_bytes

    cluster.rounds_completed = int(manifest["rounds_completed"])
    cluster.restore_stats = CheckpointStats(
        op="restore",
        directory=directory,
        rounds_completed=cluster.rounds_completed,
        seconds=max(per_node),
        nbytes=read_bytes + dense_bytes + manifest_bytes,
        per_node_seconds=tuple(per_node),
        kind=manifest.get("kind", "full"),
    )
    # The restored state *is* the newest snapshot — mark it as the next
    # delta's base so a resumed run keeps chaining.
    _record_base(cluster, newest_dir, len(chain))
    return cluster


def restore_node(cluster, directory: str, node_id: int) -> CheckpointStats:
    """Partial restore: replace one dead node, survivors reload nothing.

    Node shards are independent (format v2+), so when node ``node_id``
    dies the surviving majority's state is already exactly the newest
    committed snapshot *iff* that snapshot was taken at the survivors'
    current round boundary — which is the only condition under which
    zero-replay recovery is sound, and is therefore enforced.  A fresh
    replacement node loads the dense replica, its base shard, and its
    delta chain, then splices into the cluster; only the replacement
    pays ``ckpt_read``.
    """
    if not 0 <= node_id < cluster.n_nodes:
        raise ValueError("node_id out of range")
    _require_boundary(cluster)
    chain = fmt.resolve_chain(directory)
    newest_dir, manifest = chain[-1]
    current = _config_payload(cluster)
    if fingerprint(current) != manifest["fingerprint"]:
        raise CheckpointError(
            "checkpoint configuration mismatch — refusing a partial restore"
        )
    if int(manifest["n_nodes"]) != cluster.n_nodes:
        raise CheckpointError("checkpoint n_nodes does not match cluster")
    if int(manifest["rounds_completed"]) != cluster.rounds_completed:
        raise CheckpointError(
            "partial restore requires a snapshot at the survivors' round "
            f"boundary (snapshot at round {manifest['rounds_completed']}, "
            f"survivors at {cluster.rounds_completed}) — restore the full "
            "cluster and replay instead"
        )

    verified = _verify_chain_shards(chain, [node_id], dense=False)
    name = node_shard_name(node_id)
    dense_path = fmt.verify_shard(
        newest_dir, DENSE_SHARD, dict(manifest["shards"])[DENSE_SHARD]
    )

    node = cluster._make_node(node_id)
    _load_dense(node, _load_npz(dense_path))
    own_bytes = 0
    arrays: dict[str, np.ndarray] = {}
    for i, member in enumerate(verified):
        path = member[name]
        arrays = _load_npz(path)
        if i == 0:
            node.load_tier_states(_split_tier_arrays(arrays))
        else:
            node.load_tier_deltas(_split_tier_arrays(arrays))
        own_bytes += os.path.getsize(path)
    _load_node_counters(node, arrays)
    # The replacement now holds the snapshot; the survivors sit at its
    # boundary (checked above), so their marks stand as they are.
    node.mark_snapshot()

    dense_bytes = os.path.getsize(dense_path)
    manifest_bytes = sum(
        os.path.getsize(os.path.join(d, fmt.MANIFEST_NAME)) for d, _ in chain
    )
    t = _hdfs_transfer_seconds(node, own_bytes + dense_bytes + manifest_bytes)
    node.ledger.add("ckpt_read", t)

    cluster.nodes[node_id] = node
    peers = [n.mem_ps for n in cluster.nodes]
    for n in cluster.nodes:
        n.mem_ps.peers = peers

    # The chain link stays valid only if it records exactly the chain we
    # just restored from; otherwise the survivors' marks and the
    # replacement's belong to different snapshots and the next save must
    # be full.
    base = getattr(cluster, "_ckpt_base", None)
    if base is not None and base["manifest_sha256"] != fmt.manifest_sha256(
        newest_dir
    ):
        cluster._ckpt_base = None

    per_node = tuple(
        t if n.node_id == node_id else 0.0 for n in cluster.nodes
    )
    stats = CheckpointStats(
        op="restore",
        directory=directory,
        rounds_completed=cluster.rounds_completed,
        seconds=t,
        nbytes=own_bytes + dense_bytes + manifest_bytes,
        per_node_seconds=per_node,
        kind="partial",
    )
    cluster.restore_stats = stats
    return stats
