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

Delta snapshots (``save_cluster(kind="delta")``, format v3) record only
the state that changed since the previous snapshot: new SSD parameter
files plus the mapping/stale-counter diff, the MEM cache's metadata plus
only its written value rows, and the (full, tiny) dense/optimizer state.
Each tier holds its own delta base — row-dirty bits in the MEM slab, a
file-id watermark in the SSD store — so a delta export reads only what
changed and steady-state snapshot cost scales with the round's write
set, not the model.  This module tells the tiers *when* a snapshot
exists: ``node.mark_snapshot()`` runs after a manifest commits (full or
delta) and after a restore finishes loading, never before, so a save
that dies mid-write leaves every mark where it was and the retry ships
the same bytes.  The cluster keeps only the chain link
(``cluster._ckpt_base``: directory, round, manifest digest, chain
length).

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
    "delta_base_problem",
    "delta_base_valid",
    "restore_cluster",
    "restore_nodes",
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
        transfer.append(node.hdfs.transfer_seconds(total))
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


def delta_base_valid(cluster, directory: str) -> bool:
    """Whether a delta into ``directory`` has a usable in-memory base."""
    return delta_base_problem(cluster, directory) is None


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
    ``train_pipelined`` calls.  The manifest is invalidated first and
    committed last, so a crash mid-save can never leave a directory that
    reads back as a valid-but-inconsistent checkpoint; the tiers' marks
    and the chain link only advance after it commits, so a crashed save
    can be retried into the same directory against the unchanged base.
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
    os.makedirs(directory, exist_ok=True)
    fmt.invalidate(directory)

    shards: dict[str, str] = {}
    dense_bytes, shards[DENSE_SHARD] = _write_shard(
        directory, DENSE_SHARD, _dense_arrays(cluster)
    )
    node_bytes: list[int] = []
    for node in cluster.nodes:
        name = node_shard_name(node.node_id)
        tiers = node.tier_states() if base is None else node.tier_deltas()
        nbytes, shards[name] = _write_shard(
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
    _record_base(
        cluster, directory, 1 if base is None else base["chain_length"] + 1
    )

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
        kind=written,
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


def _verified_shard(directory: str, manifest: dict, name: str) -> str:
    """Path of shard ``name`` of one chain member, digest-verified."""
    digest = manifest["shards"].get(name)
    if digest is None:
        raise CheckpointError(f"checkpoint manifest lists no shard {name!r}")
    return fmt.verify_shard(directory, name, digest)


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

    Every shard the restore reads is digest-verified before any state
    loads.  Each node folds its shards base first in memory
    (:meth:`~repro.core.node.HPSNode.fold_tier_deltas`) and loads every
    tier once, takes the newest member's dense replica, stream position
    and cost history, and pays its own ``ckpt_read``: its shard chain
    plus the dense replica and the chain's manifests.

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

    dense_path = _verified_shard(newest_dir, manifest, DENSE_SHARD)
    shards = {
        node.node_id: [
            _verified_shard(d, m, node_shard_name(node.node_id)) for d, m in chain
        ]
        for node in nodes
    }
    dense = _load_npz(dense_path)
    shared_bytes = os.path.getsize(dense_path) + sum(
        os.path.getsize(os.path.join(d, fmt.MANIFEST_NAME)) for d, _ in chain
    )
    nbytes = shared_bytes
    per_node = [0.0] * cluster.n_nodes
    for node in nodes:
        states: dict[str, dict] = {}
        own_bytes = 0
        for path in shards[node.node_id]:
            arrays = _load_npz(path)
            tiers = _split_tier_arrays(arrays)
            states = node.fold_tier_deltas(states, tiers) if states else tiers
            own_bytes += os.path.getsize(path)
        node.load_tier_states(states)
        _load_dense(node, dense)
        _load_node_counters(node, arrays)  # the newest member's
        t = node.hdfs.transfer_seconds(own_bytes + shared_bytes)
        node.ledger.add("ckpt_read", t)
        per_node[node.node_id] = t
        nbytes += own_bytes
        cluster.nodes[node.node_id] = node

    if partial:
        for node in nodes:
            node.mark_snapshot()
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
        op="restore",
        directory=newest_dir,
        rounds_completed=cluster.rounds_completed,
        seconds=max(per_node),
        nbytes=nbytes,
        per_node_seconds=tuple(per_node),
        kind="partial" if partial else manifest.get("kind", "full"),
    )
    cluster.restore_stats = stats
    return stats


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
    """Build a cluster from a committed checkpoint (full or delta).

    The chain is resolved (:func:`~repro.ckpt.format.resolve_chain`)
    and the freshly constructed cluster's nodes are loaded from it by
    the one restore path every restore takes.  Construction parameters
    left as ``None`` are taken from the manifest; parameters passed
    explicitly must hash to the saved configuration fingerprint (a
    checkpoint restored under a different config would silently train a
    different model, so mismatches are errors, not warnings).
    """
    chain = fmt.resolve_chain(directory)
    saved = chain[-1][1]["config"]
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
