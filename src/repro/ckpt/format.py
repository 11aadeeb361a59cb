"""On-disk checkpoint format: versioned manifest + content-hashed shards.

A checkpoint directory holds::

    manifest.json        # commit record: version, fingerprint, shard digests
    dense.npz            # dense tower parameters + dense optimizer state
    node_0000.npz        # node 0: MEM cache + SSD file store + HDFS counters
    node_0001.npz        # ...one shard per node

The manifest is the *commit point*: it is deleted before any shard is
touched and atomically rewritten (temp file + ``os.replace``) only after
every shard is durable, so an interrupted save leaves either the old
checkpoint intact or an uncommitted directory that :func:`read_manifest`
rejects — never a mix.  Each shard's SHA-256 is recorded in the manifest
and verified on restore, so a truncated or tampered shard is detected
before any state is loaded.

Format v3 adds *delta* snapshots: a manifest whose ``kind`` is
``"delta"`` records only the state that changed since its ``base``
snapshot (a sibling directory, itself full or delta), chained through
``base_manifest_sha256`` so a restore can prove the exact base it was
diffed against is the one on disk.  :func:`resolve_chain` walks the
links and returns the chain oldest-first; :func:`prune_checkpoints`
never drops a snapshot that a surviving delta still references.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import warnings

from repro.utils.io import atomic_write_bytes

__all__ = [
    "CHECKPOINT_DIR_PREFIX",
    "CheckpointError",
    "CheckpointScanWarning",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "atomic_write_bytes",
    "checkpoint_dir_name",
    "fingerprint",
    "latest_checkpoint",
    "manifest_sha256",
    "prune_checkpoints",
    "read_manifest",
    "resolve_chain",
    "sha256_file",
    "write_manifest",
]

#: Bump when the manifest schema or shard layout changes incompatibly.
#: v2: node shards carry the per-node CostLedger totals/counts, so a
#: restored run continues long-horizon cost accounting.
#: v3: manifests carry ``kind`` ("full" | "delta"); delta manifests chain
#: to a sibling ``base`` directory via ``base_manifest_sha256``.
#: v4: the manifest's ``config.cluster_config`` lost five keys (the
#: prefetch-window and extent-cache-tuner knobs), so an older chain can
#: neither rebuild its ``ClusterConfig`` nor match a fingerprint.
FORMAT_VERSION = 4

MANIFEST_NAME = "manifest.json"
DENSE_SHARD = "dense.npz"

#: Per-snapshot subdirectory prefix used by the periodic writer (the
#: snapshot stage) and by :func:`latest_checkpoint`'s scan.
CHECKPOINT_DIR_PREFIX = "round_"


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, incomplete, or incompatible."""


class CheckpointScanWarning(UserWarning):
    """A snapshot subdirectory was skipped during a directory scan.

    Scans (:func:`latest_checkpoint`, :func:`prune_checkpoints`) race
    benignly with concurrent pruning and with crash debris: a directory
    whose manifest disappears (or is torn) between ``os.listdir`` and
    the manifest read is not an error — the snapshot is simply not
    available — but the skip is *recorded* via this warning category so
    a supervisor's scan never silently narrows its restore options.
    """


def _scan_committed(directory: str) -> list[tuple[str, str, dict]]:
    """All committed snapshot subdirectories of ``directory``.

    Returns ``(entry, path, manifest)`` triples in name order.  A
    :data:`CHECKPOINT_DIR_PREFIX` subdirectory whose manifest cannot be
    read — missing (concurrently pruned, or uncommitted crash debris),
    torn, or version-incompatible — is skipped with a
    :class:`CheckpointScanWarning` instead of aborting the scan.
    """
    committed: list[tuple[str, str, dict]] = []
    for entry in sorted(os.listdir(directory)):
        sub = os.path.join(directory, entry)
        if not (entry.startswith(CHECKPOINT_DIR_PREFIX) and os.path.isdir(sub)):
            continue
        try:
            manifest = read_manifest(sub)
        except CheckpointError as exc:
            warnings.warn(
                f"skipping snapshot directory {sub!r} during scan: {exc}",
                CheckpointScanWarning,
                stacklevel=3,
            )
            continue
        committed.append((entry, sub, manifest))
    return committed


def node_shard_name(node_id: int) -> str:
    return f"node_{node_id:04d}.npz"


def checkpoint_dir_name(rounds_completed: int) -> str:
    """Canonical snapshot-subdirectory name for a round boundary."""
    return f"{CHECKPOINT_DIR_PREFIX}{rounds_completed:06d}"


def fingerprint(payload: dict) -> str:
    """Stable hash of a JSON-able configuration payload.

    Canonical JSON (sorted keys, no whitespace) keeps the digest
    independent of dict ordering and of whether sequences arrive as
    tuples or lists.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(directory: str, manifest: dict) -> int:
    """Atomically commit ``manifest``; returns its size in bytes."""
    blob = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
    atomic_write_bytes(os.path.join(directory, MANIFEST_NAME), blob)
    return len(blob)


def invalidate(directory: str) -> None:
    """Remove the commit record before shards are mutated in place."""
    path = os.path.join(directory, MANIFEST_NAME)
    if os.path.exists(path):
        os.remove(path)


def read_manifest(directory: str) -> dict:
    """Load and version-check a committed manifest."""
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise CheckpointError(
            f"no committed checkpoint at {directory!r} (missing {MANIFEST_NAME})"
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint manifest: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{version} is not supported "
            f"(this build reads v{FORMAT_VERSION})"
        )
    return manifest


def manifest_sha256(directory: str) -> str:
    """Digest of a directory's committed manifest file (the chain link)."""
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise CheckpointError(
            f"no committed checkpoint at {directory!r} (missing {MANIFEST_NAME})"
        )
    return sha256_file(path)


def resolve_chain(directory: str) -> list[tuple[str, dict]]:
    """Resolve a snapshot's delta chain, base first.

    Walks ``base`` links from ``directory`` back to its full snapshot,
    validating at each hop that

    * the base is a sibling directory with a committed manifest,
    * the base manifest's bytes hash to the child's recorded
      ``base_manifest_sha256`` (the diff was taken against *this exact*
      base, not a same-named rewrite),
    * every link shares the child's config ``fingerprint``,
    * ``rounds_completed`` strictly decreases walking backwards, and
    * the chain terminates at a ``kind == "full"`` snapshot.

    Returns ``[(directory, manifest), ...]`` oldest (the full base)
    first; a full snapshot resolves to a single-element chain.
    """
    chain: list[tuple[str, dict]] = []
    seen: set[str] = set()
    current = directory
    while True:
        real = os.path.realpath(current)
        if real in seen:
            raise CheckpointError(f"checkpoint chain has a cycle at {current!r}")
        seen.add(real)
        manifest = read_manifest(current)
        if chain:
            _, child = chain[-1]
            if manifest.get("fingerprint") != child.get("fingerprint"):
                raise CheckpointError(
                    f"delta base {current!r} was written by a different "
                    "configuration (fingerprint mismatch)"
                )
            if int(manifest["rounds_completed"]) >= int(
                child["rounds_completed"]
            ):
                raise CheckpointError(
                    f"delta base {current!r} is not older than its child "
                    f"(rounds {manifest['rounds_completed']} >= "
                    f"{child['rounds_completed']})"
                )
            expected = child["base_manifest_sha256"]
            actual = manifest_sha256(current)
            if actual != expected:
                raise CheckpointError(
                    f"delta base manifest at {current!r} does not match the "
                    f"chain link (sha256 {actual[:12]}… != recorded "
                    f"{expected[:12]}…)"
                )
        chain.append((current, manifest))
        kind = manifest.get("kind", "full")
        if kind == "full":
            break
        if kind != "delta":
            raise CheckpointError(f"unknown snapshot kind {kind!r}")
        base_name = manifest.get("base")
        if not base_name or os.path.basename(base_name) != base_name:
            raise CheckpointError(
                f"delta manifest at {current!r} has an invalid base "
                f"{base_name!r} (must be a sibling directory name)"
            )
        current = os.path.join(os.path.dirname(current), base_name)
    chain.reverse()
    return chain


def verify_shard(directory: str, name: str, expected_digest: str) -> str:
    """Existence + integrity check for one shard; returns its path."""
    path = os.path.join(directory, name)
    if not os.path.isfile(path):
        raise CheckpointError(f"checkpoint shard {name!r} is missing")
    digest = sha256_file(path)
    if digest != expected_digest:
        raise CheckpointError(
            f"checkpoint shard {name!r} is corrupt "
            f"(sha256 {digest[:12]}… != manifest {expected_digest[:12]}…)"
        )
    return path


def prune_checkpoints(
    directory: str,
    keep_last: int,
    *,
    keep_every: int | None = None,
    pin: str | None = None,
) -> list[str]:
    """Retention-ladder GC over committed snapshots.

    Scans ``directory`` for :func:`checkpoint_dir_name` subdirectories
    with a committed manifest, sorted by ``rounds_completed``, and
    removes every snapshot outside the retention ladder:

    * the newest ``keep_last`` snapshots are always kept (the dense
      rung — cheap rollback to any recent round);
    * with ``keep_every=M``, snapshots whose ``rounds_completed`` is a
      multiple of ``M`` are *also* kept, however old (the sparse rung —
      long-horizon restore points that survive the sliding window);
    * ``pin``, the caller's just-committed snapshot directory, is kept
      whatever its round, so a newer snapshot a previous run left in a
      reused directory can fill the window but never evict the caller's
      restore point.

    The rules compose as a union: a snapshot survives if **any** rule
    keeps it.  The ladder is then closed over delta chains: a
    snapshot referenced (transitively, via ``base`` links) by any kept
    snapshot is also kept, however old — GC may never strand a live
    delta chain without its full base.  Deletion is crash-safe in the
    same delete-manifest-first discipline every writer uses: the commit
    record goes first (:func:`invalidate`), so an interrupted prune
    leaves an *uncommitted* directory that every reader already rejects
    — never a half-valid snapshot.  Uncommitted directories (crash
    debris) are left untouched for inspection, each recorded with a
    :class:`CheckpointScanWarning`.  Returns the removed paths, oldest
    first.
    """
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    if keep_every is not None and keep_every < 1:
        raise ValueError("keep_every must be >= 1")
    if not os.path.isdir(directory):
        return []
    committed: list[tuple[int, str]] = []
    manifests: dict[str, dict] = {}
    for entry, sub, manifest in _scan_committed(directory):
        committed.append((int(manifest["rounds_completed"]), sub))
        manifests[entry] = manifest
    committed.sort()
    keep: set[str] = {os.path.basename(sub) for _, sub in committed[-keep_last:]}
    if pin is not None:
        keep.add(os.path.basename(os.path.normpath(pin)))
    if keep_every is not None:
        keep |= {
            os.path.basename(sub)
            for rounds, sub in committed
            if rounds % keep_every == 0
        }
    # Close over base links: a kept delta pins its whole ancestry.
    frontier = list(keep)
    while frontier:
        entry = frontier.pop()
        base = manifests.get(entry, {}).get("base")
        if base and base in manifests and base not in keep:
            keep.add(base)
            frontier.append(base)
    removed: list[str] = []
    for _, sub in committed:
        if os.path.basename(sub) in keep:
            continue
        invalidate(sub)  # commit record first — readers reject from here on
        shutil.rmtree(sub)
        removed.append(sub)
    return removed


def latest_checkpoint(directory: str, upto_round: int | None = None) -> str | None:
    """Newest committed checkpoint under ``directory``.

    Scans for :func:`checkpoint_dir_name` subdirectories (the layout the
    snapshot stage writes, under :class:`~repro.faults.Supervisor` too),
    keeping only those with a committed manifest at
    ``rounds_completed <= upto_round``; returns the path of the newest,
    or None.  A directory whose manifest disappears (or is torn) mid-scan
    — e.g. a concurrent prune racing the scan — is skipped with a
    recorded :class:`CheckpointScanWarning` instead of aborting.
    """
    if not os.path.isdir(directory):
        return None
    best: tuple[int, str] | None = None
    for _, sub, manifest in _scan_committed(directory):
        rounds = int(manifest["rounds_completed"])
        if upto_round is not None and rounds > upto_round:
            continue
        if best is None or rounds > best[0]:
            best = (rounds, sub)
    return best[1] if best else None
