"""On-disk checkpoint format: versioned manifest + content-hashed shards.

A checkpoint directory holds::

    manifest.json        # commit record: version, fingerprint, shard digests
    dense.shard          # dense tower parameters + dense optimizer state
    node_0000.shard      # node 0: MEM cache + SSD file store + HDFS counters
    node_0001.shard      # ...one shard per node

A shard is one header plus raw arrays (:func:`write_shard`):
:data:`SHARD_MAGIC`, the header's length as a little-endian uint64, a
JSON header listing every array as ``[name, dtype, shape, offset]`` or
``[name, dtype, shape, offset, stored dtype]``, then each array's bytes
at a 64-byte-aligned offset from the aligned end of the header.  The
fifth field is present when a non-negative integer array went to disk
in the narrowest unsigned dtype that holds its maximum (keys below
``KEY_DOMAIN_CAP``, LRU counts, LFU frequencies, file ids, offsets);
:func:`read_shard` widens it back, so a reader sees the dtype the
writer was given.  A save builds the shard in one buffer and writes
that; a restore reads the file once into one buffer, hashes those bytes
and decodes the same bytes with ``np.frombuffer`` (:func:`read_shard`)
— no archive, no second read.

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
links and returns the chain oldest-first.  Retention is the writer's:
the snapshot stage prunes only what its own cluster committed
(:meth:`~repro.core.cluster.HPSCluster.enable_snapshot_stage`).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings

import numpy as np

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
    "read_manifest",
    "read_shard",
    "resolve_chain",
    "write_manifest",
    "write_shard",
]

#: Bump when the manifest schema or shard layout changes incompatibly.
#: v2: node shards carry the per-node CostLedger totals/counts, so a
#: restored run continues long-horizon cost accounting.
#: v3: manifests carry ``kind`` ("full" | "delta"); delta manifests chain
#: to a sibling ``base`` directory via ``base_manifest_sha256``.
#: v4: the manifest's ``config.cluster_config`` lost five keys (the
#: prefetch-window and extent-cache-tuner knobs), so an older chain can
#: neither rebuild its ``ClusterConfig`` nor match a fingerprint.
#: v5: shards are a header plus aligned raw arrays, not ``.npz``; SSD
#: exports drop the mapping (derived on load); MEM deltas ship a kept
#: mask of the base plus the reordered entries, with a packed dirty mask
#: instead of int64 value positions; the config lost ``batch_size`` and
#: ``data_seed``.
#: v6: SSD exports drop the facade's ``load_seconds``, ``dump_seconds``
#: and ``extent_cache_hits``; the config lost ``compaction_stale_fraction``.
#: v7: SSD exports drop ``extent_cache_fids`` (the SSD tier has no file
#: cache); the config lost ``ssd_extent_cache_files``.
#: v8: SSD exports ship live rows only: a packed ``file_live`` mask over
#: every row, then keys and values of its set bits.
#: v9: a non-negative integer array is stored in the narrowest unsigned
#: dtype that holds its maximum, when that is smaller than its own; the
#: header entry names the stored dtype as a fifth field.
FORMAT_VERSION = 9

MANIFEST_NAME = "manifest.json"
DENSE_SHARD = "dense.shard"

#: First bytes of every shard file; the header's length follows.
SHARD_MAGIC = b"HPSSHRD5"
#: Where a shard's JSON header starts: after the magic and its length.
_HEADER_AT = len(SHARD_MAGIC) + 8
#: Array offsets in a shard are multiples of this (a cache line).
_ALIGN = 64

#: Per-snapshot subdirectory prefix used by the periodic writer (the
#: snapshot stage) and by :func:`latest_checkpoint`'s scan.
CHECKPOINT_DIR_PREFIX = "round_"


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, incomplete, or incompatible."""


class CheckpointScanWarning(UserWarning):
    """A snapshot subdirectory was skipped during a directory scan.

    :func:`latest_checkpoint`'s scan races benignly with concurrent
    pruning and with crash debris: a directory whose manifest disappears
    (or is torn) between ``os.listdir`` and the manifest read is not an
    error — the snapshot is simply not available — but the skip is
    *recorded* via this warning category so a supervisor's scan never
    silently narrows its restore options.
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
    return f"node_{node_id:04d}.shard"


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


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def _narrowed(a: np.ndarray) -> np.dtype | None:
    """The unsigned dtype a non-empty, non-negative integer array (not a
    0-d scalar) is stored in — the narrowest that holds its maximum — or
    None when that is no smaller than its own dtype."""
    if a.dtype.kind not in "iu" or a.dtype.itemsize == 1 or a.ndim == 0 or not a.size:
        return None
    if a.dtype.kind == "i" and a.min() < 0:
        return None
    stored = np.min_scalar_type(a.max())
    return stored if stored.itemsize < a.dtype.itemsize else None


def write_shard(
    directory: str, name: str, arrays: dict[str, np.ndarray]
) -> tuple[int, str]:
    """Durably write ``arrays`` as shard ``name`` — magic, header length,
    JSON header, then every array's raw bytes at a 64-byte-aligned
    offset, built in one zero-padded buffer (equal arrays, equal bytes).
    An integer array is stored narrower when :func:`_narrowed` allows.
    Returns (bytes, digest) of exactly the bytes committed."""
    packed = {}
    entries = []
    end = 0
    for key, a in arrays.items():
        a = np.asarray(a, order="C")
        if a.dtype.hasobject:
            raise ValueError(f"shard array {key!r} has object dtype")
        entries.append([key, a.dtype.str, list(a.shape), _aligned(end)])
        stored = _narrowed(a)
        if stored is not None:
            a = a.astype(stored)
            entries[-1].append(stored.str)
        packed[key] = a
        end = entries[-1][3] + a.nbytes
    header = json.dumps({"arrays": entries}, separators=(",", ":")).encode()
    start = _aligned(_HEADER_AT + len(header))
    buf = bytearray(start + end)
    buf[: len(SHARD_MAGIC)] = SHARD_MAGIC
    buf[len(SHARD_MAGIC) : _HEADER_AT] = len(header).to_bytes(8, "little")
    buf[_HEADER_AT : _HEADER_AT + len(header)] = header
    for (_, _, _, offset, *_), a in zip(entries, packed.values()):
        dst = np.frombuffer(buf, np.uint8, a.nbytes, start + offset)
        dst[:] = a.reshape(-1).view(np.uint8)
    atomic_write_bytes(os.path.join(directory, name), buf)
    return len(buf), hashlib.sha256(buf).hexdigest()


def read_shard(
    directory: str, name: str, expected_digest: str
) -> tuple[dict[str, np.ndarray], int]:
    """Read shard ``name`` once, check its SHA-256 against the manifest's
    and decode the bytes it hashed: returns (arrays, bytes), every array
    in the dtype :func:`write_shard` was given and writable — a view of
    that one buffer, or a widened copy of an array stored narrower."""
    try:
        with open(os.path.join(directory, name), "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            n = fh.readinto(data)
    except OSError:
        raise CheckpointError(f"checkpoint shard {name!r} is missing") from None
    digest = hashlib.sha256(memoryview(data)[:n]).hexdigest()
    if n != len(data) or digest != expected_digest:
        raise CheckpointError(
            f"checkpoint shard {name!r} is corrupt "
            f"(sha256 {digest[:12]}… != manifest {expected_digest[:12]}…)"
        )
    out = {}
    try:
        if bytes(data[: len(SHARD_MAGIC)]) != SHARD_MAGIC:
            raise ValueError("bad magic")
        length = int.from_bytes(data[len(SHARD_MAGIC) : _HEADER_AT], "little")
        start = _aligned(_HEADER_AT + length)
        for key, dtype, shape, offset, *stored in json.loads(
            bytes(data[_HEADER_AT : _HEADER_AT + length])
        )["arrays"]:
            dt = np.dtype(dtype)
            if any(not isinstance(v, int) or v < 0 for v in (*shape, offset)):
                raise ValueError(f"array {key!r} has a negative or non-integer extent")
            st = np.dtype(stored[0]) if stored else dt
            narrower = dt.kind in "iu" and st.kind == "u" and st.itemsize < dt.itemsize
            if len(stored) > 1 or (stored and not narrower):
                raise ValueError(f"array {key!r} cannot be stored as {st} for {dt}")
            count = int(np.prod(shape, dtype=np.int64))
            if start + offset + count * st.itemsize > n:
                raise ValueError(f"array {key!r} runs past the end")
            a = np.frombuffer(data, st, count, start + offset).reshape(shape)
            out[key] = a.astype(dt) if stored else a
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"checkpoint shard {name!r} is malformed: {exc}") from exc
    return out, n


def latest_checkpoint(directory: str) -> str | None:
    """Newest committed checkpoint under ``directory``.

    Scans for :func:`checkpoint_dir_name` subdirectories (the layout the
    snapshot stage writes, under :class:`~repro.faults.Supervisor` too),
    keeping only those with a committed manifest; returns the path of
    the newest, or None.  A directory whose manifest disappears (or is
    torn) mid-scan — e.g. a concurrent prune racing the scan — is
    skipped with a recorded :class:`CheckpointScanWarning` instead of
    aborting.
    """
    if not os.path.isdir(directory):
        return None
    best: tuple[int, str] | None = None
    for _, sub, manifest in _scan_committed(directory):
        rounds = int(manifest["rounds_completed"])
        if best is None or rounds > best[0]:
            best = (rounds, sub)
    return best[1] if best else None
