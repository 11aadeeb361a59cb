"""The per-file parameter-file store the row-addressed ``FileStore`` replaced,
kept as the test oracle.

``ReferenceFileStore`` is the parent implementation reduced to what a
reference needs: one ``ReferenceFile`` object per file holding its own
key and value arrays, a plain ``dict`` for the key→file-id mapping, and
the per-file ``read`` exactly as it ran in production — group the batch
by file id, then per touched file ``searchsorted`` + slice + gather +
scatter around the extent-cache / fault-arm / device-charge bookkeeping.
It prices on its own device and ledger and keeps its own extent cache —
the per-file ``ReferenceSSDDevice.read`` / ``read_warm`` and the
per-file ``ReferenceFileCache.get`` / ``put`` LRU that ``FileStore``'s
array accounting pass replaced — so a test can drive it in lockstep with
a ``FileStore`` and demand that every simulated second, counter and
cache decision agrees bit for bit.  It trusts its input: validation is
the store's job, not the oracle's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.ledger import CostLedger
from repro.hardware.ssd_device import SSDDevice
from repro.hardware.specs import SSDSpec
from repro.ssd.file_store import ReadResult

__all__ = [
    "ReferenceFile",
    "ReferenceFileCache",
    "ReferenceFileStore",
    "ReferenceSSDDevice",
    "assert_same_arrays",
    "assert_stores_agree",
]


class ReferenceSSDDevice(SSDDevice):
    """The device with its per-file read charges: one ledger ``add`` per
    file, in call order."""

    def read(self, n_bytes: int) -> float:
        """Account a whole-file device read; returns simulated seconds."""
        t = self.read_time(n_bytes)
        self.bytes_read += n_bytes
        self.read_ops += 1
        self.ledger.add("ssd_read", t)
        return t

    def read_warm(self, n_bytes: int) -> float:
        """Account an extent-cache hit (``ssd_read`` category, not a
        device read); returns seconds."""
        t = self.warm_read_time(n_bytes)
        self.ledger.add("ssd_read", t)
        return t


class ReferenceFileCache:
    """The per-file LRU extent cache: ``get`` refreshes a resident entry,
    ``put`` admits one and evicts the least recently used past
    ``max_files``; a disabled cache (``max_files <= 0``) counts
    nothing."""

    def __init__(self, max_files: int = 0) -> None:
        self.max_files = int(max_files)
        self._payloads: dict[int, object] = {}  # oldest first
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        return self.max_files > 0

    def get(self, file_id: int):
        if not self.enabled:
            return None
        fid = int(file_id)
        payload = self._payloads.pop(fid, None)
        if payload is None:
            self.misses += 1
            return None
        self._payloads[fid] = payload
        self.hits += 1
        return payload

    def put(self, file_id: int, payload) -> None:
        if not self.enabled:
            return
        fid = int(file_id)
        self._payloads.pop(fid, None)
        self._payloads[fid] = payload
        while len(self._payloads) > self.max_files:
            del self._payloads[next(iter(self._payloads))]
            self.evictions += 1

    def warm(self, file_ids, payload_of) -> None:
        if not self.enabled:
            return
        ids = [int(f) for f in file_ids]
        for fid in ids[max(0, len(ids) - self.max_files) :]:
            self.put(fid, payload_of(fid))

    def invalidate(self, file_id: int) -> bool:
        if self._payloads.pop(int(file_id), None) is not None:
            self.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        self._payloads.clear()

    def resident_ids(self) -> list[int]:
        return list(self._payloads)

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "resident": len(self._payloads),
            "capacity": self.max_files,
        }


@dataclass
class ReferenceFile:
    file_id: int
    keys: np.ndarray  # sorted unique
    values: np.ndarray  # aligned with keys
    stale_count: int = 0

    @property
    def n_params(self) -> int:
        return int(self.keys.size)

    def stale_fraction(self) -> float:
        return self.stale_count / self.n_params if self.n_params else 1.0


class ReferenceFileStore:
    def __init__(self, value_dim: int, file_capacity: int, max_files: int = 0) -> None:
        self.value_dim = value_dim
        self.file_capacity = file_capacity
        self.ledger = CostLedger()
        self.device = ReferenceSSDDevice(SSDSpec(), self.ledger)
        self.extent_cache = ReferenceFileCache(max_files)
        self.faults = None
        self.files: dict[int, ReferenceFile] = {}
        self.mapping: dict[int, int] = {}
        self.next_file_id = 0
        self.compactions = 0

    # -- the surface FaultArm.ssd_read touches ---------------------------
    def file_bytes(self, f) -> int:
        return f.n_params * (8 + 4 * self.value_dim)

    def _payload(self, file_id: int) -> np.ndarray:
        return self.files[file_id].values

    def _store_payload(self, file_id: int, values: np.ndarray) -> None:
        self.files[file_id].values = values

    # --------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(self.file_bytes(f) for f in self.files.values())

    @property
    def live_bytes(self) -> int:
        return len(self.mapping) * (8 + 4 * self.value_dim)

    def mapping_of(self, keys) -> np.ndarray:
        return np.asarray(
            [self.mapping.get(int(k), -1) for k in keys], dtype=np.int64
        )

    def write(self, keys, values) -> tuple[float, list[int]]:
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.float32)
        order = np.argsort(keys)
        keys, values = keys[order], values[order]
        total_t = 0.0
        new_ids = []
        for start in range(0, keys.size, self.file_capacity):
            fid = self.next_file_id
            self.next_file_id += 1
            f = ReferenceFile(
                fid,
                keys[start : start + self.file_capacity].copy(),
                values[start : start + self.file_capacity].copy(),
            )
            self.files[fid] = f
            total_t += self.device.write(self.file_bytes(f))
            for k in f.keys.tolist():
                old = self.mapping.get(k)
                if old is not None:
                    self.files[old].stale_count += 1
                self.mapping[k] = fid
            new_ids.append(fid)
        return total_t, new_ids

    def read(self, keys) -> ReadResult:
        """The parent's per-file ``FileStore.read``, loop and all."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros((keys.size, self.value_dim), dtype=np.float32)
        found = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return ReadResult(out, found, 0.0, 0, 0)
        fids = self.mapping_of(keys)
        total_t = 0.0
        files_read = 0
        bytes_read = 0
        cache_hits = 0
        order = fids.argsort(kind="stable")
        sorted_fids = fids[order]
        start = int(sorted_fids.searchsorted(0))  # skip unmapped (-1)
        if start == order.size:
            return ReadResult(out, found, 0.0, 0, 0)
        sf = sorted_fids[start:]
        cuts = np.flatnonzero(sf[1:] != sf[:-1]) + 1
        starts = np.concatenate(([0], cuts)) + start
        stops = np.append(cuts, sf.size) + start
        cache = self.extent_cache
        device = self.device
        for s, e in zip(starts.tolist(), stops.tolist()):
            fid = int(sorted_fids[s])
            f = self.files[fid]
            sel = order[s:e]
            rows = f.keys.searchsorted(keys[sel])
            payload = cache.get(fid)
            if payload is None:
                if self.faults is not None:
                    total_t += self.faults.ssd_read(self, f)
                payload = f.values
                total_t += device.read(self.file_bytes(f))
                files_read += 1
                bytes_read += self.file_bytes(f)
                cache.put(fid, payload)
            else:
                total_t += device.read_warm(self.file_bytes(f))
                cache_hits += 1
            out[sel] = payload[rows]
            found[sel] = True
        return ReadResult(out, found, total_t, files_read, bytes_read, cache_hits)

    def live_rows(self, f: ReferenceFile) -> tuple[np.ndarray, np.ndarray]:
        live = self.mapping_of(f.keys) == f.file_id
        return f.keys[live], f.values[live]

    def erase(self, file_id: int) -> None:
        del self.files[file_id]
        self.extent_cache.invalidate(file_id)

    def compact(self, usage_threshold: float, stale_fraction: float) -> float | None:
        """The parent's ``Compactor.compact``; seconds, or None if idle."""
        live = self.live_bytes
        if not (
            self.total_bytes > usage_threshold * live if live else self.total_bytes > 0
        ):
            return None
        victims = [
            f for f in self.files.values() if f.stale_fraction() >= stale_fraction
        ]
        victims.sort(key=lambda f: f.stale_fraction(), reverse=True)
        if not victims:
            return None
        seconds = 0.0
        live_keys, live_vals = [], []
        for f in victims:
            seconds += self.device.read(self.file_bytes(f))
            k, v = self.live_rows(f)
            if k.size:
                live_keys.append(k)
                live_vals.append(v)
        if live_keys:
            seconds += self.write(
                np.concatenate(live_keys), np.concatenate(live_vals)
            )[0]
        for f in victims:
            self.erase(f.file_id)
        self.compactions += 1
        return seconds

    # -- checkpoint protocol (parent layout, unvalidated) -----------------
    def _pack(self, fids: list[int]) -> dict[str, np.ndarray]:
        files = [self.files[fid] for fid in fids]
        offsets = np.zeros(len(fids) + 1, dtype=np.int64)
        if fids:
            offsets[1:] = np.cumsum([f.n_params for f in files])
        return {
            "file_ids": np.asarray(fids, dtype=np.int64),
            "file_offsets": offsets,
            "file_keys": np.concatenate(
                [f.keys for f in files] + [np.zeros(0, dtype=np.uint64)]
            ),
            "file_values": np.concatenate(
                [f.values for f in files]
                + [np.zeros((0, self.value_dim), dtype=np.float32)]
            ),
            "file_stale": np.asarray(
                [f.stale_count for f in files], dtype=np.int64
            ),
        }

    def _pack_tail(self, out: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out["next_file_id"] = np.int64(self.next_file_id)
        out["extent_cache_fids"] = np.asarray(
            self.extent_cache.resident_ids(), dtype=np.int64
        )
        return out

    def export_state(self) -> dict[str, np.ndarray]:
        out = self._pack(sorted(self.files))
        out["map_keys"] = np.asarray(sorted(self.mapping), dtype=np.uint64)
        out["map_fids"] = self.mapping_of(out["map_keys"])
        return self._pack_tail(out)

    def export_delta(self, base: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        watermark = int(base["next_file_id"])
        out = {"base_next_file_id": np.int64(watermark)}
        out.update(self._pack(sorted(f for f in self.files if f >= watermark)))
        base_fids = base["file_ids"].tolist()
        out["erased_ids"] = np.asarray(
            [f for f in base_fids if f not in self.files], dtype=np.int64
        )
        changed = [
            (fid, self.files[fid].stale_count)
            for fid, stale in zip(base_fids, base["file_stale"].tolist())
            if fid in self.files and self.files[fid].stale_count != stale
        ]
        out["stale_ids"] = np.asarray([c[0] for c in changed], dtype=np.int64)
        out["stale_counts"] = np.asarray([c[1] for c in changed], dtype=np.int64)
        out["map_keys"] = np.unique(out["file_keys"])
        out["map_fids"] = self.mapping_of(out["map_keys"])
        return self._pack_tail(out)

    def _unpack(self, state: dict[str, np.ndarray]) -> None:
        offsets = state["file_offsets"].tolist()
        for i, fid in enumerate(state["file_ids"].tolist()):
            lo, hi = offsets[i], offsets[i + 1]
            self.files[fid] = ReferenceFile(
                fid,
                state["file_keys"][lo:hi].copy(),
                state["file_values"][lo:hi].copy(),
                int(state["file_stale"][i]),
            )
        self.mapping.update(
            zip(state["map_keys"].tolist(), state["map_fids"].tolist())
        )
        self.next_file_id = int(state["next_file_id"])

    def _rewarm(self, state: dict[str, np.ndarray]) -> None:
        cache = self.extent_cache
        cache.clear()
        fids = [f for f in state["extent_cache_fids"].tolist() if f in self.files]
        cache.warm(fids, lambda fid: self.files[fid].values)

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        self.files.clear()
        self.mapping.clear()
        self._unpack(state)
        self._rewarm(state)

    def load_delta(self, delta: dict[str, np.ndarray]) -> None:
        """Apply a delta on top of the base this store holds, member by
        member — the oracle ``FileStore.fold_delta`` + ``load_state`` is
        held to.  A load is not runtime traffic: the erased files leave
        without counting an extent-cache invalidation (the residency is
        re-warmed from the delta anyway)."""
        self._unpack(delta)
        for fid, count in zip(
            delta["stale_ids"].tolist(), delta["stale_counts"].tolist()
        ):
            self.files[fid].stale_count = count
        for fid in delta["erased_ids"].tolist():
            del self.files[fid]
        self._rewarm(delta)


def assert_same_arrays(mine: dict, theirs: dict) -> None:
    """Two checkpoint dicts: same names in the same order, same dtypes,
    same bytes."""
    assert list(mine) == list(theirs)
    for name in mine:
        a, b = np.asarray(mine[name]), np.asarray(theirs[name])
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_stores_agree(store, ref: ReferenceFileStore) -> None:
    """Everything observable about ``store`` equals the oracle's: files,
    mapping, byte accounting, device counters, ledger lines (bit-equal),
    extent-cache residency and statistics."""
    assert store.n_files == len(ref.files)
    for f in store.files():
        r = ref.files[f.file_id]
        assert np.array_equal(f.keys, r.keys)
        assert f.stale_count == r.stale_count
        assert np.array_equal(store._payload(f.file_id), r.values)
    keys = np.asarray(sorted(ref.mapping), dtype=np.uint64)
    assert store.n_live_params == keys.size
    assert np.array_equal(store.mapping_of(keys), ref.mapping_of(keys))
    assert store.total_bytes == ref.total_bytes
    assert store.live_bytes == ref.live_bytes
    for counter in ("bytes_read", "bytes_written", "read_ops", "write_ops"):
        assert getattr(store.device, counter) == getattr(ref.device, counter)
    for line in ("ssd_read", "ssd_write", "fault_retry"):
        assert store.ledger.total(line) == ref.ledger.total(line)
        assert store.ledger.count(line) == ref.ledger.count(line)
    assert store.extent_cache.resident_ids() == ref.extent_cache.resident_ids()
    assert store.extent_cache.stats() == ref.extent_cache.stats()
