"""The per-file parameter-file store the row-addressed ``FileStore`` replaced,
kept as the test oracle.

``ReferenceFileStore`` is the parent implementation reduced to what a
reference needs: one ``ReferenceFile`` object per file holding its own
key and value arrays, plain ``dict``s for the key→file-id mapping and
each key's row in its file, and the per-file ``read`` as it ran in
production — group the batch by file id, then per touched file row
lookup + gather + scatter around the fault-arm / device-charge
bookkeeping.  It prices on
its own device and ledger — the per-file ``ReferenceSSDDevice.read``
that ``FileStore``'s array accounting pass replaced — so a test can
drive it in lockstep with a ``FileStore`` and demand that every
simulated second and counter agrees bit for bit.  It trusts its input: validation is
the store's job, not the oracle's.

Snapshots carry no mapping (format v5) and ship live rows only (format
v8): the oracle derives the mapping from the shipped keys, each at its
row (:func:`derived_mapping`), and :func:`store_mapping` reads a
``FileStore``'s mapping as file ids for the comparison.  A restored
file's stale rows are key 0 and zeros here as in the store, but they are
don't-care: :func:`assert_stores_agree` compares live rows only.
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
    "ReferenceFileStore",
    "ReferenceSSDDevice",
    "assert_same_arrays",
    "assert_stores_agree",
    "derived_mapping",
    "store_mapping",
]


class ReferenceSSDDevice(SSDDevice):
    """The device with its per-file read charges: one ledger ``add`` per
    file, in call order."""

    def read(self, n_bytes: int) -> float:
        """Account a whole-file device read; returns simulated seconds."""
        t = self.spec.read_seconds(n_bytes)
        self.bytes_read += n_bytes
        self.read_ops += 1
        self.ledger.add("ssd_read", t)
        return t


@dataclass
class ReferenceFile:
    file_id: int
    keys: np.ndarray  # by row; sorted unique as written
    values: np.ndarray  # aligned with keys
    stale_count: int = 0

    @property
    def n_params(self) -> int:
        return int(self.keys.size)

    def stale_fraction(self) -> float:
        return self.stale_count / self.n_params if self.n_params else 1.0


class ReferenceFileStore:
    def __init__(self, value_dim: int, file_capacity: int) -> None:
        self.value_dim = value_dim
        self.file_capacity = file_capacity
        self.ledger = CostLedger()
        self.device = ReferenceSSDDevice(SSDSpec(), self.ledger)
        self.faults = None
        self.files: dict[int, ReferenceFile] = {}
        self.mapping: dict[int, int] = {}
        self.rows: dict[int, int] = {}  # key -> its row in its file
        self.next_file_id = 0
        self.compactions = 0

    def file_bytes(self, f) -> int:
        return f.n_params * (8 + 4 * self.value_dim)

    # -- the surface FaultArm.ssd_read touches ---------------------------
    def file(self, file_id: int) -> ReferenceFile:
        return self.files[file_id]

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
            for row, k in enumerate(f.keys.tolist()):
                old = self.mapping.get(k)
                if old is not None:
                    self.files[old].stale_count += 1
                self.mapping[k] = fid
                self.rows[k] = row
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
        order = fids.argsort(kind="stable")
        sorted_fids = fids[order]
        start = int(sorted_fids.searchsorted(0))  # skip unmapped (-1)
        if start == order.size:
            return ReadResult(out, found, 0.0, 0, 0)
        sf = sorted_fids[start:]
        cuts = np.flatnonzero(sf[1:] != sf[:-1]) + 1
        starts = np.concatenate(([0], cuts)) + start
        stops = np.append(cuts, sf.size) + start
        for s, e in zip(starts.tolist(), stops.tolist()):
            fid = int(sorted_fids[s])
            f = self.files[fid]
            sel = order[s:e]
            rows = [self.rows[k] for k in keys[sel].tolist()]
            if self.faults is not None:
                total_t += self.faults.ssd_read(self, fid, self.file_bytes(f))
            total_t += self.device.read(self.file_bytes(f))
            files_read += 1
            bytes_read += self.file_bytes(f)
            out[sel] = f.values[rows]
            found[sel] = True
        return ReadResult(out, found, total_t, files_read, bytes_read)

    def live_mask(self, file_id: int) -> np.ndarray:
        keys = self.files[file_id].keys.tolist()
        return np.asarray(
            [self.mapping.get(k) == file_id and self.rows[k] == row
             for row, k in enumerate(keys)],
            dtype=bool,
        )

    def live_rows(self, f: ReferenceFile) -> tuple[np.ndarray, np.ndarray]:
        live = self.live_mask(f.file_id)
        return f.keys[live], f.values[live]

    def erase(self, file_id: int) -> None:
        del self.files[file_id]

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
        live = [self.live_mask(fid) for fid in fids]
        return {
            "file_ids": np.asarray(fids, dtype=np.int64),
            "file_offsets": offsets,
            "file_live": np.packbits(np.concatenate(live + [np.zeros(0, bool)])),
            "file_keys": np.concatenate(
                [f.keys[m] for f, m in zip(files, live)]
                + [np.zeros(0, dtype=np.uint64)]
            ),
            "file_values": np.concatenate(
                [f.values[m] for f, m in zip(files, live)]
                + [np.zeros((0, self.value_dim), dtype=np.float32)]
            ),
            "file_stale": np.asarray(
                [f.stale_count for f in files], dtype=np.int64
            ),
        }

    def _pack_tail(self, out: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out["next_file_id"] = np.int64(self.next_file_id)
        return out

    def export_state(self) -> dict[str, np.ndarray]:
        return self._pack_tail(self._pack(sorted(self.files)))

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
        return self._pack_tail(out)

    def _unpack(self, state: dict[str, np.ndarray]) -> None:
        """Each file's shipped rows at their positions, key 0 and zeros
        at the rest; each shipped key maps to its file and row."""
        for fid, stale, live, shipped_keys, shipped_values in _shipped(state):
            keys = np.zeros(live.size, dtype=np.uint64)
            values = np.zeros((live.size, self.value_dim), dtype=np.float32)
            keys[live], values[live] = shipped_keys, shipped_values
            self.files[fid] = ReferenceFile(fid, keys, values, stale)
            for row, k in zip(np.flatnonzero(live).tolist(), shipped_keys.tolist()):
                self.mapping[k] = fid
                self.rows[k] = row
        self.next_file_id = int(state["next_file_id"])

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        self.files.clear()
        self.mapping.clear()
        self.rows.clear()
        self._unpack(state)

    def load_delta(self, delta: dict[str, np.ndarray]) -> None:
        """Apply a delta on top of the base this store holds, member by
        member — the oracle ``FileStore.fold_delta`` + ``load_state`` is
        held to."""
        self._unpack(delta)
        for fid, count in zip(
            delta["stale_ids"].tolist(), delta["stale_counts"].tolist()
        ):
            self.files[fid].stale_count = count
        for fid in delta["erased_ids"].tolist():
            del self.files[fid]


def _shipped(state: dict[str, np.ndarray]):
    """Per packed file: ``(file id, stale counter, live mask, shipped
    keys, shipped values)``."""
    offsets = state["file_offsets"].tolist()
    live = np.unpackbits(state["file_live"], count=offsets[-1]).astype(bool)
    lo = 0
    for i, fid in enumerate(state["file_ids"].tolist()):
        mask = live[offsets[i] : offsets[i + 1]]
        hi = lo + int(mask.sum())
        yield (
            fid,
            int(state["file_stale"][i]),
            mask,
            state["file_keys"][lo:hi],
            state["file_values"][lo:hi],
        )
        lo = hi


def derived_mapping(state: dict[str, np.ndarray]) -> dict[int, int]:
    """key -> file id a snapshot's packed files imply: each shipped key
    lives in the file shipping it."""
    return {k: fid for fid, _, _, keys, _ in _shipped(state) for k in keys.tolist()}


def store_mapping(store) -> dict[int, int]:
    """A ``FileStore``'s key -> file id mapping."""
    keys, locs = store._mapping.items()
    fids = store._slot_fid[locs // store.file_capacity]
    return dict(zip(keys.tolist(), fids.tolist()))


def assert_same_arrays(mine: dict, theirs: dict) -> None:
    """Two checkpoint dicts: same names in the same order, same dtypes,
    same bytes."""
    assert list(mine) == list(theirs)
    for name in mine:
        a, b = np.asarray(mine[name]), np.asarray(theirs[name])
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_stores_agree(store, ref: ReferenceFileStore) -> None:
    """Everything observable about ``store`` equals the oracle's: files
    (their live rows — stale ones are don't-care), mapping, byte
    accounting, device counters, ledger lines (bit-equal)."""
    assert store.n_files == len(ref.files)
    for f in store.files():
        r = ref.files[f.file_id]
        live = ref.live_mask(f.file_id)
        assert np.array_equal(store.live_mask(f.file_id), live)
        assert f.keys.size == r.n_params and f.stale_count == r.stale_count
        assert np.array_equal(f.keys[live], r.keys[live])
        assert np.array_equal(store._payload(f.file_id)[live], r.values[live])
    assert store.n_live_params == len(ref.mapping)
    assert store_mapping(store) == ref.mapping
    assert store.total_bytes == ref.total_bytes
    assert store.live_bytes == ref.live_bytes
    for counter in ("bytes_read", "bytes_written", "read_ops", "write_ops"):
        assert getattr(store.device, counter) == getattr(ref.device, counter)
    for line in ("ssd_read", "ssd_write", "fault_retry"):
        assert store.ledger.total(line) == ref.ledger.total(line)
        assert store.ledger.count(line) == ref.ledger.count(line)
