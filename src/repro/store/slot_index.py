"""Direct-addressed key→payload index.

The MEM cache, the SSD file store and the reference trainer's flat store
share one primitive: a ``uint64 key -> int32 payload`` map with batch
verbs (there is no per-key API).  Every functional model draws its
feature ids from ``[0, n_sparse)``, so the map is one int32 array
indexed by key, ``-1`` meaning absent, that grows geometrically to cover
the largest key any verb has seen.  Four bytes per key is what the
payloads need: a MEM slab row is below the cache capacity, and a
``FileStore`` row locator below the rows the store holds — both far
below 2**31 under :data:`~repro.utils.keys.KEY_DOMAIN_CAP`.  A payload
outside ``[0, PAYLOAD_LIMIT)`` raises
:class:`~repro.errors.PayloadRangeError`, and a key at or above
:data:`~repro.utils.keys.KEY_DOMAIN_CAP` raises
:class:`~repro.errors.KeyDomainError`; either leaves the index
unchanged.  The paper's ~10^11-id indices are hash maps that the
analytical model prices, not this layer.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PayloadRangeError
from repro.utils.keys import KEY_DTYPE, as_keys, check_key_cap

__all__ = ["SlotIndex", "PAYLOAD_LIMIT"]

#: The payload array's dtype, and the first payload it cannot hold.
_PAYLOAD_DTYPE = np.int32
PAYLOAD_LIMIT = int(np.iinfo(_PAYLOAD_DTYPE).max) + 1

#: Smallest payload array a growing index allocates.
_MIN_SIZE = 1024


class SlotIndex:
    """``uint64 -> int32`` map over one payload array indexed by key.

    Payloads are opaque integers in ``[0, PAYLOAD_LIMIT)`` (a slab row
    for the caches, a row locator for the SSD mapping), handed back as
    int32.  ``-1`` is returned for absent keys.
    """

    def __init__(self, _capacity_hint: int = 0) -> None:
        # The positional argument is accepted and ignored — the index
        # sizes itself to its keys — only because the frozen
        # ``benchmarks/hps/micro.py`` passes one; drop at benchmark v2.
        self._payload = np.empty(0, dtype=_PAYLOAD_DTYPE)
        self._n_live = 0

    def __len__(self) -> int:
        return self._n_live

    def _cover(self, keys: np.ndarray) -> np.ndarray:
        """``keys`` as positions, the array grown (doubling) to hold them."""
        top = int(np.maximum.reduce(keys)) if keys.size else -1
        if top >= self._payload.size:
            check_key_cap(top, "a SlotIndex batch")
            n = max(_MIN_SIZE, self._payload.size)
            while n <= top:
                n *= 2
            grown = np.empty(n, dtype=_PAYLOAD_DTYPE)
            grown[: self._payload.size] = self._payload
            grown[self._payload.size :] = -1
            self._payload = grown
        return keys.astype(np.int64)

    def get(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(payloads, found)`` for ``keys``; absent payloads are -1."""
        at = self._cover(as_keys(keys))  # may grow: read the array after
        out = self._payload[at]
        return out, out >= 0

    def set(
        self, keys: np.ndarray, payloads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Upsert unique ``keys``; returns ``(old_payloads, existed)``.

        A payload outside ``[0, PAYLOAD_LIMIT)`` raises
        :class:`~repro.errors.PayloadRangeError`, index untouched."""
        keys = as_keys(keys)
        payloads = np.asarray(payloads, dtype=np.int64)
        if payloads.shape != (keys.size,):
            raise ValueError("payloads shape mismatch")
        if payloads.size:
            lo, hi = int(payloads.min()), int(payloads.max())
            if lo < 0 or hi >= PAYLOAD_LIMIT:
                bad = lo if lo < 0 else hi
                raise PayloadRangeError(
                    f"SlotIndex payload {bad} is outside [0, 2**31): the "
                    "index holds int32 slab rows and row locators"
                )
        at = self._cover(keys)
        old = self._payload[at]
        existed = old >= 0
        self._payload[at] = payloads
        self._n_live += keys.size - int(existed.sum())
        return old, existed

    def remove(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Delete unique ``keys``; returns ``(old_payloads, existed)``."""
        at = self._cover(as_keys(keys))
        old = self._payload[at]
        existed = old >= 0
        self._payload[at] = -1
        self._n_live -= int(existed.sum())
        return old, existed

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All live ``(keys, payloads)``, ascending by key."""
        keys = np.flatnonzero(self._payload >= 0)
        return keys.astype(KEY_DTYPE), self._payload[keys]

    # -- frozen-only: ``benchmarks/hps/micro.py`` times these two; drop
    # -- both at benchmark v2 ---------------------------------------------
    def locate(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
        """:meth:`get` plus an empty third slot (frozen-only)."""
        return (*self.get(keys), None)

    def install(self, keys: np.ndarray, payloads: np.ndarray, _hints=None) -> None:
        """:meth:`set`, the hints ignored (frozen-only)."""
        self.set(keys, payloads)
