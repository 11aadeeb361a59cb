"""The batch-first parameter-store protocol of the general-purpose stores.

The HBM hash tables, the SSD-PS, and the reference trainer's flat store
speak the same five-method batched interface.  Keys are always
``uint64`` arrays, values ``(n, value_dim)`` float32 arrays; no method
takes or returns a single key.  The MEM LRU+LFU cache is *not* one of
them: it is not a general store but the one ``MemPS`` talks to — unique
keys, a tier-ordered resolve, an absent-key insert, then rows (see
:mod:`repro.mem.cache`).

The protocol is *functional*: it moves values, not simulated time.
Timing stays on the tier-specific methods (``insert``/``load``/``dump``),
which charge the hardware ledgers exactly as before.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["ParameterStore"]


@runtime_checkable
class ParameterStore(Protocol):
    """Batched key→value store.

    ``get_batch``
        Values for ``keys`` plus a found mask; missing rows are
        zero-filled.
    ``put_batch``
        Insert/overwrite ``keys``; returns ``(flush_keys, flush_values)``
        — entries the store evicted and the caller must persist to the
        next tier down.  Unbounded stores return empty arrays.
    ``contains``
        Residency mask.
    ``transform``
        Apply ``new = fn(old)`` to the values of resident ``keys``
        in place (optimizer updates on the owning tier).
    ``items``
        All resident ``(keys, values)``, sorted by key.  This is the
        checkpoint subsystem's extraction hook (``repro.ckpt``) and the
        parity tests' comparison surface: sorted-by-key output makes two
        stores comparable regardless of internal layout, and tiers with
        replacement state additionally expose ``export_state`` /
        ``load_state`` so a restore reproduces future evictions exactly,
        not just the resident values.
    """

    def get_batch(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...

    def put_batch(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...

    def contains(self, keys: np.ndarray) -> np.ndarray: ...

    def transform(self, keys: np.ndarray, fn) -> object: ...

    def items(self) -> tuple[np.ndarray, np.ndarray]: ...
