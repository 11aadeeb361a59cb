"""Vectorized key→value building blocks.

:class:`SlotIndex` is the direct-addressed key→row index the MEM cache
and the SSD file store probe; :class:`FlatStore` is the reference
trainer's unbounded in-memory store.
"""

from repro.store.flat import FlatStore
from repro.store.slot_index import SlotIndex

__all__ = ["SlotIndex", "FlatStore"]
