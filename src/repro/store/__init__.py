"""Batch-first parameter-store layer.

Defines the :class:`ParameterStore` protocol the general-purpose stores
(HBM hash tables, SSD-PS, flat store) implement, plus the vectorized
building blocks (:class:`SlotIndex`, :class:`FlatStore`).
"""

from repro.store.flat import FlatStore
from repro.store.protocol import ParameterStore
from repro.store.slot_index import SlotIndex

__all__ = ["ParameterStore", "SlotIndex", "FlatStore"]
