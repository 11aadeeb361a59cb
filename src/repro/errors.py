"""Typed errors shared across tiers (dependency-free, like
:mod:`repro.faults.errors`)."""

from __future__ import annotations

__all__ = ["TierStateError"]


class TierStateError(RuntimeError):
    """An operation arrived before the state it needs exists, or against
    a tier too small to hold it: an ``HBMPS`` op before
    ``load_working_set`` or past its capacity, a ``MemPS`` op outside a
    resolved round, a layer's ``backward`` before its ``forward``."""
