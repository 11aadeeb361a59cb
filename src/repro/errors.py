"""Typed errors shared across tiers (dependency-free, like
:mod:`repro.faults.errors`)."""

from __future__ import annotations

__all__ = ["TierStateError", "KeyDomainError", "PayloadRangeError"]


class TierStateError(RuntimeError):
    """An operation arrived before the state it needs exists, or against
    a tier too small to hold it: an ``HBMPS`` op before
    ``load_working_set`` or past its capacity, a ``MemPS`` op outside a
    resolved round, a layer's ``backward`` before its ``forward``."""


class KeyDomainError(ValueError):
    """A key, or a model's ``n_sparse``, outside the key domain the
    direct-addressed store index serves
    (:data:`repro.utils.keys.KEY_DOMAIN_CAP`)."""


class PayloadRangeError(ValueError):
    """A payload the direct-addressed store index cannot hold: negative,
    or at or past :data:`repro.store.slot_index.PAYLOAD_LIMIT`."""
