"""The typed fault hierarchy every injected failure signals through.

Fault signaling never uses bare ``Exception``/``RuntimeError`` (the
``typed-faults`` lint rule enforces this for the whole package): a
handler that catches :class:`FaultError` catches exactly the injected
failures and nothing else, and the ``scope`` attribute tells the
supervisor how much state the escape may have corrupted:

``"round"``
    the current round's inputs are suspect but no durable tier state
    was mutated — safe to retry the round from its read stage;
``"node"``
    one node's durable state is suspect (e.g. an SSD payload lost
    beyond the retry budget) — a partial ``restore_nodes`` from a
    current snapshot heals it;
``"global"``
    cross-node state may have diverged mid-mutation — only a full
    restore + replay from the newest checkpoint is safe.

This module is dependency-free so every layer (``ssd``, ``data``,
``hbm``, ``core``) can raise typed faults without import cycles.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "FaultError",
    "FaultExhaustedError",
    "PayloadLostError",
    "UnrecoverableFaultError",
]


class FaultError(Exception):
    """Base class of every injected-fault signal.

    Carries where the fault fired (``surface``, ``kind``, ``node``), how
    far it escaped (``stage`` — stamped by the stage wrapper when the
    error crosses a stage boundary), the recovery ``scope`` the
    supervisor classifies on, and the ``retries`` and ``bytes_reread``
    (a quarantine's chain walk) already priced before the escape, which
    the supervisor's escalation report copies.
    """

    def __init__(
        self,
        message: str,
        *,
        surface: str | None = None,
        kind: str | None = None,
        node: int | None = None,
        scope: str = "global",
        stage: str | None = None,
        retries: int = 0,
        bytes_reread: int = 0,
    ) -> None:
        super().__init__(message)
        self.surface = surface
        self.kind = kind
        self.node = node
        self.scope = scope
        self.stage = stage
        self.retries = retries
        self.bytes_reread = bytes_reread


class FaultExhaustedError(FaultError):
    """A fault point burned through its whole retry budget.

    ``seconds`` records the wasted attempts and backoff already priced
    through the ledger before the give-up, so the handler that catches
    this can fold them into its incident report.
    """

    def __init__(self, message: str, *, seconds: float = 0.0, **kwargs: Any) -> None:
        super().__init__(message, **kwargs)
        self.seconds = seconds


class PayloadLostError(FaultError, FileNotFoundError):
    """A parameter file's payload is unrecoverable on this node.

    Raised when an SSD read exhausts its retries and the quarantine
    path cannot re-materialize the file from the checkpoint chain.
    Subclasses ``FileNotFoundError`` so pre-existing handlers of the old
    bare raise keep working; carries the file id and the affected live
    keys so the quarantine path (and tests) can catch it precisely.
    """

    def __init__(
        self,
        message: str,
        *,
        file_id: int,
        keys: np.ndarray | None = None,
        **kwargs: Any,
    ) -> None:
        kwargs.setdefault("scope", "node")
        kwargs.setdefault("surface", "ssd")
        super().__init__(message, **kwargs)
        self.file_id = int(file_id)
        self.keys = (
            np.asarray([], dtype=np.int64) if keys is None else np.asarray(keys)
        )


class UnrecoverableFaultError(FaultError):
    """The supervisor's recovery budget is spent — give up loudly."""
