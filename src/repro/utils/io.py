"""Durable file I/O (crash-consistency plumbing).

One implementation of the write-temp → fsync → ``os.replace`` sequence,
shared by every component that must never expose a torn file under its
final name (the SSD file store's payloads, the checkpoint shards and
manifest), and :func:`fsync_dir`, which makes the renames themselves
durable: the checkpoint writer calls it once per commit, after the
manifest's rename.
"""

from __future__ import annotations

import os

__all__ = ["atomic_write_bytes", "fsync_dir"]


def atomic_write_bytes(path: str, data: bytes | bytearray | memoryview) -> None:
    """Durably write ``data`` (any bytes-like) to ``path``; all-or-nothing.

    The final name either keeps its previous contents or holds ``data``
    in full — never a truncated intermediate.  The temp file is removed
    on failure.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def fsync_dir(path: str) -> None:
    """Flush ``path``'s directory entries (the renames into it) to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
