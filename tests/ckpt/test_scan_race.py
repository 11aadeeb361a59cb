"""Checkpoint-directory scans racing with concurrent pruning.

``latest_checkpoint`` walks ``round_*`` subdirectories via
``os.listdir`` and then reads each manifest — a window
in which a concurrent pruner (or a crashed writer's debris) can make the
manifest vanish or leave it torn.  The hardened scan must *skip* such a
directory with a recorded :class:`CheckpointScanWarning` and still
return the best surviving snapshot, never abort.  These tests reproduce
the race deterministically by monkeypatching the manifest read to unlink
(or tear) the file the instant the scan reaches it.
"""

from __future__ import annotations

import os

import pytest

import repro.ckpt.format as ckpt_format
from repro.ckpt import CheckpointScanWarning, latest_checkpoint
from repro.ckpt.format import MANIFEST_NAME, checkpoint_dir_name, resolve_chain
from repro.core.cluster import HPSCluster


@pytest.fixture
def two_checkpoints(tiny_spec, small_config, tmp_path):
    """A root with committed snapshots at rounds 2 and 4."""
    cluster = HPSCluster(tiny_spec, small_config, functional_batch_size=128)
    cluster.train(2)
    older = tmp_path / checkpoint_dir_name(2)
    cluster.save_checkpoint(str(older))
    cluster.train(2)
    newer = tmp_path / checkpoint_dir_name(4)
    cluster.save_checkpoint(str(newer))
    return tmp_path, str(older), str(newer)


def racing_unlink(monkeypatch, victim_dir: str) -> None:
    """Delete ``victim_dir``'s manifest the moment a scan reads it."""
    real = ckpt_format.read_manifest

    def read_then_lose(directory: str) -> dict:
        if os.path.abspath(directory) == os.path.abspath(victim_dir):
            manifest = os.path.join(directory, MANIFEST_NAME)
            if os.path.isfile(manifest):
                os.unlink(manifest)  # the concurrent pruner wins the race
        return real(directory)

    monkeypatch.setattr(ckpt_format, "read_manifest", read_then_lose)


class TestScanRace:
    def test_racing_unlink_skips_with_warning(
        self, two_checkpoints, monkeypatch
    ):
        root, older, newer = two_checkpoints
        racing_unlink(monkeypatch, newer)
        with pytest.warns(CheckpointScanWarning, match="skipping snapshot"):
            found = latest_checkpoint(str(root))
        # The scan fell back to the surviving snapshot instead of dying.
        assert found == older

    def test_torn_manifest_skips_with_warning(
        self, two_checkpoints, monkeypatch
    ):
        root, older, newer = two_checkpoints
        # A writer crashed mid-commit: the manifest exists but is torn.
        with open(os.path.join(newer, MANIFEST_NAME), "w") as fh:
            fh.write('{"format_version": 3, "rounds_comp')
        with pytest.warns(CheckpointScanWarning, match="skipping snapshot"):
            found = latest_checkpoint(str(root))
        assert found == older
        # The surviving snapshot still resolves to a loadable chain.
        assert resolve_chain(found)

    def test_clean_scan_emits_no_warning(self, two_checkpoints):
        root, _, newer = two_checkpoints
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", CheckpointScanWarning)
            assert latest_checkpoint(str(root)) == newer
