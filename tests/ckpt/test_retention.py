"""Checkpoint GC (keep-last-N retention) and ledger carry-over.

Production runs cannot keep every ``round_*`` snapshot: the snapshot
stage's ``keep_last=N`` (:meth:`HPSCluster.enable_snapshot_stage`) prunes
after each successful commit, and only from what its own cluster
committed (``cluster._ckpt_written``): the newest ``N`` of those commits,
closed over their delta base links, survive; the rest are deleted
manifest first (the same discipline every writer uses).  Snapshots
another run left in the root are neither read nor deleted.  And per-node
:class:`~repro.hardware.ledger.CostLedger` totals ride inside the node
shards, so a restored run *continues* long-horizon cost accounting
instead of restarting at zero.
"""

from __future__ import annotations

import dataclasses
import os
import shutil

import numpy as np
import pytest

import repro.ckpt.format as ckpt_format
from repro.ckpt import CheckpointScanWarning, latest_checkpoint
from repro.ckpt.checkpoint import restore_nodes
from repro.ckpt.format import MANIFEST_NAME, checkpoint_dir_name, resolve_chain
from repro.core.cluster import HPSCluster
from repro.hardware.ledger import CostLedger


def build(tiny_spec, small_config):
    return HPSCluster(tiny_spec, small_config, functional_batch_size=128)


def committed_rounds(directory: str) -> list[int]:
    out = []
    for entry in sorted(os.listdir(directory)):
        sub = os.path.join(directory, entry)
        if os.path.isfile(os.path.join(sub, MANIFEST_NAME)):
            out.append(int(entry.removeprefix("round_")))
    return out


def tree_bytes(directory: str) -> dict[str, bytes]:
    """Every file under ``directory`` by relative path, with its bytes."""
    out = {}
    for here, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(here, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


def assert_registration_refused(cluster, directory, match, **kwargs) -> None:
    """Bad retention arguments fail at registration, naming the argument:
    no stage registered, no directory created."""
    before = cluster.stage_functions()
    with pytest.raises(ValueError, match=match):
        cluster.enable_snapshot_stage(directory, **kwargs)
    assert cluster.stage_functions() == before
    assert not os.path.exists(directory)


class TestRetention:
    def test_trainer_keeps_last_n(self, tiny_spec, small_config, tmp_path):
        cluster = build(tiny_spec, small_config)
        stage = cluster.enable_snapshot_stage(
            str(tmp_path), every=1, full_every=1, keep_last=2
        )
        cluster.train(5)
        # Every snapshot was materialized (history sees all five)...
        assert len(stage.history) == 5
        # ...but only the newest two survive on disk.
        assert committed_rounds(str(tmp_path)) == [4, 5]
        assert latest_checkpoint(str(tmp_path)).endswith(
            checkpoint_dir_name(5)
        )

    def test_kept_snapshot_still_restores(
        self, tiny_spec, small_config, tmp_path
    ):
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(
            str(tmp_path), every=1, full_every=2, keep_last=1
        )
        cluster.train(3)
        # Round 3 is a full snapshot, so its predecessors were pruned.
        assert committed_rounds(str(tmp_path)) == [3]
        restored = HPSCluster.restore(latest_checkpoint(str(tmp_path)))
        assert restored.rounds_completed == 3
        # Resumed training replays bit-identically to never-pruned runs.
        straight = build(tiny_spec, small_config)
        straight.train(4)
        restored.train(1)
        probe = straight.generator.batch(10_000, 1024).unique_keys()
        assert np.array_equal(
            straight.lookup_embeddings(probe),
            restored.lookup_embeddings(probe),
        )

    def test_prune_is_manifest_first(
        self, tiny_spec, small_config, tmp_path, monkeypatch
    ):
        """A prune that dies between ``invalidate`` and ``rmtree`` leaves
        an uncommitted directory: readers skip it with a recorded warning,
        and the next snapshot's prune removes it."""
        root = str(tmp_path)
        victim = os.path.join(root, checkpoint_dir_name(1))
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(root, every=1, full_every=1, keep_last=1)
        cluster.train(1)
        real_rmtree = shutil.rmtree

        def rmtree_dies_once(path, *args, **kwargs):
            monkeypatch.setattr(shutil, "rmtree", real_rmtree)
            assert not os.path.exists(os.path.join(path, MANIFEST_NAME))
            raise OSError("disk went away mid-prune")

        monkeypatch.setattr(shutil, "rmtree", rmtree_dies_once)
        with pytest.raises(OSError, match="mid-prune"):
            cluster.train(1)
        assert os.path.isdir(victim)
        assert committed_rounds(root) == [2]
        with pytest.warns(CheckpointScanWarning, match="skipping snapshot"):
            assert latest_checkpoint(root).endswith(checkpoint_dir_name(2))
        cluster.train(1)
        assert not os.path.exists(victim)
        assert sorted(os.listdir(root)) == [checkpoint_dir_name(3)]

    def test_prune_validates_keep_last(self, tiny_spec, small_config, tmp_path):
        assert_registration_refused(
            build(tiny_spec, small_config),
            str(tmp_path / "snaps"),
            "keep_last must be an integer >= 1",
            keep_last=0,
        )

    def test_window_is_per_configuration(self, tiny_spec, small_config, tmp_path):
        """A newer snapshot an earlier run left in a reused directory —
        of another configuration or of this one — fills the window, but
        never evicts the stage's newest snapshot or its chain."""
        for seed_offset in (1, 0):
            root = str(tmp_path / f"reused{seed_offset}")
            earlier = build(
                tiny_spec,
                dataclasses.replace(small_config, seed=small_config.seed + seed_offset),
            )
            earlier.train(4)
            earlier.save_checkpoint(os.path.join(root, checkpoint_dir_name(4)))
            cluster = build(tiny_spec, small_config)
            stage = cluster.enable_snapshot_stage(
                root, every=1, full_every=3, keep_last=1
            )
            cluster.train(3)
            # Full@1 → delta@2 → delta@3 all survive beside the stale 4.
            assert committed_rounds(root) == [1, 2, 3, 4]
            newest = stage.history[-1].directory
            assert [m for m, _ in resolve_chain(newest)] == [
                s.directory for s in stage.history
            ]
            straight = build(tiny_spec, small_config)
            straight.train(3)
            probe = straight.generator.batch(10_000, 1024).unique_keys()
            assert np.array_equal(
                straight.lookup_embeddings(probe),
                HPSCluster.restore(newest).lookup_embeddings(probe),
            )

    def test_prune_missing_directory_is_noop(
        self, tiny_spec, small_config, tmp_path
    ):
        """A snapshot this cluster committed that vanished from disk is
        dropped from its record without error."""
        root = str(tmp_path)
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(root, every=1, full_every=1, keep_last=1)
        cluster.train(1)
        gone = os.path.join(root, checkpoint_dir_name(1))
        shutil.rmtree(gone)
        cluster.train(1)
        assert committed_rounds(root) == [2]
        assert list(cluster._ckpt_written) == [
            os.path.join(os.path.abspath(root), checkpoint_dir_name(2))
        ]


class TestWriterIndex:
    """The writer's own record of what it committed is the retention
    authority: no directory scan, no manifest read, nobody else's files."""

    def test_index_records_commits_in_order(
        self, tiny_spec, small_config, tmp_path
    ):
        """Each commit maps its directory to its base (None when full);
        a re-save moves to the newest place; a restore adds nothing."""
        a, b = (os.path.abspath(tmp_path / name) for name in ("a", "b"))
        cluster = build(tiny_spec, small_config)
        cluster.train(1)
        cluster.save_checkpoint(a, mode="full")
        cluster.train(1)
        cluster.save_checkpoint(b, mode="delta")
        assert cluster._ckpt_written == {a: None, b: a}
        cluster.train(1)
        cluster.save_checkpoint(a, mode="full")
        assert list(cluster._ckpt_written.items()) == [(b, a), (a, None)]
        assert HPSCluster.restore(a)._ckpt_written == {}
        restore_all = restore_nodes(cluster, a, range(cluster.n_nodes))
        assert restore_all.kind == "full"
        assert list(cluster._ckpt_written) == [b, a]

    def test_reused_root_is_neither_read_nor_deleted(
        self, tiny_spec, small_config, tmp_path, monkeypatch
    ):
        """Snapshots other runs left in the root — older and newer than
        this run's, of this configuration and of another — survive byte
        for byte, and the stage never reads their manifests."""
        root = str(tmp_path)
        other = dataclasses.replace(small_config, seed=small_config.seed + 1)
        foreign = {}
        for rounds, config in (
            (1, other), (3, small_config), (7, small_config), (9, other)
        ):
            earlier = build(tiny_spec, config)
            earlier.train(rounds)
            path = os.path.join(root, checkpoint_dir_name(rounds))
            earlier.save_checkpoint(path)
            foreign[os.path.abspath(path)] = tree_bytes(path)

        real_read = ckpt_format.read_manifest

        def read_own_only(directory):
            assert os.path.abspath(directory) not in foreign, directory
            return real_read(directory)

        monkeypatch.setattr(ckpt_format, "read_manifest", read_own_only)
        cluster = build(tiny_spec, small_config)
        stage = cluster.enable_snapshot_stage(
            root, every=2, full_every=1, keep_last=1
        )
        cluster.train(6)
        assert [s.rounds_completed for s in stage.history] == [2, 4, 6]
        assert committed_rounds(root) == [1, 3, 6, 7, 9]
        for path, files in foreign.items():
            assert tree_bytes(path) == files, path

    def test_prune_scans_no_directory(
        self, tiny_spec, small_config, tmp_path, monkeypatch
    ):
        """With every directory listing refused, the stage still prunes
        down to the live chain."""
        root = str(tmp_path)
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(root, every=1, full_every=2, keep_last=2)

        def refuse(*args, **kwargs):
            raise AssertionError("the prune listed a directory")

        with monkeypatch.context() as patched:
            patched.setattr(os, "listdir", refuse)
            patched.setattr(ckpt_format, "_scan_committed", refuse)
            cluster.train(6)
        # Fulls at 1, 3, 5: keeping {5, 6} strands nothing.
        assert committed_rounds(root) == [5, 6]
        newest = os.path.join(root, checkpoint_dir_name(6))
        assert [os.path.basename(d) for d, _ in resolve_chain(newest)] == [
            checkpoint_dir_name(5),
            checkpoint_dir_name(6),
        ]

    def test_restored_chain_survives_the_resumed_run(
        self, tiny_spec, small_config, tmp_path
    ):
        """A cluster resumed from a chain in the root deltas on top of it
        but never deletes it: that chain is not its commit."""
        root = str(tmp_path)
        first = build(tiny_spec, small_config)
        first.enable_snapshot_stage(root, every=2)
        first.train(4)  # full @2, delta @4
        resumed = HPSCluster.restore(os.path.join(root, checkpoint_dir_name(4)))
        stage = resumed.enable_snapshot_stage(
            root, every=2, full_every=3, keep_last=1
        )
        resumed.train(4)  # delta @6 on the restored chain, full @8
        assert [s.kind for s in stage.history] == ["delta", "full"]
        assert committed_rounds(root) == [2, 4, 8]
        assert len(resolve_chain(os.path.join(root, checkpoint_dir_name(4)))) == 2
        straight = build(tiny_spec, small_config)
        straight.train(4)
        probe = straight.generator.batch(10_000, 1024).unique_keys()
        assert np.array_equal(
            straight.lookup_embeddings(probe),
            HPSCluster.restore(
                os.path.join(root, checkpoint_dir_name(4))
            ).lookup_embeddings(probe),
        )


class TestLedgerCarryOver:
    def test_restored_ledger_continues_accounting(
        self, tiny_spec, small_config, tmp_path
    ):
        cluster = build(tiny_spec, small_config)
        cluster.train(3)
        saved_totals = [n.ledger.as_dict() for n in cluster.nodes]
        assert all(t.get("gpu_compute", 0) > 0 for t in saved_totals)
        cluster.save_checkpoint(str(tmp_path))

        restored = HPSCluster.restore(str(tmp_path))
        for node, saved in zip(restored.nodes, saved_totals):
            got = node.ledger.as_dict()
            # History carried over exactly, with the restore itself booked
            # on top under ckpt_read — never restarting from zero.
            assert got["ckpt_read"] > 0
            for category, total in saved.items():
                assert got[category] == pytest.approx(total)
        # Continued training keeps accumulating on the carried history.
        before = restored.nodes[0].ledger.total("gpu_compute")
        restored.train(1)
        assert restored.nodes[0].ledger.total("gpu_compute") > before

    def test_ledger_export_load_round_trip(self):
        ledger = CostLedger()
        ledger.add("ssd_read", 1.5)
        ledger.add("ssd_read", 0.5)
        ledger.add("allreduce", 2.0)
        other = CostLedger()
        other.add("stale", 9.0)  # replaced wholesale by load_state
        other.load_state(ledger.export_state())
        assert other.as_dict() == ledger.as_dict()
        assert other.count("ssd_read") == 2
        assert other.total("stale") == 0.0

    def test_ledger_load_rejects_malformed(self):
        ledger = CostLedger()
        with pytest.raises(ValueError, match="shape"):
            ledger.load_state(
                {"categories": ["a"], "totals": [], "counts": [1]}
            )
        with pytest.raises(ValueError, match="negative"):
            ledger.load_state(
                {"categories": ["a"], "totals": [-1.0], "counts": [1]}
            )


class TestDeltaChainGC:
    """The retention ladder closed over delta chains: GC may never
    strand a live delta without its (transitive) full base."""

    def test_kept_delta_pins_its_whole_ancestry(
        self, tiny_spec, small_config, tmp_path
    ):
        """Without periodic fulls every delta chains to the previous
        snapshot, so keep-last pins the entire history — nothing is
        collectible until a new full breaks the chain."""
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(str(tmp_path), every=1, keep_last=2)
        cluster.train(5)
        assert committed_rounds(str(tmp_path)) == [1, 2, 3, 4, 5]

    def test_new_full_releases_the_old_chain(
        self, tiny_spec, small_config, tmp_path
    ):
        """With ``full_every`` the ladder can actually collect: snapshots
        are full at rounds 1 and 4, so keeping {4, 5} strands nothing
        and rounds 1–3 are reclaimed."""
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(
            str(tmp_path), every=1, full_every=3, keep_last=2
        )
        cluster.train(5)
        assert committed_rounds(str(tmp_path)) == [4, 5]
        # The surviving chain restores bit-identically.
        restored = HPSCluster.restore(
            os.path.join(str(tmp_path), checkpoint_dir_name(5))
        )
        straight = build(tiny_spec, small_config)
        straight.train(5)
        probe = straight.generator.batch(10_000, 1024).unique_keys()
        assert np.array_equal(
            straight.lookup_embeddings(probe),
            restored.lookup_embeddings(probe),
        )

    def test_direct_prune_respects_base_links(
        self, tiny_spec, small_config, tmp_path
    ):
        """Direct ``save_checkpoint`` calls are this cluster's commits
        too: the stage's prune closes over their base links, and
        collects them once a full snapshot starts a fresh chain."""
        root = str(tmp_path)
        cluster = build(tiny_spec, small_config)
        for rounds, mode in ((1, "full"), (2, "delta"), (3, "delta")):
            cluster.train(1)
            cluster.save_checkpoint(
                os.path.join(root, checkpoint_dir_name(rounds)), mode=mode
            )
        stage = cluster.enable_snapshot_stage(root, every=1, keep_last=1)
        cluster.train(1)
        # Keeping round 4 keeps 3, 2 and 1 through the chain.
        assert stage.history[-1].kind == "delta"
        assert committed_rounds(root) == [1, 2, 3, 4]
        cluster.save_checkpoint(
            os.path.join(root, checkpoint_dir_name(4)), mode="full"
        )
        cluster.train(1)
        assert committed_rounds(root) == [4, 5]
