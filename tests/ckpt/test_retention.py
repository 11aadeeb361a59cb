"""Checkpoint GC (keep-last-N retention) and ledger carry-over.

Production runs cannot keep every ``round_*`` snapshot: the snapshot
stage's ``keep_last=N`` (:meth:`HPSCluster.enable_snapshot_stage`) prunes
the oldest committed snapshots after each successful commit, atomically
(manifest deleted before any shard, the same discipline every writer
uses).  And per-node :class:`~repro.hardware.ledger.CostLedger` totals
ride inside the node shards, so a restored run *continues* long-horizon
cost accounting instead of restarting at zero.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.ckpt import latest_checkpoint, prune_checkpoints
from repro.ckpt.format import MANIFEST_NAME, checkpoint_dir_name, resolve_chain
from repro.core.cluster import HPSCluster
from repro.hardware.ledger import CostLedger


def build(tiny_spec, small_config, **kwargs):
    return HPSCluster(
        tiny_spec, small_config, functional_batch_size=128, **kwargs
    )


def committed_rounds(directory: str) -> list[int]:
    out = []
    for entry in sorted(os.listdir(directory)):
        sub = os.path.join(directory, entry)
        if os.path.isfile(os.path.join(sub, MANIFEST_NAME)):
            out.append(int(entry.removeprefix("round_")))
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

    def test_prune_is_manifest_first(self, tiny_spec, small_config, tmp_path):
        """An interrupted prune leaves only uncommitted debris, which
        readers already reject and later prunes leave untouched."""
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(str(tmp_path), every=1, full_every=1)
        cluster.train(3)
        # Simulate a prune that died between invalidate and rmtree.
        victim = os.path.join(str(tmp_path), checkpoint_dir_name(1))
        os.remove(os.path.join(victim, MANIFEST_NAME))
        assert latest_checkpoint(str(tmp_path)).endswith(
            checkpoint_dir_name(3)
        )
        removed = prune_checkpoints(str(tmp_path), keep_last=1)
        # The uncommitted directory is not "the newest", nor removable —
        # it is debris, skipped entirely.
        assert [os.path.basename(p) for p in removed] == [
            checkpoint_dir_name(2)
        ]
        assert os.path.isdir(victim)
        assert committed_rounds(str(tmp_path)) == [3]

    def test_prune_validates_keep_last(self, tiny_spec, small_config, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            prune_checkpoints(str(tmp_path), keep_last=0)
        assert_registration_refused(
            build(tiny_spec, small_config),
            str(tmp_path / "snaps"),
            "keep_last must be >= 1",
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

    def test_prune_missing_directory_is_noop(self, tmp_path):
        assert prune_checkpoints(str(tmp_path / "absent"), 3) == []


class TestRetentionLadder:
    """keep-every-M composed on top of keep-last-N (the sparse rung)."""

    def test_trainer_ladder_keeps_window_union_multiples(
        self, tiny_spec, small_config, tmp_path
    ):
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(
            str(tmp_path), every=1, full_every=1, keep_last=2, keep_every=3
        )
        cluster.train(7)
        # Window rung {6, 7} ∪ sparse rung {3, 6}.
        assert committed_rounds(str(tmp_path)) == [3, 6, 7]

    def test_ladder_intersection_counted_once(self, tiny_spec, small_config, tmp_path):
        """A snapshot in both rungs (recent AND a multiple) survives and
        later leaves the window without being re-deletable debris."""
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(
            str(tmp_path), every=1, full_every=1, keep_last=1, keep_every=2
        )
        cluster.train(2)  # round 2 is the newest AND a multiple of 2
        assert committed_rounds(str(tmp_path)) == [2]
        cluster.train(2)  # rounds 3, 4: 2 exits the window but stays (rung 2)
        assert committed_rounds(str(tmp_path)) == [2, 4]

    def test_prune_keep_every_direct(self, tiny_spec, small_config, tmp_path):
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(str(tmp_path), every=1, full_every=1)
        cluster.train(6)
        removed = prune_checkpoints(str(tmp_path), keep_last=1, keep_every=4)
        assert committed_rounds(str(tmp_path)) == [4, 6]
        assert [os.path.basename(p) for p in removed] == [
            checkpoint_dir_name(r) for r in (1, 2, 3, 5)
        ]

    def test_keep_every_one_keeps_everything(
        self, tiny_spec, small_config, tmp_path
    ):
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(str(tmp_path), every=1, full_every=1)
        cluster.train(4)
        assert prune_checkpoints(str(tmp_path), keep_last=1, keep_every=1) == []
        assert committed_rounds(str(tmp_path)) == [1, 2, 3, 4]

    def test_ladder_snapshot_still_restores(
        self, tiny_spec, small_config, tmp_path
    ):
        cluster = build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(
            str(tmp_path), every=1, full_every=1, keep_last=1, keep_every=2
        )
        cluster.train(3)
        # Restore from the sparse-rung survivor (round 2), not the newest.
        old = HPSCluster.restore(
            latest_checkpoint(str(tmp_path), upto_round=2)
        )
        assert old.rounds_completed == 2

    def test_validation(self, tiny_spec, small_config, tmp_path):
        with pytest.raises(ValueError, match="keep_every"):
            prune_checkpoints(str(tmp_path), keep_last=1, keep_every=0)
        cluster = build(tiny_spec, small_config)
        snaps = str(tmp_path / "snaps")
        assert_registration_refused(
            cluster, snaps, "keep_every must be >= 1", keep_last=2, keep_every=0
        )
        # Without keep_last the stage would never prune: refused too.
        assert_registration_refused(
            cluster, snaps, "keep_every requires keep_last", keep_every=2
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
        """prune_checkpoints itself (not just the stage) closes the keep
        set over ``base`` links before removing anything."""
        cluster = build(tiny_spec, small_config)
        cluster.train(1)
        cluster.save_checkpoint(
            os.path.join(str(tmp_path), checkpoint_dir_name(1)), mode="full"
        )
        cluster.train(1)
        cluster.save_checkpoint(
            os.path.join(str(tmp_path), checkpoint_dir_name(2)), mode="delta"
        )
        cluster.train(1)
        cluster.save_checkpoint(
            os.path.join(str(tmp_path), checkpoint_dir_name(3)), mode="delta"
        )
        removed = prune_checkpoints(str(tmp_path), keep_last=1)
        # Keeping round 3 pins rounds 2 and 1 through the chain.
        assert removed == []
        assert committed_rounds(str(tmp_path)) == [1, 2, 3]
