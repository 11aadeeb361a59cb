"""Delta-export protocol: chained snapshots, partial restore, crash safety.

A delta snapshot ships only what changed since its base — new SSD
payload files, the erased-file and stale-counter diff (the mapping is
derived on load), and per MEM tier a mask of the untouched base entries
plus the reordered ones with their written values — chained to the base
manifest by name and content hash. The acceptance bar is the same as for
full snapshots: ``train(k) + save + crash + restore + train(m)`` must be
**bit-identical** to ``train(k + m)``, whether the restore replays a
whole chain into a fresh process or splices a single replacement node
into a surviving cluster.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from operator import attrgetter

import numpy as np
import pytest

from cache_oracles import assert_delta_matches_oracle, oracle_cache_delta
from repro.ckpt import checkpoint as ckpt
from repro.ckpt import format as fmt
from repro.ckpt.format import CheckpointError
from repro.core.cluster import HPSCluster, RoundContext
from repro.errors import TierStateError
from ssd_oracles import ReferenceFileStore, assert_same_arrays, derived_mapping


@pytest.fixture
def pressured(small_config):
    # MEM tier small enough that evictions spill real state to the SSD
    # store — every tier's delta hook carries payload, not just MEM's.
    return dataclasses.replace(small_config, mem_capacity_params=1_400)


#: digests (:func:`folded_tiers_digest`) of nodes 0 and 1's tier states
#: folded from the chain ending at ``round_000006`` in
#: ``test_second_delta_of_a_stage_chain_is_pinned``, recorded on the
#: format-v4 commit before the snapshot format stopped shipping the SSD
#: mapping and the MEM value positions — the encoding moved, the state
#: it restores did not.  Re-pinned at format v6, which drops three SSD
#: counters nothing read: the v5 digest over the other arrays is this;
#: and at format v7, which drops the SSD file cache's residency: the v6
#: digest over the other arrays is this; and at format v8, which ships
#: live SSD rows only: the v7 chain's folded files, recast as a live
#: mask (from the mapping they imply) plus the live rows, hash to this.
PINNED_SECOND_DELTA = [
    "b6aa3b57bb1f211bde7e8dccb2581ed2b29cbd613c87cfaa37494f9fa143c405",
    "9670d74414c38e99edea9bc5ae12ac3855e910eff75c84d2debdf04100c14fae",
]


def build(tiny_spec, config):
    # Batch size large enough that the pressured MEM tier spills to the
    # SSD store within a handful of rounds (content from round ~6 on).
    return HPSCluster(tiny_spec, config, functional_batch_size=512)


def assert_cluster_parity(a: HPSCluster, b: HPSCluster) -> None:
    """Bit-exact equality of everything training produced."""
    probe = a.generator.batch(10_000, 1024).unique_keys()
    assert np.array_equal(a.lookup_embeddings(probe), b.lookup_embeddings(probe))
    for pa, pb in zip(
        a.nodes[0].model.dense_state(), b.nodes[0].model.dense_state()
    ):
        assert np.array_equal(pa, pb)
    eval_batch = a.generator.batch(20_000, 2048)
    assert a.evaluate_auc(eval_batch) == b.evaluate_auc(eval_batch)


def wrong_rows(a: HPSCluster, b: HPSCluster) -> int:
    """Probed embedding rows on which two clusters disagree."""
    probe = a.generator.batch(10_000, 1024).unique_keys()
    differs = a.lookup_embeddings(probe) != b.lookup_embeddings(probe)
    return int(np.any(differs, axis=1).sum())


def shard_digests(directory) -> dict[str, str]:
    """The committed SHA-256 of every shard of one snapshot."""
    return dict(fmt.read_manifest(str(directory))["shards"])


def node_shard(directory, node_id: int) -> dict[str, np.ndarray]:
    """One node's committed shard of a snapshot, digest-verified."""
    name = fmt.node_shard_name(node_id)
    return fmt.read_shard(str(directory), name, shard_digests(directory)[name])[0]


def tier_states(node) -> dict[str, dict]:
    """Every persistent tier's ``export_state()``, the SSD one with the
    compaction counter a node shard ships beside it."""
    states = {tier: holder.export_state() for tier, holder in ckpt._tiers(node).items()}
    states["ssd"]["total_compactions"] = np.int64(
        node.ssd_ps.compactor.total_compactions
    )
    return states


def folded_tiers_digest(cluster: HPSCluster, directory, node_id: int) -> str:
    """SHA-256 over one node's tier states folded from the chain ending
    at ``directory`` — every array's name, dtype, shape and bytes in name
    order (the SSD state with the newest member's compaction counter, as
    :func:`tier_states` has it), then the SSD mapping the files imply as
    (key, file id) rows — so the pin holds across changes of the shard
    encoding."""
    node = cluster.nodes[node_id]
    states: dict[str, dict] = {}
    for member, _ in fmt.resolve_chain(str(directory)):
        arrays = node_shard(member, node_id)
        tiers = ckpt._split_tier_arrays(arrays)
        if states:
            tiers = {
                tier: holder.fold_delta(states[tier], tiers[tier])
                for tier, holder in ckpt._tiers(node).items()
            }
        states = tiers
    states["ssd"]["total_compactions"] = arrays["ssd_total_compactions"]
    h = hashlib.sha256()
    for tier in ckpt._TIERS:
        for name in sorted(states[tier]):
            a = np.ascontiguousarray(states[tier][name])
            h.update(f"{tier}|{name}|{a.dtype.str}|{a.shape}|".encode())
            h.update(a.tobytes())
    mapping = derived_mapping(states["ssd"])
    h.update(b"ssd|mapping|")
    h.update(np.asarray(sorted(mapping), dtype=np.uint64).tobytes())
    h.update(np.asarray([mapping[k] for k in sorted(mapping)], dtype=np.int64).tobytes())
    return h.hexdigest()


def assert_same_tiers(a: HPSCluster, b: HPSCluster) -> None:
    """Every node's per-tier ``export_state()`` byte for byte."""
    for na, nb in zip(a.nodes, b.nodes):
        sa, sb = tier_states(na), tier_states(nb)
        for tier in ckpt._TIERS:
            assert_same_arrays(sa[tier], sb[tier])


def assert_deep_state_parity(a: HPSCluster, b: HPSCluster) -> None:
    """Replacement metadata and SSD layout match, not just values."""
    for na, nb in zip(a.nodes, b.nodes):
        states_a, states_b = tier_states(na), tier_states(nb)
        for tier in ckpt._TIERS:
            sa, sb = states_a[tier], states_b[tier]
            assert set(sa) == set(sb), tier
            for key in sa:
                assert np.array_equal(sa[key], sb[key]), f"{tier} {key}"


# ----------------------------------------------------------------------
# Tier-level export_delta / fold_delta round-trips
# ----------------------------------------------------------------------
class TestTierDeltaRoundTrip:
    """export_delta() since the mark, folded onto the export_state()
    taken at the mark, is the current export_state() byte for byte, for
    every tier — and loads into a fresh tier as that state."""

    @pytest.mark.parametrize("tier", ["mem", "ssd"])
    def test_round_trip(self, tiny_spec, pressured, tmp_path, tier):
        trained = build(tiny_spec, pressured)
        trained.train(7)
        bases = [ckpt._tiers(n)[tier].export_state() for n in trained.nodes]
        for node in trained.nodes:
            ckpt._tiers(node)[tier].mark_snapshot()
        trained.train(3)

        fresh = build(tiny_spec, pressured)
        for node, fresh_node, base in zip(
            trained.nodes, fresh.nodes, bases
        ):
            ps = ckpt._tiers(node)[tier]
            want = ps.export_state()
            folded = ps.fold_delta(base, ps.export_delta())
            assert_same_arrays(folded, want)
            ckpt._tiers(fresh_node)[tier].load_state(folded)
            assert_same_arrays(ckpt._tiers(fresh_node)[tier].export_state(), want)

    def test_ssd_delta_ships_only_new_files(
        self, tiny_spec, pressured, tmp_path
    ):
        trained = build(tiny_spec, pressured)
        trained.train(10)
        store = trained.nodes[0].ssd_ps.store
        store.mark_snapshot()
        trained.train(1)
        delta = store.export_delta()
        full = store.export_state()
        delta_bytes = sum(v.nbytes for v in delta.values())
        full_bytes = sum(v.nbytes for v in full.values())
        assert 0 < delta_bytes < full_bytes

    def test_empty_delta_when_nothing_changed(self, tiny_spec, pressured):
        trained = build(tiny_spec, pressured)
        trained.train(10)
        for node in trained.nodes:
            for tier, ps in ckpt._tiers(node).items():
                base = ps.export_state()
                ps.mark_snapshot()
                delta = ps.export_delta()
                # Against itself a tier ships (at most) fixed-size
                # bookkeeping, never value payload of the full state.
                base_bytes = sum(v.nbytes for v in base.values())
                delta_bytes = sum(v.nbytes for v in delta.values())
                assert delta_bytes < base_bytes, tier
                # ...and folding it onto the base is the identity.
                assert_same_arrays(ps.fold_delta(base, delta), base)


# ----------------------------------------------------------------------
# Misuse of the mark protocol ends in a typed error
# ----------------------------------------------------------------------
class TestMarkProtocolMisuse:
    @pytest.mark.parametrize(
        "tier, names", [("mem_ps.cache", "MEM"), ("ssd_ps.store", "SSD")]
    )
    def test_export_delta_without_a_mark_is_a_tier_state_error(
        self, tiny_spec, pressured, tier, names
    ):
        """Freshly constructed, or loaded (a full snapshot, or a delta
        folded onto one) and not yet marked: the tier has no base —
        TierStateError naming the tier, state untouched."""
        trained = build(tiny_spec, pressured)
        trained.train(7)
        holder_of = attrgetter(tier)
        ps = holder_of(trained.nodes[0])
        before = ps.export_state()
        with pytest.raises(TierStateError, match=f"{names}.*no snapshot mark"):
            ps.export_delta()
        after = ps.export_state()
        assert all(np.array_equal(before[k], after[k]) for k in before)

        ps.mark_snapshot()
        trained.train(2)
        delta = ps.export_delta()
        holder = holder_of(build(tiny_spec, pressured).nodes[0])
        holder.load_state(before)
        with pytest.raises(TierStateError, match=names):
            holder.export_delta()
        holder.load_state(holder.fold_delta(before, delta))
        with pytest.raises(TierStateError, match=names):
            holder.export_delta()
        want, got = ps.export_state(), holder.export_state()
        assert all(np.array_equal(want[k], got[k]) for k in want)
        holder.mark_snapshot()
        assert holder.export_delta()  # marked: now it diffs

    def test_mark_snapshot_mid_round_is_a_tier_state_error(
        self, tiny_spec, pressured, tmp_path
    ):
        """Pins held / a round in flight: the same TierStateError
        ``export_state`` raises, from the cache and from a cluster save,
        marks untouched — the delta taken once the round is aborted
        still covers everything since the base."""
        cluster = build(tiny_spec, pressured)
        cluster.train(3)
        cluster.save_checkpoint(str(tmp_path / "s0"), mode="full")
        cluster.train(1)
        ctx = RoundContext(round_index=cluster.rounds_completed)
        cluster.stage_read(ctx)
        cluster.stage_prefetch(ctx)
        for node in cluster.nodes:
            with pytest.raises(TierStateError, match="pinned"):
                node.mem_ps.cache.mark_snapshot()
        with pytest.raises(TierStateError, match="pinned"):
            cluster.save_checkpoint(str(tmp_path / "s1"), mode="delta")
        cluster.abort_round()
        cluster.save_checkpoint(str(tmp_path / "s1"), mode="delta")
        restored = HPSCluster.restore(str(tmp_path / "s1"))
        assert wrong_rows(cluster, restored) == 0

    def test_save_between_prefetch_and_load_changes_nothing(
        self, tiny_spec, pressured, tmp_path
    ):
        """Resolved but not yet staged in HBM (``_staged_rounds == 0``,
        so the cluster's own boundary check passes): a full or delta
        save is refused with a typed error and leaves the chain link,
        the written index and every tier mark as they were; once the
        round is aborted, a delta into the same directory restores
        bit-exactly."""
        cluster = build(tiny_spec, pressured)
        cluster.train(3)
        cluster.save_checkpoint(str(tmp_path / "s0"), mode="full")
        cluster.train(1)
        ctx = RoundContext(round_index=cluster.rounds_completed)
        cluster.stage_read(ctx)
        cluster.stage_prefetch(ctx)
        assert cluster._staged_rounds == 0

        def marks():
            return [
                np.asarray(part)
                for node in cluster.nodes
                for tier in ckpt._tiers(node).values()
                for part in tier._mark
            ]

        base, written = dict(cluster._ckpt_base), dict(cluster._ckpt_written)
        before = marks()
        for mode in ("full", "delta"):
            with pytest.raises(TierStateError):
                cluster.save_checkpoint(str(tmp_path / "s1"), mode=mode)
            assert cluster._ckpt_base == base
            assert cluster._ckpt_written == written
            after = marks()
            assert len(after) == len(before)
            assert all(np.array_equal(x, y) for x, y in zip(before, after))

        cluster.abort_round()
        stats = cluster.save_checkpoint(str(tmp_path / "s1"), mode="delta")
        assert stats.kind == "delta"
        restored = HPSCluster.restore(str(tmp_path / "s1"))
        assert wrong_rows(cluster, restored) == 0
        assert_cluster_parity(cluster, restored)
        assert_deep_state_parity(cluster, restored)

    def test_refused_save_leaves_a_committed_directory_untouched(
        self, tiny_spec, pressured, tmp_path
    ):
        """A mid-round save the MEM cache refuses (pinned rows), aimed at
        the directory of a committed snapshot, changes nothing on disk:
        every refusal runs before the manifest is invalidated, so the
        snapshot's files stay byte-identical and it still restores."""
        cluster = build(tiny_spec, pressured)
        cluster.train(3)
        s0 = tmp_path / "s0"
        cluster.save_checkpoint(str(s0), mode="full")

        def files():
            return {p.name: p.read_bytes() for p in sorted(s0.iterdir())}

        before = files()
        reference = HPSCluster.restore(str(s0))
        ctx = RoundContext(round_index=cluster.rounds_completed)
        cluster.stage_read(ctx)
        cluster.stage_prefetch(ctx)
        with pytest.raises(TierStateError, match="pinned"):
            cluster.save_checkpoint(str(s0), mode="full")
        assert files() == before
        restored = HPSCluster.restore(str(s0))
        assert_cluster_parity(reference, restored)
        assert_deep_state_parity(reference, restored)


# ----------------------------------------------------------------------
# Whole-cluster delta chains
# ----------------------------------------------------------------------
class TestDeltaChainRestore:
    def test_chain_restore_matches_uninterrupted_run(
        self, tiny_spec, pressured, tmp_path
    ):
        straight = build(tiny_spec, pressured)
        straight.train(7)

        chained = build(tiny_spec, pressured)
        chained.train(3)
        chained.save_checkpoint(str(tmp_path / "s0"), mode="full")
        chained.train(2)
        s1 = chained.save_checkpoint(str(tmp_path / "s1"), mode="delta")
        chained.train(2)
        s2 = chained.save_checkpoint(str(tmp_path / "s2"), mode="delta")
        assert s1.kind == s2.kind == "delta"

        restored = HPSCluster.restore(str(tmp_path / "s2"))
        assert restored.rounds_completed == 7
        assert restored.restore_stats.kind == "delta"
        assert_cluster_parity(straight, restored)
        assert_deep_state_parity(straight, restored)
        # ...and the restored cluster keeps training bit-identically.
        straight.train(3)
        restored.train(3)
        assert_cluster_parity(straight, restored)

    def test_auto_mode_is_full_then_delta(
        self, tiny_spec, pressured, tmp_path
    ):
        cluster = build(tiny_spec, pressured)
        cluster.train(2)
        first = cluster.save_checkpoint(str(tmp_path / "c0"), mode="auto")
        assert first.kind == "full"
        cluster.train(2)
        second = cluster.save_checkpoint(str(tmp_path / "c1"), mode="auto")
        assert second.kind == "delta"
        chain = fmt.resolve_chain(str(tmp_path / "c1"))
        assert len(chain) == 2
        _, manifest = chain[-1]
        assert manifest["base"] == "c0"
        assert manifest["base_manifest_sha256"] == fmt.manifest_sha256(
            str(tmp_path / "c0")
        )

    def test_delta_requires_a_valid_sibling_base(
        self, tiny_spec, pressured, tmp_path
    ):
        cluster = build(tiny_spec, pressured)
        cluster.train(2)
        with pytest.raises(CheckpointError, match="no.*base|base"):
            cluster.save_checkpoint(str(tmp_path / "d0"), mode="delta")
        cluster.save_checkpoint(str(tmp_path / "full"), mode="full")
        # Same round → nothing to chain; delta_base_problem says so.
        assert ckpt.delta_base_problem(cluster, str(tmp_path / "d1")) is not None
        cluster.train(1)
        # A different parent directory is not a sibling of the base.
        other = tmp_path / "elsewhere"
        other.mkdir()
        assert ckpt.delta_base_problem(cluster, str(other / "d1")) is not None
        assert ckpt.delta_base_problem(cluster, str(tmp_path / "d1")) is None

    def test_cluster_delta_equals_oracle_delta(
        self, tiny_spec, pressured, tmp_path
    ):
        """The delta a cluster commits is, shard digest for shard
        digest, the one the base-diffing oracles produce from full
        exports retained at the base: plan-collected write sets for the
        MEM tier (the predecessor's ``dirty_keys`` mode), and it covers
        the value-compare mode's ship set (never under-approximates)."""
        cluster = build(tiny_spec, pressured)
        cluster.train(3)
        cluster.save_checkpoint(str(tmp_path / "base"), mode="full")
        bases = [tier_states(n) for n in cluster.nodes]

        collected = [[] for _ in range(cluster.n_nodes)]

        def collect(ctx) -> float:
            # The round's MEM write set straight from its plan: the local
            # working partition plus every sync round's keys the node
            # owns but did not stage (the owner queue's keys).
            for i, parts in enumerate(collected):
                node_plan = ctx.plan.nodes[i]
                parts.append(node_plan.keys[node_plan.node_parts[node_plan.node_id]])
                owner_of = cluster.nodes[i].mem_ps.owner_of
                for sp in ctx.plan.sync:
                    queued = ~np.isin(sp.keys, node_plan.keys)
                    parts.append(sp.keys[queued & (owner_of(sp.keys) == i)])
            return 0.0

        cluster.register_stage("collect", collect, after="train")
        cluster.train(3)
        stats = cluster.save_checkpoint(str(tmp_path / "next"), mode="delta")
        assert stats.kind == "delta"
        committed = shard_digests(tmp_path / "next")

        for node, base, parts in zip(cluster.nodes, bases, collected):
            shipped = node_shard(tmp_path / "next", node.node_id)
            mem = {k[4:]: v for k, v in shipped.items() if k.startswith("mem_")}
            written = np.unique(np.concatenate(parts))
            assert_delta_matches_oracle(
                node.mem_ps.cache, mem, base["mem"], written=written
            )
            # The whole shard, rebuilt from the oracles' diffs of the
            # retained full exports, hashes to the committed digest.
            ref = ReferenceFileStore(
                node.ssd_ps.store.value_dim, node.ssd_ps.store.file_capacity
            )
            ref.load_state(node.ssd_ps.store.export_state())
            oracle = {
                "mem": oracle_cache_delta(
                    node.mem_ps.cache, base["mem"], dirty_keys=written
                ),
                "ssd": ref.export_delta(base["ssd"]),
            }
            arrays = ckpt._node_shard_arrays(node, oracle)
            # The ledger moved on (this save's own ckpt_write): take the
            # counters the shard committed.
            for name in ("ledger_categories", "ledger_totals", "ledger_counts"):
                arrays[name] = shipped[name]
            _, digest = fmt.write_shard(str(tmp_path), "oracle.shard", arrays)
            assert digest == committed[fmt.node_shard_name(node.node_id)]

        restored = HPSCluster.restore(str(tmp_path / "next"))
        assert_cluster_parity(cluster, restored)
        assert_deep_state_parity(cluster, restored)

    def test_second_delta_of_a_stage_chain_is_pinned(
        self, tiny_spec, pressured, tmp_path
    ):
        """The tier states the chain of a snapshot stage (full @2,
        deltas @4 @6 @8) folds to at its second delta, pinned to what
        the format-v4 chain folded to — oracle and production cannot
        drift together, and a change of encoding cannot move them."""
        cluster = build(tiny_spec, pressured)
        stage = cluster.enable_snapshot_stage(str(tmp_path), every=2)
        cluster.train_pipelined(8)
        assert [(s.kind, s.nbytes) for s in stage.history] == [
            ("full", 64672), ("delta", 70171), ("delta", 74141), ("delta", 87647)
        ]
        target = tmp_path / "round_000006"
        assert [
            folded_tiers_digest(cluster, target, i) for i in range(2)
        ] == PINNED_SECOND_DELTA

    def test_snapshot_stage_registered_after_unrecorded_rounds(
        self, tiny_spec, pressured, tmp_path
    ):
        """A stage registered late finds a valid sibling base and opens
        with a delta — which must cover every round since that base, not
        just the ones the stage watched.  (It used to ship the plan keys
        of round 8 alone: every digest valid, 190 of 1 007 probed rows
        restored wrong.)"""
        cluster = build(tiny_spec, pressured)
        cluster.train(4)
        cluster.save_checkpoint(str(tmp_path / "round_000004"), mode="full")
        cluster.train(3)
        stage = cluster.enable_snapshot_stage(str(tmp_path), every=1)
        cluster.train(1)
        assert [(s.kind, s.rounds_completed) for s in stage.history] == [("delta", 8)]
        restored = HPSCluster.restore(fmt.latest_checkpoint(str(tmp_path)))
        assert wrong_rows(cluster, restored) == 0
        assert_cluster_parity(cluster, restored)
        assert_deep_state_parity(cluster, restored)

    def test_snapshot_stage_reenabled_after_unrecorded_rounds(
        self, tiny_spec, pressured, tmp_path
    ):
        """unregister → train → re-enable: same hole, same fix."""
        cluster = build(tiny_spec, pressured)
        cluster.enable_snapshot_stage(str(tmp_path), every=1)
        cluster.train(4)
        cluster.unregister_stage("snapshot")
        cluster.train(3)
        stage = cluster.enable_snapshot_stage(str(tmp_path), every=1)
        cluster.train(1)
        assert [(s.kind, s.rounds_completed) for s in stage.history] == [("delta", 8)]
        restored = HPSCluster.restore(fmt.latest_checkpoint(str(tmp_path)))
        assert wrong_rows(cluster, restored) == 0
        assert_deep_state_parity(cluster, restored)

    def test_auto_save_between_two_stage_snapshots(
        self, tiny_spec, pressured, tmp_path
    ):
        """A ``mode="auto"`` save (what the Supervisor takes) lands
        between two stage snapshots and becomes the chain's base: the
        stage's next delta diffs against *it*."""
        cluster = build(tiny_spec, pressured)
        stage = cluster.enable_snapshot_stage(str(tmp_path), every=2)
        cluster.train(3)
        between = cluster.save_checkpoint(
            str(tmp_path / fmt.checkpoint_dir_name(3)), mode="auto"
        )
        cluster.train(1)
        assert between.kind == "delta"
        assert [s.kind for s in stage.history] == ["full", "delta"]
        chain = fmt.resolve_chain(str(tmp_path / "round_000004"))
        assert [os.path.basename(d) for d, _ in chain] == [
            "round_000002", "round_000003", "round_000004"
        ]
        restored = HPSCluster.restore(str(tmp_path / "round_000004"))
        assert wrong_rows(cluster, restored) == 0
        assert_deep_state_parity(cluster, restored)

    def test_snapshot_stage_chain_restores_from_pipelined_run(
        self, tiny_spec, pressured, tmp_path
    ):
        """The registered ``snapshot`` stage under pipelined execution:
        the newest chain member restores bit-identically to a run that
        never snapshotted at all."""
        straight = build(tiny_spec, pressured)
        straight.train_pipelined(6)

        snapped = build(tiny_spec, pressured)
        stage = snapped.enable_snapshot_stage(str(tmp_path), every=2)
        snapped.train_pipelined(6)
        kinds = [s.kind for s in stage.history]
        assert kinds == ["full", "delta", "delta"]
        assert_cluster_parity(straight, snapped)  # snapshotting is free

        newest = str(tmp_path / "round_000006")
        restored = HPSCluster.restore(newest)
        assert_cluster_parity(straight, restored)
        assert_deep_state_parity(straight, restored)
        straight.train(2)
        restored.train(2)
        assert_cluster_parity(straight, restored)

    def test_snapshot_stage_lockstep_matches_pipelined(
        self, tiny_spec, pressured, tmp_path
    ):
        lock = build(tiny_spec, pressured)
        lock_stage = lock.enable_snapshot_stage(str(tmp_path / "lock"), every=2)
        lock.train(6)
        piped = build(tiny_spec, pressured)
        piped_stage = piped.enable_snapshot_stage(
            str(tmp_path / "piped"), every=2
        )
        piped.train_pipelined(6)
        assert [s.kind for s in lock_stage.history] == [
            s.kind for s in piped_stage.history
        ]
        assert [s.nbytes for s in lock_stage.history] == [
            s.nbytes for s in piped_stage.history
        ]
        assert_cluster_parity(lock, piped)

    def test_full_every_forces_periodic_fulls(
        self, tiny_spec, pressured, tmp_path
    ):
        cluster = build(tiny_spec, pressured)
        stage = cluster.enable_snapshot_stage(
            str(tmp_path), every=1, full_every=3
        )
        cluster.train(6)
        assert [s.kind for s in stage.history] == [
            "full", "delta", "delta", "full", "delta", "delta",
        ]

    def test_delta_much_smaller_than_full_at_steady_state(
        self, tiny_spec, pressured, tmp_path
    ):
        """Small-scale version of the bench claim: one round's delta is
        strictly smaller than a full snapshot of the same state (the
        ≥10× steady-state ratio is pinned against the committed
        BENCH_e2e.json in tests/plan/test_bench_schema.py)."""
        cluster = build(tiny_spec, pressured)
        cluster.train(6)
        cluster.save_checkpoint(str(tmp_path / "base"), mode="full")
        cluster.train(1)
        delta = cluster.save_checkpoint(str(tmp_path / "next"), mode="delta")
        full = ckpt.save_cluster(cluster, str(tmp_path / "fullnow"))
        assert delta.nbytes < full.nbytes


# ----------------------------------------------------------------------
# Partial restore: splice one replacement node into a live cluster
# ----------------------------------------------------------------------
class TestPartialRestore:
    def test_replacement_node_is_bit_identical(
        self, tiny_spec, pressured, tmp_path
    ):
        twin = build(tiny_spec, pressured)
        twin.train(4)

        cluster = build(tiny_spec, pressured)
        cluster.train(2)
        cluster.save_checkpoint(str(tmp_path / "s0"), mode="full")
        cluster.train(2)
        cluster.save_checkpoint(str(tmp_path / "s1"), mode="delta")

        dead = cluster.nodes[1]
        stats = ckpt.restore_nodes(cluster, str(tmp_path / "s1"), [1])
        assert stats.kind == "partial"
        assert stats.rounds_completed == 4
        assert cluster.nodes[1] is not dead
        # Only the replacement node pays restore time.
        paid = [node.ledger.total("ckpt_read") for node in cluster.nodes]
        assert paid == [0.0, stats.seconds] and stats.seconds > 0
        assert_cluster_parity(twin, cluster)
        assert_deep_state_parity(twin, cluster)
        # The spliced cluster keeps training bit-identically — peer
        # wiring, generator position, and plans all survived.
        twin.train(3)
        cluster.train(3)
        assert_cluster_parity(twin, cluster)
        assert_deep_state_parity(twin, cluster)

    def test_delta_after_a_partial_restore_ships_what_a_twin_ships(
        self, tiny_spec, pressured, tmp_path
    ):
        """The replacement is marked at the snapshot it loaded and the
        survivors keep their marks: the next delta is, shard for shard,
        the one a cluster that never lost a node commits."""
        clusters = {}
        for name in ("failed", "twin"):
            c = clusters[name] = build(tiny_spec, pressured)
            c.train(2)
            c.save_checkpoint(str(tmp_path / name / "s0"), mode="full")
            c.train(2)
            c.save_checkpoint(str(tmp_path / name / "s1"), mode="delta")
        failed, twin = clusters["failed"], clusters["twin"]
        ckpt.restore_nodes(failed, str(tmp_path / "failed" / "s1"), [1])
        # The replacement paid a ckpt_read the twin never did; the cost
        # history rides in the shard, so level it before comparing.
        failed.nodes[1].ledger.load_state(twin.nodes[1].ledger.export_state())
        for name, c in clusters.items():
            c.train(2)
            stats = c.save_checkpoint(str(tmp_path / name / "s2"), mode="delta")
            assert stats.kind == "delta"
        assert shard_digests(tmp_path / "failed" / "s2") == shard_digests(
            tmp_path / "twin" / "s2"
        )
        restored = HPSCluster.restore(str(tmp_path / "failed" / "s2"))
        assert_cluster_parity(twin, restored)
        assert_deep_state_parity(twin, restored)

    def test_partial_restore_after_snapshot_stage_run(
        self, tiny_spec, pressured, tmp_path
    ):
        twin = build(tiny_spec, pressured)
        twin.train_pipelined(6)
        cluster = build(tiny_spec, pressured)
        cluster.enable_snapshot_stage(str(tmp_path), every=2)
        cluster.train_pipelined(6)
        stats = ckpt.restore_nodes(cluster, str(tmp_path / "round_000006"), [0])
        assert stats.kind == "partial"
        assert_cluster_parity(twin, cluster)
        assert_deep_state_parity(twin, cluster)

    def test_validates_node_id_and_boundary(
        self, tiny_spec, pressured, tmp_path
    ):
        cluster = build(tiny_spec, pressured)
        cluster.train(2)
        cluster.save_checkpoint(str(tmp_path / "s0"), mode="full")
        with pytest.raises(ValueError, match="node_id"):
            ckpt.restore_nodes(cluster, str(tmp_path / "s0"), [cluster.n_nodes])
        with pytest.raises(ValueError, match="node_id"):
            ckpt.restore_nodes(cluster, str(tmp_path / "s0"), [-1])
        # The survivors have moved past the snapshot: zero-replay splice
        # would mix rounds — must be rejected, not silently skewed.
        cluster.train(1)
        with pytest.raises(CheckpointError, match="round"):
            ckpt.restore_nodes(cluster, str(tmp_path / "s0"), [1])


# ----------------------------------------------------------------------
# Crash consistency: kill the writer at every write boundary
# ----------------------------------------------------------------------
class TestCrashConsistency:
    def _crashing_writer(self, budget: int):
        """A stand-in for atomic_write_bytes that dies after ``budget``
        successful writes — the delete-first/commit-last discipline must
        leave the newest *committed* chain member fully restorable no
        matter which write the crash lands on."""
        real = fmt.atomic_write_bytes
        state = {"writes": 0}

        def crashing(path, payload):
            if state["writes"] >= budget:
                raise RuntimeError("injected crash")
            state["writes"] += 1
            return real(path, payload)

        return crashing

    def _count_writes(self, tiny_spec, pressured, tmp_path) -> int:
        counter = {"n": 0}
        real = fmt.atomic_write_bytes

        def counting(path, payload):
            counter["n"] += 1
            return real(path, payload)

        cluster = build(tiny_spec, pressured)
        cluster.train(3)
        cluster.save_checkpoint(str(tmp_path / "count_base"), mode="full")
        cluster.train(1)
        fmt.atomic_write_bytes, saved = counting, fmt.atomic_write_bytes
        try:
            cluster.save_checkpoint(str(tmp_path / "count_delta"), mode="delta")
        finally:
            fmt.atomic_write_bytes = saved
        return counter["n"]

    def test_every_kill_point_leaves_newest_committed_chain_restorable(
        self, tiny_spec, pressured, tmp_path, monkeypatch
    ):
        """Exhaustive kill-point sweep: crash the writer after 0, 1, …,
        n-1 writes of a delta save.  Every crash must leave (a) the
        wrecked directory uncommitted and rejected by readers, (b) the
        prior chain member restorable bit-identically, and (c) the
        failed save retryable into the *same* directory — where it
        commits exactly the shards an un-killed save commits (the tiers'
        marks only advance once a manifest has), and the chain it ends
        restores to per-tier state byte-identical to a full restore taken
        at the same round."""
        total = self._count_writes(tiny_spec, pressured, tmp_path)
        assert total >= 3  # node shards + dense + manifest at minimum

        twin = build(tiny_spec, pressured)
        twin.train(4)
        twin_now = build(tiny_spec, pressured)
        twin_now.train(5)
        unkilled = build(tiny_spec, pressured)
        unkilled.train(3)
        unkilled.save_checkpoint(str(tmp_path / "unkilled" / "s0"), mode="full")
        unkilled.train(1)
        unkilled.save_checkpoint(str(tmp_path / "unkilled" / "s1"), mode="delta")
        unkilled.train(1)
        unkilled.save_checkpoint(str(tmp_path / "unkilled" / "s2"), mode="delta")
        want_shards = shard_digests(tmp_path / "unkilled" / "s2")
        unkilled.save_checkpoint(str(tmp_path / "unkilled" / "full"), mode="full")
        from_full = HPSCluster.restore(str(tmp_path / "unkilled" / "full"))

        for budget in range(total):
            root = tmp_path / f"kill{budget}"
            cluster = build(tiny_spec, pressured)
            cluster.train(3)
            cluster.save_checkpoint(str(root / "s0"), mode="full")
            cluster.train(1)
            cluster.save_checkpoint(str(root / "s1"), mode="delta")
            cluster.train(1)

            monkeypatch.setattr(
                fmt, "atomic_write_bytes", self._crashing_writer(budget)
            )
            with pytest.raises(RuntimeError, match="injected crash"):
                cluster.save_checkpoint(str(root / "s2"), mode="delta")
            monkeypatch.undo()

            # (a) the torn directory is not readable as a checkpoint...
            with pytest.raises(CheckpointError):
                fmt.resolve_chain(str(root / "s2"))
            # ...(b) the newest committed member restores exactly...
            restored = HPSCluster.restore(str(root / "s1"))
            assert restored.rounds_completed == 4
            assert_cluster_parity(twin, restored)
            # ...(c) and retrying the failed save succeeds in place.
            retry = cluster.save_checkpoint(str(root / "s2"), mode="auto")
            assert retry.kind == "delta"
            assert shard_digests(root / "s2") == want_shards
            now = HPSCluster.restore(str(root / "s2"))
            assert now.rounds_completed == 5
            assert_cluster_parity(twin_now, now)
            assert_deep_state_parity(twin_now, now)
            assert_same_tiers(now, from_full)

    def test_randomized_kill_points_across_a_snapshot_stage_run(
        self, tiny_spec, pressured, tmp_path, monkeypatch
    ):
        """Randomized variant over a whole continuous-checkpoint run:
        crash at a random write somewhere in the snapshot stream, then
        recover from whatever the newest committed snapshot is."""
        rng = np.random.default_rng(20260808)
        for trial in range(3):
            budget = int(rng.integers(1, 16))
            root = tmp_path / f"trial{trial}"
            cluster = build(tiny_spec, pressured)
            stage = cluster.enable_snapshot_stage(str(root), every=1)
            monkeypatch.setattr(
                fmt, "atomic_write_bytes", self._crashing_writer(budget)
            )
            crashed_at = None
            try:
                cluster.train(6)
            except RuntimeError:
                crashed_at = cluster.rounds_completed
            monkeypatch.undo()
            assert crashed_at is not None, "budget outlived the run"
            committed = list(stage.history)
            if not committed:
                # The crash hit inside the very first snapshot: nothing
                # committed, and the torn directory must read as such.
                with pytest.raises(CheckpointError):
                    fmt.resolve_chain(str(root / "round_000001"))
                continue
            # Recovery: the newest snapshot whose manifest committed.
            newest = max(committed, key=lambda s: s.rounds_completed)
            restored = HPSCluster.restore(newest.directory)
            twin = build(tiny_spec, pressured)
            twin.train(newest.rounds_completed)
            assert_cluster_parity(twin, restored)
            assert_deep_state_parity(twin, restored)
