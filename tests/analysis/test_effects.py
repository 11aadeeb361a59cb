"""The static stage-effect model: may-overlap, conflicts, contracts.

The load-bearing claim is the may-overlap relation: the clock can run
registry stage ``i`` (of a later round) concurrently with registry stage
``j`` (of an earlier round) exactly when ``i < j``.  ``TestMayOverlap``
re-derives that empirically from randomized
:func:`~repro.core.pipeline.schedule` clocks rather than trusting the
docstring algebra.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.effects import (
    OverlapContract,
    StageConflictError,
    check_stage_conflicts,
    find_stage_conflicts,
    may_overlap,
)
from repro.core.cluster import (
    BASE_OVERLAP_CONTRACTS,
    PIPELINE_STAGE_NAMES,
    SNAPSHOT_OVERLAP_CONTRACTS,
    STAGE_EFFECTS,
    HPSCluster,
    StageSpec,
)
from repro.core.pipeline import schedule


def spec(name, reads=(), writes=()):
    return StageSpec(name, lambda ctx: 0.0, frozenset(reads), frozenset(writes))


class TestMayOverlap:
    def test_relation(self):
        assert may_overlap(0, 1)
        assert may_overlap(0, 3)
        assert not may_overlap(1, 1)
        assert not may_overlap(2, 1)

    def test_empirical_only_upstream_overlaps_downstream(self):
        """No schedule ever overlaps (i, j) with i >= j across rounds."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            times = rng.uniform(0.1, 3.0, size=(8, 4))
            sched = schedule(
                times, queue_capacity=2, stage_names=PIPELINE_STAGE_NAMES
            )
            start, finish = sched.start, sched.finish
            for b in range(8):
                for bp in range(b + 1, 8):
                    for s in range(4):
                        for sp in range(4):
                            overlaps = (
                                start[bp, sp] < finish[b, s]
                                and start[b, s] < finish[bp, sp]
                            )
                            if overlaps:
                                assert may_overlap(sp, s), (
                                    f"stage {sp} of round {bp} overlapped "
                                    f"stage {s} of round {b}"
                                )

    def test_empirical_every_allowed_pair_does_overlap(self):
        """may_overlap is tight: every i < j pair overlaps somewhere."""
        # Uniform long stages keep every stage busy simultaneously in
        # steady state, realizing every upstream/downstream pair.
        sched = schedule(
            np.ones((12, 4)), queue_capacity=2, stage_names=PIPELINE_STAGE_NAMES
        )
        start, finish = sched.start, sched.finish
        seen = set()
        for b in range(12):
            for bp in range(b + 1, 12):
                for s in range(4):
                    for sp in range(4):
                        if (
                            start[bp, sp] < finish[b, s]
                            and start[b, s] < finish[bp, sp]
                        ):
                            seen.add((sp, s))
        assert seen == {(i, j) for i in range(4) for j in range(4) if i < j}


class TestFindStageConflicts:
    def test_disjoint_stages_are_clean(self):
        stages = [
            spec("a", writes={"x"}),
            spec("b", writes={"y"}),
            spec("c", reads={"x"}, writes={"z"}),
        ]
        # a/c share x — a writes it and c (downstream) reads it
        conflicts = find_stage_conflicts(stages)
        assert len(conflicts) == 1
        assert conflicts[0].upstream == "a"
        assert conflicts[0].downstream == "c"
        assert conflicts[0].resources == {"x"}

    def test_fully_disjoint_is_empty(self):
        stages = [spec("a", writes={"x"}), spec("b", writes={"y"})]
        assert find_stage_conflicts(stages) == []
        check_stage_conflicts(stages)  # must not raise

    def test_read_read_sharing_is_not_a_conflict(self):
        stages = [spec("a", reads={"x"}), spec("b", reads={"x"})]
        assert find_stage_conflicts(stages) == []

    def test_write_write_is_a_conflict(self):
        stages = [spec("a", writes={"x"}), spec("b", writes={"x"})]
        (c,) = find_stage_conflicts(stages)
        assert c.resources == {"x"}

    def test_commutative_resource_is_exempt(self):
        stages = [spec("a", writes={"ledger"}), spec("b", writes={"ledger"})]
        assert find_stage_conflicts(stages) == []

    def test_round_local_resource_is_exempt(self):
        stages = [
            spec("a", writes={"round:plan"}),
            spec("b", reads={"round:plan"}, writes={"round:plan"}),
        ]
        assert find_stage_conflicts(stages) == []

    def test_contract_downgrades_exact_resources_only(self):
        stages = [
            spec("a", writes={"x", "y"}),
            spec("b", reads={"x", "y"}),
        ]
        contract = OverlapContract("a", "b", frozenset({"x"}), "pinned")
        (c,) = find_stage_conflicts(stages, contracts=[contract])
        assert c.resources == {"y"}
        both = OverlapContract("a", "b", frozenset({"x", "y"}), "pinned")
        assert find_stage_conflicts(stages, contracts=[both]) == []

    def test_contract_is_directional(self):
        # A contract for (a, b) does not sanction the pair (b, c).
        stages = [
            spec("a", writes={"x"}),
            spec("b", reads={"x"}),
            spec("c", reads={"x"}),
        ]
        contract = OverlapContract("a", "b", frozenset({"x"}), "pinned")
        (c,) = find_stage_conflicts(stages, contracts=[contract])
        assert (c.upstream, c.downstream) == ("a", "c")

    def test_wrong_order_contract_is_an_error(self):
        stages = [spec("a", writes={"x"}), spec("b", reads={"x"})]
        bad = OverlapContract("b", "a", frozenset({"x"}), "impossible")
        with pytest.raises(ValueError, match="unsatisfiable"):
            find_stage_conflicts(stages, contracts=[bad])

    def test_contract_for_absent_stage_is_ignored(self):
        stages = [spec("a", writes={"x"}), spec("b", writes={"y"})]
        ghost = OverlapContract("a", "snapshot", frozenset({"x"}), "optional")
        assert find_stage_conflicts(stages, contracts=[ghost]) == []

    def test_duplicate_stage_names_rejected(self):
        stages = [spec("a"), spec("a")]
        with pytest.raises(ValueError, match="duplicate"):
            find_stage_conflicts(stages)

    def test_error_message_names_the_pair(self):
        stages = [spec("up", writes={"x"}), spec("down", reads={"x"})]
        with pytest.raises(StageConflictError) as exc:
            check_stage_conflicts(stages)
        assert "up" in str(exc.value)
        assert "down" in str(exc.value)
        assert "OverlapContract" in str(exc.value)

    def test_contract_requires_justification(self):
        with pytest.raises(ValueError, match="justification"):
            OverlapContract("a", "b", frozenset({"x"}), "   ")


class TestDeclaredClusterStages:
    """The shipped stage sets must pass their own static check."""

    def _cluster(self, tiny_spec, small_config, **overrides):
        config = (
            dataclasses.replace(small_config, **overrides)
            if overrides
            else small_config
        )
        return HPSCluster(tiny_spec, config, functional_batch_size=192)

    def test_base_stage_set_passes(self, tiny_spec, small_config):
        cluster = self._cluster(tiny_spec, small_config)
        assert [s.name for s in cluster.stage_specs()] == [
            "read",
            "prepare",
            "load",
            "train",
        ]
        cluster.check_stage_conflicts()

    def test_prefetch_stage_set_passes(self, tiny_spec, small_config):
        cluster = self._cluster(tiny_spec, small_config, prefetch=True)
        assert [s.name for s in cluster.stage_specs()] == [
            "read",
            "prefetch",
            "prepare",
            "load",
            "train",
        ]
        cluster.check_stage_conflicts()

    def test_snapshot_stage_set_passes(self, tiny_spec, small_config, tmp_path):
        cluster = self._cluster(tiny_spec, small_config, prefetch=True)
        cluster.enable_snapshot_stage(str(tmp_path / "ckpt"))
        assert [s.name for s in cluster.stage_specs()] == [
            "read",
            "prefetch",
            "prepare",
            "load",
            "train",
            "snapshot",
        ]
        cluster.check_stage_conflicts()
        cluster.unregister_stage("snapshot")
        cluster.check_stage_conflicts()

    def test_contracts_are_load_bearing(self):
        """Without the sanctioned-overlap records the base set conflicts.

        This guards against the check silently passing because it sees
        nothing: the pinning-protected overlaps are real conflicts that
        the contracts — not the detector's blind spots — excuse.
        """
        stages = [
            StageSpec(name, lambda ctx: 0.0, *STAGE_EFFECTS[name])
            for name in ("read", "prefetch", "prepare", "load", "train")
        ]
        conflicts = find_stage_conflicts(stages)
        pairs = {(c.upstream, c.downstream) for c in conflicts}
        assert ("prepare", "train") in pairs
        assert ("load", "train") in pairs
        contracts = BASE_OVERLAP_CONTRACTS + SNAPSHOT_OVERLAP_CONTRACTS
        assert find_stage_conflicts(stages, contracts=contracts) == []


    def test_misdeclared_stage_is_refused_statically(
        self, tiny_spec, small_config
    ):
        """A registered stage writing MEM without a contract is caught."""
        cluster = self._cluster(tiny_spec, small_config)

        def poke(ctx):
            return 0.0

        cluster.register_stage(
            "poke", poke, after="train", writes=("mem",)
        )
        with pytest.raises(StageConflictError) as exc:
            cluster.train_pipelined(1)
        assert "poke" in str(exc.value)

        # A partial contract is not enough: prepare(b+1) *and* train(b+1)
        # both write mem over poke(b), and each pair needs its own record.
        cluster.unregister_stage("poke")
        cluster.register_stage(
            "poke",
            poke,
            after="train",
            writes=("mem",),
            contracts=[
                OverlapContract(
                    "prepare",
                    "poke",
                    frozenset({"mem"}),
                    "test-only: sanctioned by construction",
                ),
            ],
        )
        with pytest.raises(StageConflictError) as exc:
            cluster.check_stage_conflicts()
        assert "train" in str(exc.value)

        # The fully-contracted stage is accepted and runs.
        cluster.unregister_stage("poke")
        cluster.register_stage(
            "poke",
            poke,
            after="train",
            writes=("mem",),
            contracts=[
                OverlapContract(
                    up,
                    "poke",
                    frozenset({"mem"}),
                    "test-only: sanctioned by construction",
                )
                for up in ("prepare", "train")
            ],
        )
        cluster.check_stage_conflicts()
        run = cluster.train_pipelined(1)
        assert len(run.stats) == 1

    def test_effectless_stage_needs_no_contract(
        self, tiny_spec, small_config
    ):
        cluster = self._cluster(tiny_spec, small_config)
        cluster.register_stage("noop", lambda ctx: 0.0, after="train")
        cluster.check_stage_conflicts()
        run = cluster.train_pipelined(2)
        assert len(run.stats) == 2
