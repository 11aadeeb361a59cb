"""FaultSchedule determinism, budget, scripting, and validation."""

from __future__ import annotations

import pytest

from repro.faults import FaultSchedule
from repro.faults.schedule import DEPTH_P, MAX_DEPTH, STRAGGLER_MAX, STRAGGLER_MIN


def drain(schedule: FaultSchedule, kind: str, node, n: int) -> list[int]:
    return [schedule.draw(kind, node) for _ in range(n)]


class TestDeterminism:
    def test_same_seed_same_draws(self):
        kwargs = dict(rates={"hdfs_timeout": 0.5, "straggler": 0.5})
        a = FaultSchedule(11, **kwargs)
        b = FaultSchedule(11, **kwargs)
        for kind in ("hdfs_timeout", "straggler"):
            for node in (0, 1, None):
                assert drain(a, kind, node, 40) == drain(b, kind, node, 40)

    def test_streams_are_independent_per_kind_and_node(self):
        # Arming an extra kind must not perturb another kind's stream,
        # and node 0's stream must not depend on node 1's draw order.
        # (Budget big enough that the foreign kind's firings can't drain
        # it — the global budget is deliberately shared.)
        a = FaultSchedule(5, rates={"hdfs_timeout": 0.5}, max_faults=10_000)
        b = FaultSchedule(
            5,
            rates={"hdfs_timeout": 0.5, "ssd_read_error": 0.9},
            max_faults=10_000,
        )
        seq_a = []
        seq_b = []
        for _ in range(30):
            seq_a.append(a.draw("hdfs_timeout", 0))
            seq_b.append(b.draw("hdfs_timeout", 0))
            b.draw("ssd_read_error", 1)  # interleaved foreign draws
        assert seq_a == seq_b

    def test_unarmed_kind_consumes_no_randomness(self):
        a = FaultSchedule(5, rates={"hdfs_timeout": 0.5})
        b = FaultSchedule(5, rates={"hdfs_timeout": 0.5})
        for _ in range(20):
            assert b.draw("comm_allreduce", 0) == 0  # rate 0: clean, free
        assert drain(a, "hdfs_timeout", 0, 30) == drain(b, "hdfs_timeout", 0, 30)


class TestBudgetAndDepth:
    def test_budget_caps_total_faults(self):
        s = FaultSchedule(3, rates={"hdfs_timeout": 1.0}, max_faults=2)
        depths = drain(s, "hdfs_timeout", 0, 50)
        assert sum(1 for d in depths if d > 0) == 2
        assert all(d == 0 for d in depths[2:])
        assert s.faults_fired == 2

    def test_depth_bounds(self):
        """Depths are geometric from 1, capped at MAX_DEPTH: 2000 fired
        faults reach past one attempt and never past the cap."""
        s = FaultSchedule(3, rates={"hdfs_timeout": 1.0}, max_faults=10_000)
        depths = drain(s, "hdfs_timeout", 0, 2000)
        assert all(1 <= d <= MAX_DEPTH for d in depths)
        assert 1 in depths and max(depths) > 1

    def test_depth_extends_geometrically(self):
        """Each fired fault fails one more attempt with probability
        DEPTH_P: over 20 000 faults, the share of depths >= k + 1 among
        depths >= k is DEPTH_P for the first steps."""
        s = FaultSchedule(4, rates={"hdfs_timeout": 1.0}, max_faults=20_000)
        depths = drain(s, "hdfs_timeout", 0, 20_000)
        for k in (1, 2, 3):
            reached = sum(d >= k for d in depths)
            assert sum(d >= k + 1 for d in depths) / reached == pytest.approx(
                DEPTH_P, abs=0.03
            )

    def test_straggler_multiplier_bounds(self):
        s = FaultSchedule(9, rates={"straggler": 1.0}, max_faults=10_000)
        mults = [s.straggler(0) for _ in range(50)]
        assert all(STRAGGLER_MIN <= m <= STRAGGLER_MAX for m in mults)
        clean = FaultSchedule(9, rates={})
        assert clean.straggler(0) == 1.0


class TestScript:
    def test_scripted_depth_overrides_and_spends_budget(self):
        s = FaultSchedule(0, script={("hdfs_timeout", 0, 2): 5})
        assert drain(s, "hdfs_timeout", 0, 2) == [0, 0]
        assert s.draw("hdfs_timeout", 0) == 5
        assert s.faults_fired == 1
        assert s.draw("hdfs_timeout", 0) == 0  # op 3: back to clean

    def test_scripted_zero_forces_clean(self):
        s = FaultSchedule(
            0, rates={"hdfs_timeout": 1.0}, script={("hdfs_timeout", 0, 0): 0}
        )
        assert s.draw("hdfs_timeout", 0) == 0
        assert s.faults_fired == 0


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultSchedule(0, rates={"nope": 0.5})

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultSchedule(0, rates={"hdfs_timeout": 1.5})

    @pytest.mark.parametrize("rate", [-0.1, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="must be in"):
            FaultSchedule(0, rates={"hdfs_timeout": rate})

    @pytest.mark.parametrize("rate, fired", [(0.0, 0), (1.0, 20)])
    def test_rate_bounds_are_valid(self, rate, fired):
        """The closed ends of the rate range are accepted and mean what
        they say: rate 0 fires nothing, rate 1 fires every operation."""
        s = FaultSchedule(0, rates={"hdfs_timeout": rate}, max_faults=100)
        assert sum(d > 0 for d in drain(s, "hdfs_timeout", 0, 20)) == fired
        assert s.faults_fired == fired

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_faults"):
            FaultSchedule(0, max_faults=-1)

    def test_zero_budget_is_valid_and_fires_nothing(self):
        """The closed end of the budget is accepted and means what it
        says: max_faults 0 fires nothing even at rate 1."""
        s = FaultSchedule(0, rates={"hdfs_timeout": 1.0}, max_faults=0)
        assert set(drain(s, "hdfs_timeout", 0, 20)) == {0}
