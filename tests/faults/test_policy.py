"""RetryPolicy pricing and FaultArm guard/stall/straggle semantics."""

from __future__ import annotations

import pytest

from repro.faults import FaultExhaustedError, FaultSchedule, RetryPolicy
from repro.faults.policy import FaultArm
from repro.hardware.ledger import CostLedger


def make_arm(script, *, policy=None, jitter=0.0, **arm_kwargs):
    schedule = FaultSchedule(0, script=script)
    policy = policy or RetryPolicy(jitter=jitter)
    ledger = CostLedger()
    incidents = []
    arm = FaultArm(
        schedule,
        policy,
        ledger,
        surface="test",
        node=0,
        incidents=incidents,
        **arm_kwargs,
    )
    return arm, ledger, incidents


class TestRetryPolicy:
    def test_backoff_grows_exponentially_to_cap(self):
        p = RetryPolicy(
            backoff_base_s=0.01, backoff_multiplier=2.0, backoff_cap_s=0.05,
            jitter=0.0,
        )
        assert p.backoff_seconds(1, 0.0) == pytest.approx(0.01)
        assert p.backoff_seconds(2, 0.0) == pytest.approx(0.02)
        assert p.backoff_seconds(3, 0.0) == pytest.approx(0.04)
        assert p.backoff_seconds(4, 0.0) == pytest.approx(0.05)  # capped
        assert p.backoff_seconds(10, 0.0) == pytest.approx(0.05)

    def test_jitter_scales_up_only(self):
        p = RetryPolicy(backoff_base_s=0.01, jitter=0.5)
        assert p.backoff_seconds(1, 1.0) == pytest.approx(0.015)
        assert p.backoff_seconds(1, 0.0) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("jitter", -5.0),
            ("jitter", float("nan")),
            ("backoff_multiplier", -1.0),
            ("backoff_multiplier", 0.0),
            ("backoff_multiplier", float("nan")),
            ("backoff_base_s", float("nan")),
            ("backoff_cap_s", float("nan")),
            ("max_round_retries", -1),
        ],
    )
    def test_inputs_that_price_negative_or_nan_seconds_are_refused(self, field, value):
        """Each would price a backoff below zero or as NaN, or loop a
        round a negative number of times: refused at construction, not
        deep in the round loop."""
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("jitter", 0.0),
            ("backoff_base_s", 0.0),
            ("backoff_cap_s", 0.0),
            ("max_round_retries", 0),
        ],
    )
    def test_zero_is_a_valid_bound(self, field, value):
        """The refusals are strict only below zero: a zero jitter, base,
        cap or round-retry budget is a real policy, pricing finite
        non-negative backoffs."""
        p = RetryPolicy(**{field: value})
        for attempt in (1, 2, 5):
            for u in (0.0, 0.5, 0.999):
                assert 0.0 <= p.backoff_seconds(attempt, u) <= p.backoff_cap_s * (
                    1.0 + p.jitter
                )


class TestGuard:
    def test_clean_draw_costs_nothing(self):
        arm, ledger, incidents = make_arm({})
        assert arm.guard({"hdfs_timeout": 1.0}) == 0.0
        assert ledger.total("fault_retry") == 0.0
        assert incidents == []

    def test_absorbed_fault_priced_and_recorded(self):
        # depth 2 < max_attempts 3: absorbed after 2 failed attempts.
        arm, ledger, incidents = make_arm({("hdfs_timeout", 0, 0): 2})
        p = arm.policy
        extra = arm.guard({"hdfs_timeout": 1.5})
        expected = 2 * 1.5 + p.backoff_seconds(1, 0.0) + p.backoff_seconds(2, 0.0)
        assert extra == pytest.approx(expected)
        assert ledger.total("fault_retry") == pytest.approx(expected)
        (inc,) = incidents
        assert (inc.kind, inc.action, inc.retries) == ("hdfs_timeout", "retried", 2)
        assert inc.downtime_seconds == pytest.approx(expected)
        assert arm.retries == 2

    def test_exhaustion_raises_with_scope_and_pricing(self):
        arm, ledger, _ = make_arm({("hdfs_timeout", 0, 0): 8})
        p = arm.policy
        with pytest.raises(FaultExhaustedError) as exc:
            arm.guard({"hdfs_timeout": 1.0}, scope="round")
        err = exc.value
        assert err.scope == "round"
        assert err.kind == "hdfs_timeout"
        assert err.node == 0
        # max_attempts failures, one backoff between each retried pair.
        expected = 3 * 1.0 + p.backoff_seconds(1, 0.0) + p.backoff_seconds(2, 0.0)
        assert err.retries == 2
        assert err.seconds == pytest.approx(expected)
        assert ledger.total("fault_retry") == pytest.approx(expected)

    def test_zero_waste_kind_costs_backoff_only(self):
        arm, ledger, _ = make_arm({("hdfs_read_failure", 0, 0): 1})
        p = arm.policy
        extra = arm.guard({"hdfs_read_failure": 0.0})
        assert extra == pytest.approx(p.backoff_seconds(1, 0.0))


class TestStallAndStraggle:
    def test_stall_never_raises_and_charges_retry_line(self):
        arm, ledger, incidents = make_arm({("ssd_write_stall", 0, 0): 8})
        extra = arm.stall("ssd_write_stall", 2.0)
        assert extra > 0.0
        assert ledger.total("fault_retry") == pytest.approx(extra)
        (inc,) = incidents
        assert inc.action == "stall"

    def test_clean_stall_is_free(self):
        arm, ledger, incidents = make_arm({})
        assert arm.stall("ssd_write_stall", 2.0) == 0.0
        assert incidents == []

    def test_straggle_charges_separate_ledger_line(self):
        schedule = FaultSchedule(
            1,
            rates={"straggler": 1.0},
            straggler_min=2.0,
            straggler_max=2.0,
        )
        ledger = CostLedger()
        incidents = []
        arm = FaultArm(
            schedule, RetryPolicy(), ledger, surface="stage", node=0,
            incidents=incidents,
        )
        extra = arm.straggle("train", 4.0)
        # multiplier pinned at 2.0: the extra equals the stage time.
        assert extra == pytest.approx(4.0)
        assert ledger.total("fault_straggler") == pytest.approx(4.0)
        assert ledger.total("fault_retry") == 0.0
        (inc,) = incidents
        assert (inc.action, inc.stage) == ("straggler", "train")

    def test_straggle_skips_zero_duration_stages(self):
        schedule = FaultSchedule(1, rates={"straggler": 1.0})
        arm = FaultArm(
            schedule, RetryPolicy(), CostLedger(), surface="stage", node=0
        )
        assert arm.straggle("read", 0.0) == 0.0
