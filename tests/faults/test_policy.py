"""The retry policy's backoff and FaultArm guard/stall/straggle semantics."""

from __future__ import annotations

import numpy as np
import pytest

import repro.faults.policy as policy
import repro.faults.schedule as schedule_module
import repro.faults.supervisor as supervisor_module
from repro.faults import FaultExhaustedError, FaultSchedule
from repro.faults.policy import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    JITTER,
    MAX_ATTEMPTS,
    FaultArm,
    backoff_seconds,
)
from repro.faults.schedule import MAX_DEPTH
from repro.hardware.ledger import CostLedger


def make_arm(script, **arm_kwargs):
    schedule = FaultSchedule(0, script=script)
    ledger = CostLedger()
    incidents = []
    arm = FaultArm(
        schedule,
        ledger,
        surface="test",
        node=0,
        incidents=incidents,
        **arm_kwargs,
    )
    return arm, ledger, incidents


def drawn_backoff(attempt: int, kind: str, op: int = 0) -> float:
    """The backoff an arm on ``FaultSchedule(0)``, node 0, prices after
    failed attempt ``attempt`` of ``kind``: the jitter is the pair's
    ``op``-th uniform."""
    stream = FaultSchedule(0)
    u = [stream.uniform(kind, 0) for _ in range(op + 1)][-1]
    return backoff_seconds(attempt, u)


class TestBackoff:
    def test_backoff_grows_exponentially_to_cap(self):
        assert backoff_seconds(1, 0.0) == pytest.approx(BACKOFF_BASE_S)
        assert backoff_seconds(2, 0.0) == pytest.approx(2 * BACKOFF_BASE_S)
        assert backoff_seconds(3, 0.0) == pytest.approx(4 * BACKOFF_BASE_S)
        assert backoff_seconds(8, 0.0) == pytest.approx(BACKOFF_CAP_S)  # capped
        assert backoff_seconds(50, 0.0) == pytest.approx(BACKOFF_CAP_S)

    def test_jitter_scales_up_only(self):
        assert backoff_seconds(1, 1.0) == pytest.approx(BACKOFF_BASE_S * (1 + JITTER))
        assert backoff_seconds(1, 0.0) == pytest.approx(BACKOFF_BASE_S)

    def test_every_backoff_is_finite_and_bounded(self):
        for attempt in (1, 2, 5, 40):
            for u in (0.0, 0.5, 0.999):
                assert 0.0 < backoff_seconds(attempt, u) <= BACKOFF_CAP_S * (
                    1.0 + JITTER
                )


class TestConstants:
    @pytest.mark.parametrize(
        "module, name, value",
        [
            (policy, "MAX_ATTEMPTS", 3),
            (policy, "BACKOFF_BASE_S", 0.002),
            (policy, "BACKOFF_MULTIPLIER", 2.0),
            (policy, "BACKOFF_CAP_S", 0.25),
            (policy, "JITTER", 0.5),
            (policy, "MAX_ROUND_RETRIES", 3),
            (schedule_module, "DEPTH_P", 0.4),
            (schedule_module, "MAX_DEPTH", 8),
            (schedule_module, "STRAGGLER_MIN", 1.25),
            (schedule_module, "STRAGGLER_MAX", 3.0),
            (supervisor_module, "MAX_RECOVERIES", 32),
        ],
    )
    def test_fault_constants_keep_their_values(self, module, name, value):
        """Each retry, depth, straggler and recovery bound is one module
        constant with the value every committed fault run was priced
        under: changing one re-prices ``BENCH_e2e.json``'s fault rows."""
        assert getattr(module, name) == value


class TestGuard:
    def test_clean_draw_costs_nothing(self):
        arm, ledger, incidents = make_arm({})
        assert arm.guard({"hdfs_timeout": 1.0}) == 0.0
        assert ledger.total("fault_retry") == 0.0
        assert incidents == []

    def test_absorbed_fault_priced_and_recorded(self):
        # depth 2 < MAX_ATTEMPTS 3: absorbed after 2 failed attempts.
        assert MAX_ATTEMPTS == 3
        arm, ledger, incidents = make_arm({("hdfs_timeout", 0, 0): 2})
        extra = arm.guard({"hdfs_timeout": 1.5})
        expected = (
            2 * 1.5
            + drawn_backoff(1, "hdfs_timeout", 0)
            + drawn_backoff(2, "hdfs_timeout", 1)
        )
        assert extra == pytest.approx(expected)
        assert ledger.total("fault_retry") == pytest.approx(expected)
        (inc,) = incidents
        assert (inc.kind, inc.action, inc.retries) == ("hdfs_timeout", "retried", 2)
        assert inc.downtime_seconds == pytest.approx(expected)

    def test_exhaustion_raises_with_scope_and_pricing(self):
        arm, ledger, incidents = make_arm({("hdfs_timeout", 0, 0): 8})
        with pytest.raises(FaultExhaustedError) as exc:
            arm.guard({"hdfs_timeout": 1.0}, scope="round")
        err = exc.value
        assert err.scope == "round"
        assert err.kind == "hdfs_timeout"
        assert err.node == 0
        # MAX_ATTEMPTS failures, one backoff between each retried pair.
        expected = (
            MAX_ATTEMPTS * 1.0
            + drawn_backoff(1, "hdfs_timeout", 0)
            + drawn_backoff(2, "hdfs_timeout", 1)
        )
        assert err.retries == MAX_ATTEMPTS - 1
        assert err.bytes_reread == 0
        assert err.seconds == pytest.approx(expected)
        assert ledger.total("fault_retry") == pytest.approx(expected)
        # The escape is the fault's record; the log holds no second one.
        assert incidents == []

    def test_zero_waste_kind_costs_backoff_only(self):
        arm, ledger, _ = make_arm({("hdfs_read_failure", 0, 0): 1})
        extra = arm.guard({"hdfs_read_failure": 0.0})
        assert extra == pytest.approx(drawn_backoff(1, "hdfs_read_failure", 0))


    @pytest.mark.parametrize("depth", range(1, MAX_DEPTH + 1))
    def test_every_drawable_depth_is_absorbed_or_escapes(self, depth):
        """Below MAX_ATTEMPTS a fault is absorbed after ``depth`` retries
        and logged once; at or past it the guard prices MAX_ATTEMPTS
        failures and escapes, logging nothing.  Either way the one
        record — report or error — carries every retry and second the
        ledger was charged."""
        arm, ledger, incidents = make_arm({("hdfs_timeout", 0, 0): depth})
        if depth < MAX_ATTEMPTS:
            extra = arm.guard({"hdfs_timeout": 1.0})
            (inc,) = incidents
            assert inc.retries == depth
            assert inc.downtime_seconds == pytest.approx(extra)
        else:
            with pytest.raises(FaultExhaustedError) as exc:
                arm.guard({"hdfs_timeout": 1.0})
            assert incidents == []
            assert exc.value.retries == MAX_ATTEMPTS - 1
            extra = exc.value.seconds
        failures = min(depth, MAX_ATTEMPTS)
        assert extra == pytest.approx(
            failures
            + sum(
                drawn_backoff(a, "hdfs_timeout", a - 1)
                for a in range(1, min(depth, MAX_ATTEMPTS - 1) + 1)
            )
        )
        assert ledger.total("fault_retry") == pytest.approx(extra)


class _SizedStore:
    """A file store stand-in that prices reads by size and holds no
    file objects: ``ssd_reads`` must price from the sizes it is given."""

    class device:
        class spec:
            @staticmethod
            def read_seconds(nbytes: int) -> float:
                return nbytes * 1e-6

    def file(self, file_id: int):
        raise AssertionError("ssd_reads built a file object")


class TestSSDReads:
    def test_each_read_is_priced_from_its_own_size(self):
        """Three reads, the second failing once: it costs one wasted
        read of its own 5000 bytes plus one backoff; the clean reads
        cost nothing extra."""
        arm, ledger, incidents = make_arm({("ssd_read_error", 0, 1): 1})
        seconds = arm.ssd_reads(
            _SizedStore(), np.array([4, 7, 9]), np.array([1000, 5000, 9000])
        )
        expected = 5000 * 1e-6 + drawn_backoff(1, "ssd_read_error", 0)
        assert seconds.tolist() == pytest.approx([0.0, expected, 0.0])
        assert ledger.total("fault_retry") == pytest.approx(expected)
        (inc,) = incidents
        assert (inc.kind, inc.action, inc.retries) == ("ssd_read_error", "retried", 1)


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
        multiplier = FaultSchedule(1, rates={"straggler": 1.0}).straggler(0)
        assert 1.0 < multiplier
        schedule = FaultSchedule(1, rates={"straggler": 1.0})
        ledger = CostLedger()
        incidents = []
        arm = FaultArm(
            schedule, ledger, surface="stage", node=0, incidents=incidents
        )
        extra = arm.straggle("train", 4.0)
        # The twin schedule drew the same multiplier.
        assert extra == pytest.approx(4.0 * (multiplier - 1.0))
        assert ledger.total("fault_straggler") == pytest.approx(extra)
        assert ledger.total("fault_retry") == 0.0
        (inc,) = incidents
        assert (inc.action, inc.stage) == ("straggler", "train")

    def test_straggle_skips_zero_duration_stages(self):
        schedule = FaultSchedule(1, rates={"straggler": 1.0})
        arm = FaultArm(
            schedule, CostLedger(), surface="stage", node=0, incidents=[]
        )
        assert arm.straggle("read", 0.0) == 0.0
