"""Dynamic effect tracing: declarations checked against real tier access.

The static check (``test_effects.py``) trusts what stages *declare*;
these tests verify the tracer catches stages that *lie* — and that
tracing a correct cluster neither flags anything nor perturbs training
(the proxies must be transparent).
"""

import dataclasses

import pytest

from repro.analysis.tracer import (
    EffectTracer,
    EffectViolationError,
)
from repro.core.cluster import HPSCluster


def _build(tiny_spec, small_config, **overrides):
    config = (
        dataclasses.replace(small_config, **overrides)
        if overrides
        else small_config
    )
    return HPSCluster(tiny_spec, config, functional_batch_size=192)


def _strip_effect(cluster, stage, resource):
    """Re-declare ``stage`` without ``resource`` in its write set."""
    cluster._stage_defs = [
        dataclasses.replace(s, writes=s.writes - {resource})
        if s.name == stage
        else s
        for s in cluster._stage_defs
    ]


class TestCleanRun:
    def test_traced_pipelined_run_is_clean(self, tiny_spec, small_config):
        cluster = _build(tiny_spec, small_config)
        with EffectTracer(cluster) as tracer:
            cluster.train_pipelined(3)
        assert tracer.violations == []

    def test_tracing_does_not_perturb_training(self, tiny_spec, small_config):
        plain = _build(tiny_spec, small_config)
        traced = _build(tiny_spec, small_config)
        runs = plain.train_pipelined(3)
        with EffectTracer(traced):
            runs_traced = traced.train_pipelined(3)
        assert [s.mean_loss for s in runs.stats] == [
            s.mean_loss for s in runs_traced.stats
        ]
        assert [s.pull_push_seconds for s in runs.stats] == [
            s.pull_push_seconds for s in runs_traced.stats
        ]

    def test_prefetch_and_snapshot_stages_trace_clean(
        self, tiny_spec, small_config, tmp_path
    ):
        cluster = _build(tiny_spec, small_config, prefetch=True)
        cluster.enable_snapshot_stage(str(tmp_path / "ckpt"))
        with EffectTracer(cluster) as tracer:
            cluster.train_pipelined(3)
        assert tracer.violations == []

    def test_uninstall_restores_the_cluster(self, tiny_spec, small_config):
        cluster = _build(tiny_spec, small_config)
        node = cluster.nodes[0]
        mem_before = node.mem_ps
        tracer = EffectTracer(cluster).install()
        assert node.mem_ps is not mem_before  # proxied
        tracer.uninstall()
        assert node.mem_ps is mem_before
        # the registry is unwrapped: training still works untraced
        cluster.train_pipelined(1)
        assert tracer.violations == []


class TestViolations:
    def test_stripped_write_declaration_is_caught(
        self, tiny_spec, small_config
    ):
        cluster = _build(tiny_spec, small_config)
        _strip_effect(cluster, "train", "hbm")
        tracer = EffectTracer(cluster)
        tracer.install()
        try:
            cluster.train_round()
        finally:
            tracer.uninstall()
        assert tracer.violations
        assert all(v.stage == "train" for v in tracer.violations)
        assert {v.resource for v in tracer.violations} == {"hbm"}
        with pytest.raises(EffectViolationError, match="undeclared write"):
            tracer.verify()

    @pytest.mark.parametrize("resource", ["mem", "ssd"])
    def test_the_snapshot_stage_marks_the_tiers_it_declares(
        self, tiny_spec, small_config, tmp_path, resource
    ):
        """``mark_snapshot`` after the manifest commits is a write of
        ``mem`` and ``ssd``; the transient HBM tier's mark is a read."""
        cluster = _build(tiny_spec, small_config)
        cluster.enable_snapshot_stage(str(tmp_path / "ckpt"))
        _strip_effect(cluster, "snapshot", resource)
        tracer = EffectTracer(cluster).install()
        try:
            cluster.train_round()
        finally:
            tracer.uninstall()
        assert {(v.stage, v.resource, v.member) for v in tracer.violations} == {
            ("snapshot", resource, "export_state"),
            ("snapshot", resource, "mark_snapshot"),
        }
        assert [v.access for v in tracer.violations] == ["read", "write"]

    def test_context_manager_raises_on_exit(self, tiny_spec, small_config):
        cluster = _build(tiny_spec, small_config)
        _strip_effect(cluster, "prepare", "mem")
        with pytest.raises(EffectViolationError, match="'prepare'"):
            with EffectTracer(cluster):
                cluster.train_round()

    def test_undeclared_stage_touching_a_tier_is_caught(
        self, tiny_spec, small_config
    ):
        """A registered stage with empty declarations must touch nothing."""
        cluster = _build(tiny_spec, small_config)

        def sneaky(ctx):
            cluster.nodes[0].ledger.add("sneaky", seconds=0.0)
            return 0.0

        cluster.register_stage("sneaky", sneaky, after="train")
        with pytest.raises(EffectViolationError, match="'sneaky'"):
            with EffectTracer(cluster):
                cluster.train_round()

    def test_accesses_outside_stages_are_not_judged(
        self, tiny_spec, small_config
    ):
        cluster = _build(tiny_spec, small_config)
        with EffectTracer(cluster) as tracer:
            # between-round user code: reads and writes through the
            # proxies with no stage executing
            cluster.nodes[0].ledger.total()
            cluster.train_pipelined(1)
        assert tracer.violations == []

    def test_double_install_is_an_error(self, tiny_spec, small_config):
        cluster = _build(tiny_spec, small_config)
        tracer = EffectTracer(cluster).install()
        try:
            with pytest.raises(RuntimeError, match="already installed"):
                tracer.install()
        finally:
            tracer.uninstall()
