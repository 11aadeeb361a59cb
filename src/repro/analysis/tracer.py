"""Dynamic stage-effect tracing: verify declarations against reality.

:func:`~repro.analysis.effects.check_stage_conflicts` trusts each
stage's *declared* effect sets; this module checks the declarations
themselves.  :class:`EffectTracer` wraps a cluster's stage registry
(:meth:`~repro.core.cluster.HPSCluster.wrap_stages`) to know which stage
is executing, and replaces each node's tier-facing attributes with
transparent recording proxies.  Any access to a resource a stage did not
declare — a write outside its write set, a read outside its read+write
sets — is recorded as a :class:`EffectViolation`, and leaving the
tracer's ``with`` block raises unless the run was clean.

Tracing is *method-call granular and best-effort by design*: components
hold direct references to each other (the MEM tier charges its ledger
internally, peers pull through stored references), and those internal
edges bypass the node-attribute proxies.  That bias is safe — it can
only under-report, never fabricate a violation — and the proxies
delegate every call unchanged, so a traced run returns bit-identical
results to an untraced one (asserted by the pipelined parity tests).

Typical use::

    with EffectTracer(cluster):
        cluster.train_pipelined(4)
    # raises EffectViolationError if any stage exceeded its declaration
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "EffectTracer",
    "EffectViolation",
    "EffectViolationError",
    "DEFAULT_NODE_RESOURCES",
]

#: node attribute -> traced resource name
DEFAULT_NODE_RESOURCES: tuple[tuple[str, str], ...] = (
    ("hdfs", "stream"),
    ("mem_ps", "mem"),
    ("ssd_ps", "ssd"),
    ("hbm_ps", "hbm"),
    ("model", "model"),
    ("dense_optimizer", "model"),
    ("ledger", "ledger"),
)


@dataclass(frozen=True)
class _Classification:
    """Per-resource access classification for proxy members.

    Unknown *method calls* default to ``write`` (mutation until proven
    otherwise); unknown *attribute reads* default to neutral unless the
    attribute is listed as state-bearing.  ``neutral`` members (pure
    configuration like partitioners) are never recorded.
    """

    reads: frozenset[str] = frozenset()
    neutral: frozenset[str] = frozenset()
    state_attrs: frozenset[str] = frozenset()


_CLASSIFY: dict[str, _Classification] = {
    "stream": _Classification(
        reads=frozenset({"transfer_seconds"}),
        state_attrs=frozenset({"batches_read", "bytes_read"}),
    ),
    "mem": _Classification(
        reads=frozenset(
            {
                "owner_of",
                "_admission_snapshot",
                "export_state",
                "export_delta",
            }
        ),
        neutral=frozenset({"partitioner"}),
        state_attrs=frozenset({"cache"}),
    ),
    "ssd": _Classification(
        reads=frozenset({"export_state", "export_delta"}),
        state_attrs=frozenset({"store", "compactor"}),
    ),
    "hbm": _Classification(
        # the transient tier's mark is assert-only (nothing to remember);
        # MEM's and SSD's are writes, by the unknown-method default
        reads=frozenset({"export_state", "export_delta", "mark_snapshot"}),
        # .params / .nvlink expose partitioner + fabric config on the
        # read path; mutation goes through the HBMPS methods.
        neutral=frozenset({"partitioner", "params", "nvlink"}),
    ),
    "model": _Classification(
        reads=frozenset(
            {
                "predict_proba",
                "dense_state",
                "state_dict",
                "get_state",
                "spec",
            }
        ),
        state_attrs=frozenset({"mlp"}),
    ),
    "ledger": _Classification(
        reads=frozenset({"total", "export_state"}),
    ),
}


@dataclass(frozen=True)
class EffectViolation:
    """One access outside the executing stage's declared effect sets."""

    stage: str
    resource: str
    access: str  # "read" | "write"
    member: str  # the method or attribute that was touched

    def __str__(self) -> str:
        return (
            f"stage '{self.stage}' performed an undeclared {self.access} "
            f"of resource '{self.resource}' (via .{self.member})"
        )


class EffectViolationError(RuntimeError):
    """A traced run touched resources outside stage declarations."""

    def __init__(self, violations: tuple[EffectViolation, ...]) -> None:
        self.violations = violations
        lines = "\n  ".join(str(v) for v in violations)
        super().__init__(
            "stage effect declaration(s) violated at runtime:\n  "
            + lines
            + "\n(extend the stage's reads/writes declaration, or stop "
            "touching the resource)"
        )


class _ResourceProxy:
    """Transparent delegate that reports accesses to the tracer."""

    __slots__ = ("_rp_obj", "_rp_resource", "_rp_tracer")

    def __init__(
        self, obj: Any, resource: str, tracer: "EffectTracer"
    ) -> None:
        object.__setattr__(self, "_rp_obj", obj)
        object.__setattr__(self, "_rp_resource", resource)
        object.__setattr__(self, "_rp_tracer", tracer)

    def __getattr__(self, name: str) -> Any:
        obj = object.__getattribute__(self, "_rp_obj")
        resource = object.__getattribute__(self, "_rp_resource")
        tracer = object.__getattribute__(self, "_rp_tracer")
        value = getattr(obj, name)
        spec = _CLASSIFY.get(resource, _Classification())
        if callable(value) and not isinstance(value, type):
            if name in spec.neutral:
                return value
            access = "read" if name in spec.reads else "write"

            def traced_call(*args: Any, **kwargs: Any) -> Any:
                tracer._record(resource, access, name)
                return value(*args, **kwargs)

            traced_call.__name__ = getattr(value, "__name__", name)
            return traced_call
        if name in spec.state_attrs:
            tracer._record(resource, "read", name)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        tracer = object.__getattribute__(self, "_rp_tracer")
        resource = object.__getattribute__(self, "_rp_resource")
        tracer._record(resource, "write", name)
        setattr(object.__getattribute__(self, "_rp_obj"), name, value)


class EffectTracer:
    """Instrument a cluster; fail if a stage exceeds its declaration.

    Accesses outside any stage (user code between rounds, checkpoint
    restores, evaluation) are not judged — the effect contract governs
    pipeline stages only.  Stages registered *after* the tracer is
    installed are unknown to it and traced against empty declarations.
    """

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster
        self.violations: list[EffectViolation] = []
        self._seen: set[EffectViolation] = set()
        self._current: str | None = None
        self._effects: dict[str, tuple[frozenset[str], frozenset[str]]] = {
            spec.name: (spec.reads, spec.writes)
            for spec in cluster.stage_specs()
        }
        self._saved_attrs: list[tuple[Any, str, Any]] = []
        self._installed = False

    # -- recording ------------------------------------------------------
    def _record(self, resource: str, access: str, member: str) -> None:
        stage = self._current
        if stage is None:
            return
        reads, writes = self._effects.get(stage, (frozenset(), frozenset()))
        if resource in writes:
            return  # a declared writer may also read
        if access == "read" and resource in reads:
            return
        violation = EffectViolation(stage, resource, access, member)
        if violation not in self._seen:
            self._seen.add(violation)
            self.violations.append(violation)

    def _wrap(
        self, name: str, fn: Callable[[Any], float]
    ) -> Callable[[Any], float]:
        def traced_stage(ctx: Any) -> float:
            previous = self._current
            self._current = name
            try:
                return fn(ctx)
            finally:
                self._current = previous

        return traced_stage

    # -- lifecycle ------------------------------------------------------
    def install(self) -> "EffectTracer":
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self.cluster.wrap_stages(self._wrap)
        for node in self.cluster.nodes:
            for attr, resource in DEFAULT_NODE_RESOURCES:
                original = getattr(node, attr)
                self._saved_attrs.append((node, attr, original))
                setattr(node, attr, _ResourceProxy(original, resource, self))
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        for node, attr, original in reversed(self._saved_attrs):
            setattr(node, attr, original)
        self._saved_attrs.clear()
        self.cluster.unwrap_stages()
        self._installed = False

    def verify(self) -> None:
        """Raise :class:`EffectViolationError` if the run was dirty."""
        if self.violations:
            raise EffectViolationError(tuple(self.violations))

    def __enter__(self) -> "EffectTracer":
        return self.install()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.uninstall()
        if exc_type is None:
            self.verify()
