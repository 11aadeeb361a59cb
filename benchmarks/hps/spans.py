"""Span recorder for the traced pass — instrumentation from the
benchmark's side of every layer boundary, nothing inside ``src/``.

A span is ``(name, start, end, parent, round, node, count)`` kept on a
stack in memory and written out as JSONL when the pass ends.  Names are
``<layer>.<op>``; a layer's *self* time is its spans' duration minus the
part their child spans cover, so the per-layer self times of a traced
segment sum to its wall time by construction.

Wrappers are instance attributes on the cluster's own objects (plus the
three module-level names ``repro.core.cluster`` resolves at call time),
installed by :func:`instrument` and removed by the function it returns.
"""

from __future__ import annotations

import json
import time
from typing import Callable

import repro.core.cluster as cluster_module

__all__ = ["Tracer", "instrument", "self_seconds"]

_perf = time.perf_counter


class Tracer:
    """In-memory span stack."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, round, node, count]`` per span, in
        #: start order (a parent always precedes its children)
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: round the engine is currently firing stages for (-1 outside)
        self.round = -1

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        node: int = -1,
        count: Callable[..., int] | None = None,
        skip_under: str | None = None,
    ) -> Callable:
        """``fn`` recorded as a span called ``name``.

        ``count(*args, **kwargs)`` is the work the call did (keys, bytes),
        taken at the boundary so ratios are measured where the work
        happens.  ``skip_under`` names a parent span under which the
        call passes through unrecorded.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if skip_under is not None and self.current() == skip_under:
                return fn(*args, **kwargs)
            n = count(*args, **kwargs) if count is not None else 0
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, node, n]
            stack.append(len(spans))
            spans.append(record)
            record[1] = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = _perf()
                stack.pop()

        return traced

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "round", "node", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_seconds(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    out = [end - start for _name, start, end, *_ in spans]
    for _name, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _size_of_first(keys, *args, **kwargs) -> int:
    return int(keys.size)


def _sparse_bytes(node_updates, **kwargs) -> int:
    return int(sum(u.nbytes() for u in node_updates))


def _dense_bytes(node_grads, **kwargs) -> int:
    return int(sum(4 * g.size for grads in node_grads for g in grads))


def instrument(cluster, tracer: Tracer) -> Callable[[], None]:
    """Install span wrappers around every layer boundary of ``cluster``.

    Returns the function that removes them again (instance attributes
    deleted, module names and the stage registry restored).
    """
    patched: list[tuple[object, str]] = []

    def patch(obj, attr: str, name: str, node: int = -1, **kw) -> None:
        setattr(obj, attr, tracer.wrap(name, getattr(obj, attr), node=node, **kw))
        patched.append((obj, attr))

    for node in cluster.nodes:
        i = node.node_id
        patch(node.hdfs, "read", "data.hdfs_read", i)
        mem = node.mem_ps
        patch(mem, "prefetch", "mem.prefetch", i)
        patch(mem, "prepare", "mem.prepare", i)
        patch(mem, "serve_remote", "mem.serve_remote", i)
        patch(mem, "apply_gradients", "mem.apply_gradients", i)
        patch(mem, "absorb_updates", "mem.absorb_updates", i)
        patch(mem, "end_batch", "mem.end_batch", i)
        patch(mem.cache, "peek_batch", "mem.peek", i, count=_size_of_first)
        ssd = node.ssd_ps
        patch(ssd, "load", "ssd.load", i, count=_size_of_first)
        patch(ssd, "dump", "ssd.dump", i, count=_size_of_first)
        # Training reads go through ssd.load; a store.read outside it is
        # the serving path (lookup_embeddings falling through MEM).
        patch(
            ssd.store,
            "read",
            "ssd.store_read",
            i,
            count=_size_of_first,
            skip_under="ssd.load",
        )
        patch(ssd.compactor, "compact", "ssd.compact", i)
        hbm = node.hbm_ps
        patch(hbm, "load_working_set", "hbm.load_working_set", i)
        patch(hbm, "pull_embeddings", "hbm.pull", i)
        patch(hbm, "push_gradients", "hbm.push", i)
        patch(hbm, "drain_gradients", "hbm.drain", i)
        patch(hbm, "apply_update", "hbm.apply_update", i)
        patch(hbm, "dump", "hbm.dump", i)
        patch(node.model, "train_minibatch", "nn.train_minibatch", i)
        patch(node.model, "predict_proba", "nn.predict_proba", i)
        patch(node.dense_optimizer, "step", "nn.dense_step", i)

    # The snapshot stage saves through the cluster's own method.
    patch(cluster, "save_checkpoint", "ckpt.save")

    # Names stage_read / stage_train look up in their module at call time.
    module_names = {
        "build_round_plan": ("plan.build", None),
        "hierarchical_allreduce": ("hbm.allreduce", _sparse_bytes),
        "allreduce_dense": ("hbm.allreduce", _dense_bytes),
    }
    originals = {name: getattr(cluster_module, name) for name in module_names}
    for attr, (name, count) in module_names.items():
        setattr(
            cluster_module, attr, tracer.wrap(name, originals[attr], count=count)
        )

    def wrap_stage(stage_name: str, fn):
        traced = tracer.wrap(f"core.stage_{stage_name}", fn)

        def stage(ctx):
            tracer.round = ctx.round_index
            try:
                return traced(ctx)
            finally:
                tracer.round = -1

        return stage

    cluster.wrap_stages(wrap_stage)

    def remove() -> None:
        cluster.unwrap_stages()
        for attr, fn in originals.items():
            setattr(cluster_module, attr, fn)
        for obj, attr in patched:
            delattr(obj, attr)

    return remove
