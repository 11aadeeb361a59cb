"""The MEM cache's public surface is the traffic that reaches it.

``CombinedCache`` exists for one caller.  This guard drives a pressured
2-node cluster through everything that caller does — every resolve
schedule in both execution modes, serving lookups, full and delta
checkpoints with their restores, a fault-recovery abort, the shutdown
flush — with every public method of the cache counted, and fails when
the two sets drift apart: a public method nothing reaches is dead code
(delete it), and a ``MemPS`` call outside the agreed list is a new
dependency on the cache (justify it here).
"""

import ast
import dataclasses
import functools
import inspect

import pytest

from repro.ckpt.checkpoint import restore_nodes
from repro.core.cluster import HPSCluster, RoundContext
from repro.mem import mem_ps
from repro.mem.cache import CombinedCache

#: what ``MemPS`` and the cluster may call
TRAFFIC = {
    "prefetch_resolve",
    "put_batch",
    "pin_rows",
    "values_at",
    "update_rows",
    "unpin_rows",
    "peek_batch",
    "pinned_count",
    "export_state",
    "export_delta",
    "mark_snapshot",
    "load_state",
    "fold_delta",
}
#: the two shims kept only because the frozen ``benchmarks/hps/micro.py``
#: uses them (``benchmarks/test_hps_micro.py`` runs it): a method and a
#: keyword of ``put_batch``.  Both go at benchmark v2.
SHIM_METHOD = "get_batch"
SHIM_KEYWORD = "assume_unique"


def public_methods(cls) -> set[str]:
    return {
        name
        for name, member in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
    }


@pytest.fixture
def counted(monkeypatch):
    """Count every public ``CombinedCache`` call, with its keywords."""
    calls: dict[str, list[dict]] = {}
    for name in public_methods(CombinedCache):
        original = getattr(CombinedCache, name)

        @functools.wraps(original)
        def wrapper(self, *args, _name=name, _original=original, **kwargs):
            calls.setdefault(_name, []).append(kwargs)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(CombinedCache, name, wrapper)
    return calls


def test_every_public_method_is_reached_by_the_cluster(
    counted, tiny_spec, small_config, tmp_path
):
    pressured = dataclasses.replace(small_config, mem_capacity_params=1_400)
    for prefetch in (False, True):
        cfg = dataclasses.replace(pressured, prefetch=prefetch)
        for pipelined in (False, True):
            cluster = HPSCluster(tiny_spec, cfg, functional_batch_size=192)
            stats = (
                cluster.train_pipelined(16).stats if pipelined else cluster.train(16)
            )
            assert any(s.ssd_io_seconds > 0 for s in stats)  # really pressured
            cluster.predict(cluster.generator.batch(10_000, 256))
    # Full + delta checkpoints, a chain restore, a partial restore.
    cluster.save_checkpoint(str(tmp_path / "s0"))
    cluster.train(2)
    cluster.save_checkpoint(str(tmp_path / "s1"), mode="delta")
    restored = HPSCluster.restore(str(tmp_path / "s1"))
    restore_nodes(restored, str(tmp_path / "s1"), [1])
    # A fault between resolve and load: abort, then retry the round.
    ctx = RoundContext(round_index=restored.rounds_completed)
    restored.stage_read(ctx)
    restored.stage_prefetch(ctx)
    restored.abort_round()
    # (``pinned_count`` is the one method only tests observe through.)
    assert all(n.mem_ps.cache.pinned_count() == 0 for n in restored.nodes)
    restored.train(1)

    reached = set(counted)
    assert reached <= TRAFFIC, f"unlisted cache traffic: {reached - TRAFFIC}"
    unreached = public_methods(CombinedCache) - reached
    assert unreached == {SHIM_METHOD}, f"public but never reached: {unreached}"
    # The cluster inserts pinned and never passes the shim keyword —
    # which is the insert's only keyword besides ``pin``.
    assert all(kw == {"pin": True} for kw in counted["put_batch"])
    assert set(inspect.signature(CombinedCache.put_batch).parameters) == {
        "self", "keys", "values", "pin", SHIM_KEYWORD
    }
    # The delta export takes nothing — the cache holds its own base,
    # taken by ``mark_snapshot`` (reached through every save and restore).
    assert all(kw == {} for kw in counted["export_delta"] + counted["mark_snapshot"])
    assert set(inspect.signature(CombinedCache.export_delta).parameters) == {"self"}


def test_mem_ps_calls_nothing_outside_the_list():
    """Statically: every ``self.cache.<name>`` in ``mem_ps.py`` is listed
    traffic (or the ``stats`` read) — no private attribute, no second
    lookup or insert path."""
    used = set()
    for node in ast.walk(ast.parse(inspect.getsource(mem_ps))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "cache"
        ):
            used.add(node.attr)
    assert used <= TRAFFIC | {"stats"}, used - TRAFFIC
    assert {"prefetch_resolve", "put_batch", "pin_rows"} <= used
