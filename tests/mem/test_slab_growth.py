"""The MEM cache's slab grows with its residents.

The configured capacity is a policy bound, not an allocation: a cache
starts at ``_MIN_ROWS`` rows and doubles as residents arrive, never past
``lru_capacity + lfu_capacity``.  So the default ``mem_capacity_params``
(``10**9``) builds, and a cluster at that default trains bit-identically
to one whose capacity merely covers its model.

A slab sized by the capacity needs an 8 GB array per int64 field at the
default, so these checks run in a child process whose address space is
capped (``RLIMIT_AS``): such a slab ends there in ``MemoryError``
instead of filling the machine's memory.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import ClusterConfig, ModelSpec
from repro.core.cluster import HPSCluster
from repro.mem.cache import _MIN_ROWS, CombinedCache

#: address space the child may add past what its imports mapped
HEADROOM_BYTES = 1 << 30


def slab_rows(cache: CombinedCache) -> set[int]:
    """Lengths of every slab array (one value when the slab is whole)."""
    arrays = (
        cache._keys, cache._values, cache._tick, cache._freq, cache._ftick,
        cache._count, cache._pinned, cache._dirty, cache._free,
    )
    return {a.shape[0] for a in arrays}


def check_default_cache() -> None:
    cache = CombinedCache(ClusterConfig.mem_capacity_params, value_dim=8)
    assert cache.capacity == 10**9
    assert slab_rows(cache) == {_MIN_ROWS}
    keys = np.arange(3 * _MIN_ROWS, dtype=np.uint64)
    hit, _ = cache.prefetch_resolve(keys)
    assert not hit.any()
    flushed, _, rows = cache.put_batch(keys, np.ones((keys.size, 8), np.float32))
    assert flushed.size == 0 and (rows >= 0).all()
    assert slab_rows(cache) == {4 * _MIN_ROWS}  # doubled twice, once


def check_default_cluster() -> None:
    """Six pipelined rounds at the default capacity and at 80,000 rows —
    where neither cache ever demotes — agree in every statistic, every
    parameter and every cache entry."""
    spec = ModelSpec(
        name="tiny", nonzeros_per_example=8, n_sparse=5_000, n_dense=1_000,
        size_gb=0.001, mpi_nodes=10, embedding_dim=4, hidden_layers=(16, 8),
        n_slots=4,
    )
    config = ClusterConfig(
        n_nodes=2, gpus_per_node=2, minibatches_per_gpu=2,
        hbm_capacity_params=50_000, ssd_file_capacity=128, seed=7,
    )
    assert config.mem_capacity_params == 10**9
    ample = dataclasses.replace(config, mem_capacity_params=80_000)
    clusters = [
        HPSCluster(spec, c, functional_batch_size=192) for c in (config, ample)
    ]
    runs = [c.train_pipelined(6) for c in clusters]
    assert runs[0].stats == runs[1].stats
    assert runs[0].makespan == runs[1].makespan
    probe = clusters[0].generator.batch(10_000, 1024).unique_keys()
    a, b = (c.lookup_embeddings(probe) for c in clusters)
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
    for pa, pb in zip(*(c.nodes[0].model.dense_state() for c in clusters)):
        assert np.array_equal(pa, pb)
    for na, nb in zip(*(c.nodes for c in clusters)):
        sa, sb = na.mem_ps.cache.export_state(), nb.mem_ps.cache.export_state()
        assert sa["lfu_keys"].size == 0 and sa["lru_keys"].size
        for name in sa:
            assert np.array_equal(sa[name], sb[name]), name
        rows, = slab_rows(na.mem_ps.cache)
        assert rows < 2 * max(len(na.mem_ps.cache), _MIN_ROWS)


def _cap_address_space() -> None:
    """Cap this process's address space at what it maps now plus
    :data:`HEADROOM_BYTES`, so a huge allocation raises ``MemoryError``."""
    import resource

    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    limit = mapped + HEADROOM_BYTES
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/statm"
)
@pytest.mark.parametrize("check", ["check_default_cache", "check_default_cluster"])
def test_default_capacity_within_a_capped_address_space(check):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).parents[1]),
        OPENBLAS_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, __file__, check],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]


if __name__ == "__main__":  # the capped child of the test above
    _cap_address_space()
    globals()[sys.argv[1]]()
