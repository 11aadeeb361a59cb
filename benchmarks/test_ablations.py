"""Ablations of the design choices DESIGN.md calls out.

Not paper figures, but each isolates one claim from the text:
  * the 4-stage pipeline hides I/O latency (Section 3, Appendix B);
  * LRU+LFU beats either policy alone on skewed reuse (Appendix D);
  * GPUDirect RDMA beats the CPU-bounce path (Figure 8);
  * the 50%-stale compaction rule bounds disk usage at ~2x (Appendix E);
  * parameter-file size trades I/O amplification vs bandwidth (App. E).
"""

import pathlib
import sys

import numpy as np

from repro.bench.analytical import AnalyticalHPS
from repro.bench.report import format_table
from repro.config import PAPER_MODELS
from repro.hardware.ledger import CostLedger
from repro.hardware.network import Network
from repro.hardware.specs import NetworkSpec, SSDSpec
from repro.hbm.allreduce import SparseUpdate, hierarchical_allreduce
from repro.ssd.compaction import Compactor
from repro.ssd.file_store import FileStore

# The per-key policy classes are test code; make them importable when
# this file is run on its own (the full suite already has tests/ on the
# path).
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from cache_oracles import (  # noqa: E402
    DictCombinedCache,
    DictLFUCache,
    DictLRUCache,
)


def test_ablation_pipeline(benchmark):
    """4-stage pipeline on vs off, paper-scale models."""

    def run():
        return [
            {
                "model": m,
                "pipelined": AnalyticalHPS(PAPER_MODELS[m]).throughput(),
                "serial": AnalyticalHPS(
                    PAPER_MODELS[m], pipelined=False
                ).throughput(),
            }
            for m in "ABCDE"
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["model", "pipelined ex/s", "serial ex/s", "gain"],
            [
                (r["model"], r["pipelined"], r["serial"], r["pipelined"] / r["serial"])
                for r in rows
            ],
            title="Ablation: 4-stage pipeline",
        )
    )
    # Every model gains; the gain is largest where stages are balanced
    # (model C: read ~= pull/push) and smaller when one stage dominates.
    for r in rows:
        assert r["pipelined"] > 1.2 * r["serial"]
    gains = {r["model"]: r["pipelined"] / r["serial"] for r in rows}
    assert gains["C"] == max(gains.values())
    assert gains["C"] > 1.8


def _zipf_stream(n_keys: int, n_accesses: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.random(n_accesses)
    ranks = np.minimum(
        n_keys - 1, np.floor(np.clip(u, 1e-12, None) ** (-1.0 / 0.25))
    ).astype(np.int64)
    rng.shuffle(perm := np.arange(n_keys))
    return perm[ranks]


def test_ablation_cache_policy(benchmark):
    """LRU vs LFU vs the paper's combined policy on a Zipf stream with a
    periodic cold scan (the workload LRU alone handles poorly).

    A *policy* comparison — hit rates of an arbitrary-order per-key
    stream — so it runs on the per-key seed classes of
    ``tests/cache_oracles.py``, which state each policy in a few lines;
    the production ``CombinedCache`` is the same policy specialised to
    the unique-key round traffic ``MemPS`` sends, and is held to these
    classes key for key by the MEM test suite."""

    def run():
        stream = _zipf_stream(5000, 30_000)
        # Inject cold scans every 3000 accesses.
        scans = np.arange(100_000, 100_000 + 500)
        full = []
        for i in range(0, stream.size, 3000):
            full.append(stream[i : i + 3000])
            full.append(scans)
        stream_full = np.concatenate(full)
        results = {}
        val = np.zeros(1, dtype=np.float32)
        for name in ("lru", "lfu", "combined"):
            hits = misses = 0
            if name == "combined":
                cache = DictCombinedCache(600, lru_fraction=0.5, value_dim=1)
                for k in stream_full.tolist():
                    if cache.get(k) is None:
                        cache.put(k, val)
                hits, misses = cache.stats.hits, cache.stats.misses
            else:
                cache = DictLRUCache(600) if name == "lru" else DictLFUCache(600)
                for k in stream_full.tolist():
                    if cache.get(k) is None:
                        misses += 1
                        cache.put(k, val)
                    else:
                        hits += 1
            results[name] = hits / (hits + misses)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["policy", "hit rate"],
            list(results.items()),
            title="Ablation: cache eviction policy (Zipf + cold scans)",
        )
    )
    # The combined policy must not lose to plain LRU, and must beat it
    # when cold scans thrash the recency tier.
    assert results["combined"] > results["lru"]


def test_ablation_rdma(benchmark):
    """GPUDirect RDMA vs the CPU-bounce baseline (Figure 8) on the
    per-mini-batch all-reduce."""

    def run(rdma: bool):
        nets = [Network(NetworkSpec(rdma=rdma), CostLedger()) for _ in range(4)]
        updates = [
            SparseUpdate(
                np.arange(i, 200_000 + i, dtype=np.uint64),
                np.ones((200_000, 8)),
            )
            for i in range(4)
        ]
        return hierarchical_allreduce(updates, networks=nets, gpus_per_node=8)[1]

    t_rdma = benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)
    t_bounce = run(False)
    print(
        "\n"
        + format_table(
            ["path", "all-reduce seconds"],
            [("RDMA (RoCE)", t_rdma), ("CPU bounce", t_bounce)],
            title="Ablation: inter-node communication path",
        )
    )
    assert t_rdma < t_bounce
    # Two extra PCIe crossings at ~12 GB/s vs one NIC pass at 12.5 GB/s:
    # the bounce path should cost ~2-4x.
    assert t_bounce / t_rdma > 1.5


def test_ablation_compaction_threshold(benchmark):
    """Disk-usage bound and write amplification vs compaction threshold."""

    def run():
        rows = []
        for threshold in (1.2, 1.6, 2.0):
            store = FileStore(1, file_capacity=8)
            comp = Compactor(store, usage_threshold=threshold)
            rng = np.random.default_rng(0)
            for _ in range(150):
                keys = np.unique(rng.integers(0, 200, 16)).astype(np.uint64)
                store.write(keys, np.ones((keys.size, 1), dtype=np.float32))
                comp.compact()
            rows.append(
                {
                    "threshold": threshold,
                    "usage_ratio": store.total_bytes / store.live_bytes,
                    "bytes_written": store.device.bytes_written,
                    "compactions": comp.total_compactions,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["threshold", "disk/live ratio", "bytes written", "compactions"],
            [
                (r["threshold"], r["usage_ratio"], r["bytes_written"], r["compactions"])
                for r in rows
            ],
            title="Ablation: compaction usage threshold",
        )
    )
    # Tighter thresholds compact more (write amplification) but bound
    # disk usage lower.
    assert rows[0]["compactions"] >= rows[-1]["compactions"]
    assert rows[0]["bytes_written"] >= rows[-1]["bytes_written"]
    for r in rows:
        assert r["usage_ratio"] <= r["threshold"] + 1.0


def test_ablation_file_size(benchmark):
    """Appendix E: file size trades read amplification vs I/O bandwidth —
    'We tune the file size to obtain the optimal performance.'"""

    def run():
        rng = np.random.default_rng(0)
        all_keys = np.arange(50_000, dtype=np.uint64)
        rows = []
        # Tiny block device so per-file fixed costs matter.
        spec = SSDSpec(seq_read_bandwidth=500e6, block_bytes=4096)
        for cap in (16, 256, 4096):
            store = FileStore(8, file_capacity=cap, ssd_spec=spec)
            store.write(all_keys, np.ones((all_keys.size, 8), dtype=np.float32))
            request = np.unique(rng.choice(all_keys, 2_000, replace=False))
            result = store.read(request)
            useful = request.size * (8 + 32)
            rows.append(
                {
                    "file_capacity": cap,
                    "read_seconds": result.seconds,
                    "amplification": result.bytes_read / useful,
                    "files_read": result.files_read,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + format_table(
            ["file capacity", "read seconds", "amplification", "files read"],
            [
                (r["file_capacity"], r["read_seconds"], r["amplification"], r["files_read"])
                for r in rows
            ],
            title="Ablation: parameter-file size (I/O amplification trade-off)",
        )
    )
    # Bigger files -> fewer reads but more amplification.
    assert rows[0]["files_read"] > rows[-1]["files_read"]
    assert rows[0]["amplification"] < rows[-1]["amplification"]
