"""Paper-scale analytical timing model for the hierarchical PS.

The functional simulator runs scaled-down models end-to-end; this module
prices the *paper-scale* workloads (Table 3: 10^10–10^11 keys, 4M-example
batches) through the same cost structure without materializing them:

* expected working-set sizes come from the Zipf unique-count integral
  (:mod:`repro.utils.stats`) — the same popularity law the generator uses;
* stage times follow the identical accounting as the functional layer
  (HDFS read / MEM+SSD pull-push / HBM+GPU train), so Figures 3(a,c),
  4(a,b) and Table 4 fall out of one model;
* every hardware term is the :mod:`repro.hardware.specs` price the devices
  charge, on *expected* work; *effective-efficiency* constants (documented
  on the class) derate the specs' rates for what a byte-level simulator
  cannot see: RPC serialization, mixed read/write, kernel efficiency.

Named differences from the functional clock:

* SSD padding: the expected traffic is one byte count, padded to blocks
  once, not per file (``file_amplification`` stands for whole-file I/O).
* FLOPs: :attr:`~repro.config.ModelSpec.train_flops_per_example`, not
  the layer-shape count :func:`~repro.hardware.gpu.dense_flops_per_example`.
* Per-key CPU: ``remote_key_overhead_s`` / ``serve_key_overhead_s``; the
  functional MEM-PS charges none.
* Remote-pull bytes: key + ``bytes_per_sparse_param`` per key; the
  functional MEM-PS ships request key + key + embedding row.
* All-reduce: every exchange step moves the whole union; the functional
  steps move the true partials (a fold step one node's keys).

The reproduction claim is about **shape**: which stage dominates per
model, who wins by roughly what factor, where crossovers fall.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config import ModelSpec
from repro.hardware.specs import NodeHardware, default_node_hardware, derated
from repro.hbm.allreduce import exchange_steps, tree_rounds
from repro.utils.stats import expected_unique_zipf

__all__ = ["AnalyticalHPS", "HPSBatchTime"]


@dataclass(frozen=True)
class HPSBatchTime:
    """Per-batch stage decomposition (Fig. 3(c) categories)."""

    read_seconds: float
    pull_local_seconds: float
    pull_remote_seconds: float
    dump_seconds: float
    hbm_pull_seconds: float
    hbm_push_seconds: float
    gpu_train_seconds: float
    allreduce_seconds: float

    @property
    def pull_push_seconds(self) -> float:
        """MEM-PS + SSD-PS stage: local and remote pulls run in parallel,
        dumps serialize behind them."""
        pull = max(self.pull_local_seconds, self.pull_remote_seconds)
        return pull + self.dump_seconds

    @property
    def train_seconds(self) -> float:
        """HBM-PS stage: per-mini-batch pull + compute + push + sync."""
        return (
            self.hbm_pull_seconds
            + self.hbm_push_seconds
            + self.gpu_train_seconds
            + self.allreduce_seconds
        )

    @property
    def bottleneck_seconds(self) -> float:
        """Pipelined (steady-state) batch latency — the slowest stage."""
        return max(self.read_seconds, self.pull_push_seconds, self.train_seconds)

    @property
    def serial_seconds(self) -> float:
        """Unpipelined latency (the pipeline ablation baseline)."""
        return self.read_seconds + self.pull_push_seconds + self.train_seconds


class AnalyticalHPS:
    """Closed-form batch timing for an ``n_nodes``-node HPS deployment.

    Calibration constants (effective efficiencies)
    ----------------------------------------------
    log_bytes_per_example:
        Raw click-log footprint per example.  Production logs carry the
        full feature text regardless of which model consumes them, which
        is why Fig. 3(c)'s read stage is ~flat across models.
    remote_key_overhead_s:
        Per-key CPU cost on the remote-pull path (hash, serialize, RPC
        framing, deserialize) — dominates small-value transfers.
    ssd_efficiency:
        Fraction of sequential SSD bandwidth (read and write) achieved
        under the mixed read/write + compaction traffic of a batch.
    file_amplification:
        Bytes read per useful byte (whole-file I/O unit, Appendix E).
    gpu_efficiency:
        Achieved fraction of nominal GPU FLOPs on small CTR MLPs.
    minibatch_examples:
        Mini-batch size per GPU worker (paper: "thousands of examples").
    """

    log_bytes_per_example = 5700.0
    remote_key_overhead_s = 1.5e-7
    #: Owner-side CPU/SSD cost per key served to a *remote* node's pull —
    #: this is what bends Fig. 5(b) below the ideal line (zero at 1 node).
    serve_key_overhead_s = 2.0e-7
    ssd_efficiency = 0.045
    file_amplification = 4.0
    gpu_efficiency = 0.035
    #: Hash-table probes are random HBM accesses with atomics, achieving a
    #: small fraction of the streaming bandwidth (open addressing touches
    #: scattered cache lines; cuDF maps measure similar ratios).
    hbm_table_efficiency = 0.002
    minibatch_examples = 8192.0
    #: fraction of the 1 TB node memory the MEM-PS cache may use (the rest
    #: holds pinned working sets, buffers, and the 4-stage pipeline queues).
    cache_memory_fraction = 0.3

    def __init__(
        self,
        spec: ModelSpec,
        *,
        n_nodes: int = 4,
        batch_size: int = 4_000_000,
        hardware: NodeHardware | None = None,
        zipf_exponent: float = 1.05,
        cache_hit_rate: float | None = None,
        pipelined: bool = True,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.spec = spec
        self.n_nodes = n_nodes
        self.batch_size = batch_size
        self.hw = hardware or default_node_hardware()
        self.zipf_exponent = zipf_exponent
        self._cache_hit_rate = cache_hit_rate
        self.pipelined = pipelined

    # ------------------------------------------------------------------
    @property
    def value_bytes(self) -> float:
        return self.spec.bytes_per_sparse_param

    def _unique(self, draws: float) -> float:
        """E[unique keys] among ``draws`` Zipf draws from the key space."""
        return expected_unique_zipf(draws, self.spec.n_sparse, self.zipf_exponent)

    def cache_hit_rate(self) -> float:
        """Steady-state MEM-PS working-set hit rate.

        The cache retains roughly the last ``h`` batches' working sets,
        where ``h = cache_params / E[unique per batch]``; a new batch's hit
        rate is the expected overlap of its working set with that history
        window:  ``(U(h·d) + U(d) − U((h+1)·d)) / U(d)``.

        This is what makes the hit rate *fall* with model size (Fig. 4(c)):
        model A (300 GB) fits its hot set in the 1 TB memory (hit ≈ 0.8)
        while model E (10 TB) retains only ~15 batches of history
        (hit ≈ 0.47 — the paper measures 46%).
        """
        if self._cache_hit_rate is not None:
            return self._cache_hit_rate
        d = self.batch_size * self.spec.nonzeros_per_example
        u1 = self._unique(d)
        cache_bytes = self.cache_memory_fraction * self.hw.cpu.memory_bytes
        h = max(1.0, cache_bytes / self.value_bytes / u1)
        u_h, u_h1 = self._unique(h * d), self._unique((h + 1) * d)
        return float(np.clip((u_h + u1 - u_h1) / u1, 0.0, 1.0))

    # ------------------------------------------------------------------
    def effective_hardware(self) -> NodeHardware:
        """The specs with each efficiency constant derating its rates."""
        hw, ssd, gpu = self.hw, self.ssd_efficiency, self.gpu_efficiency
        return replace(
            hw,
            ssd=derated(hw.ssd, seq_read_bandwidth=ssd, seq_write_bandwidth=ssd),
            gpu=derated(hw.gpu, flops=gpu, hbm_bandwidth=self.hbm_table_efficiency),
        )

    def batch_time(self) -> HPSBatchTime:
        spec = self.spec
        hw = self.effective_hardware()
        B = self.batch_size
        n = self.n_nodes

        # --- stage 1: HDFS read --------------------------------------
        read_s = hw.hdfs.transfer_seconds(B * self.log_bytes_per_example)

        # --- stage 2: MEM-PS / SSD-PS pull + dump --------------------
        hit = self.cache_hit_rate()
        draws = B * spec.nonzeros_per_example  # one node's batch
        owned_per_node = self._unique(n * draws) / n
        ssd_loads = owned_per_node * (1.0 - hit)
        rec_bytes = 8 + self.value_bytes
        # The SSD serializes loads (amplified whole-file reads) with the
        # dump of evicted updated parameters.  Serving peers' pulls costs
        # the owner per-key CPU on top of its own loads.
        served_keys = owned_per_node * (n - 1) / max(n, 1) if n > 1 else 0.0
        pull_local_s = (
            hw.ssd.read_seconds(ssd_loads * rec_bytes * self.file_amplification)
            + served_keys * self.serve_key_overhead_s
        )
        dump_s = hw.ssd.write_seconds(ssd_loads * rec_bytes)
        # One pull per peer, as the MEM-PS sends them.
        remote_keys = self._unique(draws) * (n - 1) / n if n > 1 else 0.0
        pull_remote_s = (
            hw.network.transfer_seconds(remote_keys * rec_bytes, n - 1)
            + remote_keys * self.remote_key_overhead_s
        )

        # --- stage 3: HBM-PS + GPU training ---------------------------
        gpus = hw.gpus_per_node
        mb = self.minibatch_examples
        n_rounds = max(1.0, B / (gpus * mb))
        mb_draws = mb * spec.nonzeros_per_example
        u_mb = self._unique(mb_draws)
        # Pull: a table op over the unique keys, and key + row of the
        # (gpus-1)/gpus remote share over NVLink, one message per peer GPU;
        # the GPUs pull in parallel, so a round costs one worker's pull.
        value_bytes = 4.0 * spec.embedding_dim
        emb_bytes = 8 + value_bytes
        remote_bytes = u_mb * (gpus - 1) / gpus * emb_bytes
        table = hw.gpu.hashtable_seconds(u_mb, value_bytes)
        pull_round = table + hw.nvlink.transfer_seconds(remote_bytes, gpus - 1)
        compute_round = hw.gpu.compute_seconds(mb * spec.train_flops_per_example)

        # All-reduce of the global mini-batch union's gradients: the
        # collectives' exchange steps across nodes, each moving the whole
        # union (one flow per GPU), then the NVLink tree.
        sync_bytes = self._unique(n * gpus * mb_draws) * emb_bytes
        ar_round = len(exchange_steps(n)) * hw.network.transfer_seconds(
            sync_bytes, gpus
        ) + tree_rounds(gpus) * hw.nvlink.transfer_seconds(sync_bytes / gpus)

        return HPSBatchTime(
            read_seconds=read_s,
            pull_local_seconds=pull_local_s,
            pull_remote_seconds=pull_remote_s,
            dump_seconds=dump_s,
            hbm_pull_seconds=n_rounds * pull_round,
            hbm_push_seconds=n_rounds * pull_round,  # symmetric: gradients back
            gpu_train_seconds=n_rounds * compute_round,
            allreduce_seconds=n_rounds * ar_round,
        )

    # ------------------------------------------------------------------
    def batch_seconds(self) -> float:
        t = self.batch_time()
        return t.bottleneck_seconds if self.pipelined else t.serial_seconds

    def throughput(self) -> float:
        """Cluster examples/second (Fig. 3(a) / Fig. 5(b) y-axis)."""
        return self.n_nodes * self.batch_size / self.batch_seconds()
