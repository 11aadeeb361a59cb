"""The distributed hierarchical parameter server cluster.

:class:`HPSCluster` instantiates ``n_nodes`` :class:`~repro.core.node.HPSNode`
objects and drives the full Algorithm 1 training workflow across nodes.
The workflow is factored into four independently-callable stage
functions (:meth:`HPSCluster.stage_read`, :meth:`~HPSCluster.stage_prepare`,
:meth:`~HPSCluster.stage_load`, :meth:`~HPSCluster.stage_train`), held
with any registered extras in one stage registry.  One round loop drives
the registry — every stage once per round, in registry order, each
returned duration checked and recorded — and the two execution modes
differ only in the clock they read off it:

* **lockstep** (:meth:`HPSCluster.train_round` / :meth:`HPSCluster.train`)
  prices the stages back-to-back per round;
* **pipelined** (:meth:`HPSCluster.train_pipelined`) hands the recorded
  stage-time matrix to :func:`~repro.core.pipeline.schedule`, which
  overlaps consecutive rounds' stages under bounded prefetch queues.  The
  work and its order are the loop's either way, so trained parameters
  are bit-identical to lockstep.

Every cluster registers one pipeline shape, Algorithm 1's ``read →
prepare → load → train`` (plus ``snapshot`` when enabled); the MEM
resolve always runs at the head of ``prepare``.

One round performs:

1.  every node streams its own batch from HDFS (data parallel);
2.  every MEM-PS owner resolves the round's keys it owns from its cache
    or SSD-PS and fills them into the round array — one row per distinct
    key of the round — which is how each node gathers its batch's working
    parameters from local and remote MEM-PS;
3.  working parameters are partitioned across the node's GPUs and staged
    in the HBM-PS, as a view of the round array;
4.  the batch is sharded into mini-batches; per mini-batch each GPU worker
    pulls embeddings, runs forward/backward, pushes gradients back
    (Algorithm 2), and the cluster synchronizes with the hierarchical
    all-reduce and applies the merged update to the round array once
    before the next mini-batch — eliminating staleness;
5.  after the last mini-batch every MEM-PS owner writes its rows of the
    round array back and dumps cache overflow to the SSD-PS.

Every step reports simulated seconds; :class:`BatchStats` aggregates them
into the exact stage decomposition the paper's Figures 3(c), 4(a) and 4(b)
plot.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.config import ClusterConfig, ModelSpec, check_count
from repro.data.batching import Batch
from repro.data.generator import CTRDataGenerator
from repro.data.hdfs import TimedBatch
from repro.hardware.gpu import dense_flops_per_example
from repro.hbm.allreduce import (
    DenseGradAccumulator,
    allreduce_dense,
    hierarchical_allreduce,
)
from repro.core.node import HPSNode
from repro.core.pipeline import (
    PipelineSchedule,
    StageSpec,
    schedule,
    stage_duration,
)
from repro.nn.model import Shard
from repro.nn.optim import SparseAdagrad
from repro.plan import RoundPlan, build_round_plan
from repro.utils.keys import as_keys, check_key_cap, compact_unique
from repro.utils.rows import put_rows, take_rows

if TYPE_CHECKING:
    from repro.ckpt.checkpoint import CheckpointStats

__all__ = [
    "HPSCluster",
    "BatchStats",
    "RoundContext",
    "PipelinedRun",
    "StageSpec",
    "PIPELINE_STAGE_NAMES",
]

#: Executor-stage names, in Algorithm 1 order.
PIPELINE_STAGE_NAMES = ("read", "prepare", "load", "train")

#: A stage function: performs one round's work for its stage against the
#: shared :class:`RoundContext` and returns its simulated seconds.
StageFn = Callable[["RoundContext"], float]


def _weak_stage(method: StageFn) -> StageFn:
    """A cluster's bound stage method as a stage function holding the
    cluster weakly: the registry lives on the cluster, and a cycle would
    keep a dropped cluster's slabs alive until a full garbage collection."""
    ref = weakref.WeakMethod(method)

    def stage(ctx: RoundContext) -> float:
        bound = ref()
        assert bound is not None, "a stage runs only while its cluster lives"
        return bound(ctx)

    return stage


@dataclass
class BatchStats:
    """Timing decomposition of one global training round.

    Stage semantics follow Fig. 3(c): ``read_seconds`` is the HDFS stage,
    ``pull_push_seconds`` the MEM-PS/SSD-PS stage, ``train_seconds`` the
    HBM-PS + GPU stage.  All are cluster critical-path values (max over
    nodes, since nodes run in parallel).
    """

    round_index: int
    read_seconds: float
    #: network time of the remote MEM pulls (the local partition is a row
    #: gather on rows the resolve loaded — see :attr:`prefetch_seconds`)
    pull_remote_seconds: float
    cpu_partition_seconds: float
    hbm_pull_seconds: float
    hbm_push_seconds: float
    gpu_train_seconds: float
    allreduce_seconds: float
    train_seconds: float
    ssd_io_seconds: float
    cache_hit_rate: float
    n_working_params: int
    n_examples: int
    mean_loss: float
    compactions: int = 0
    #: dense slab passes the MEM caches applied, summed over nodes (one
    #: per non-empty tier segment of a resolve, one per insert)
    cache_admission_runs: int = 0
    #: always 0 (the run-cutting admission engine and the whole-batch
    #: per-key replay they counted are gone); kept because the frozen
    #: ``benchmarks/hps/onepass.py`` reads both — drop at benchmark v2
    cache_collision_splits: int = 0
    cache_scalar_fallbacks: int = 0
    #: seconds the once-per-round MEM resolve at the head of prepare spent
    #: loading the round's working set from SSD and dumping overflow
    #: (slowest node); part of :attr:`pull_push_seconds`
    prefetch_seconds: float = 0.0

    @property
    def pull_push_seconds(self) -> float:
        """MEM/SSD stage total: the resolve + the remote pulls."""
        return self.prefetch_seconds + self.pull_remote_seconds

    @property
    def pipeline_stage_seconds(self) -> tuple[float, float, float, float]:
        """The four Algorithm 1 stage durations of this round.

        Matches the base registry's stage split (HDFS read, MEM/SSD
        prepare with the MEM resolve at its head, CPU partition + HBM
        load, GPU train/sync/write-back).  Summing all four gives the
        round's serial makespan.
        """
        return (
            self.read_seconds,
            self.pull_push_seconds,
            self.cpu_partition_seconds,
            self.train_seconds,
        )


@dataclass
class RoundContext:
    """Mutable state threaded through one round's stage functions.

    Each stage function reads its predecessors' outputs from the context
    and records its own.  The lockstep and pipelined paths drive the exact
    same stage functions over the same contexts — identical work in an
    identical order — and differ only in the clock model, which is what
    makes pipelined training bit-identical to lockstep.
    """

    round_index: int
    # stage 1: HDFS read
    timed: list[TimedBatch] = field(default_factory=list)
    read_seconds: float = 0.0
    #: the round's key plan (computed once in stage_read; every later
    #: stage consumes its precomputed indices)
    plan: RoundPlan | None = None
    # stage 2: MEM-PS/SSD-PS prepare, headed by the MEM working-set resolve
    prefetch_seconds: float = 0.0
    #: the round array: one value row per round-local code, filled by the
    #: MEM owners, staged (as a view) by every node's HBM-PS, updated
    #: once per sync round and written back by the owners
    values: np.ndarray | None = None
    pull_remote_seconds: float = 0.0
    # stage 3: CPU partition + HBM working-set staging
    cpu_partition_seconds: float = 0.0
    # per-round accounting snapshots (taken by the MEM resolve)
    cache_stats_before: list[tuple[int, int]] = field(default_factory=list)
    admission_before: list[int] = field(default_factory=list)
    compactions_before: int = 0
    ssd_before: list[float] = field(default_factory=list)
    # stage 4 output: the round's aggregated stats
    stats: BatchStats | None = None


@dataclass(frozen=True)
class PipelinedRun:
    """One :meth:`HPSCluster.train_pipelined` call.

    The per-round :class:`BatchStats` (identical to what lockstep would
    report) plus the overlapped :class:`PipelineSchedule` of their
    stage-time matrix.
    """

    stats: list[BatchStats]
    schedule: PipelineSchedule

    @property
    def engine_run(self) -> "PipelinedRun":
        """This run: the frozen ``benchmarks/hps/onepass.py`` reads the
        clock through ``run.engine_run`` — drop at benchmark v2."""
        return self

    @property
    def stage_times(self) -> np.ndarray:
        """Measured per-round durations, shape ``(n_rounds, n_stages)``."""
        return self.schedule.stage_times

    @property
    def makespan(self) -> float:
        """Simulated time of the overlapped execution."""
        return self.schedule.makespan

    @property
    def serial_makespan(self) -> float:
        """What the same rounds would have cost run back-to-back."""
        return self.schedule.serial_makespan

    # The two queries engine_run's frozen reader calls besides the above.
    def queue_stall_seconds(self, stage: int) -> float:
        return self.schedule.queue_stall_seconds(stage)

    def shadow_idle_seconds(self, stage: int) -> float:
        return self.schedule.shadow_idle_seconds(stage)

    @property
    def n_examples(self) -> int:
        return sum(s.n_examples for s in self.stats)

    def throughput(self) -> float:
        """Examples per pipelined second."""
        return self.n_examples / self.makespan if self.makespan else 0.0


class HPSCluster:
    """Multi-node distributed hierarchical GPU parameter server."""

    def __init__(
        self,
        model_spec: ModelSpec,
        cluster_config: ClusterConfig,
        *,
        functional_batch_size: int = 4096,
        zipf_exponent: float = 1.05,
    ) -> None:
        functional_batch_size = check_count(
            "functional_batch_size", functional_batch_size
        )
        check_key_cap(
            model_spec.n_sparse - 1,
            f"model {model_spec.name!r} (n_sparse={model_spec.n_sparse})",
        )
        self.model_spec = model_spec
        self.config = cluster_config
        self.sparse_optimizer = SparseAdagrad(model_spec.embedding_dim)
        self.generator = CTRDataGenerator(
            model_spec, seed=cluster_config.seed, zipf_exponent=zipf_exponent
        )
        self.functional_batch_size = functional_batch_size
        self.nodes = [
            self._make_node(i) for i in range(cluster_config.n_nodes)
        ]
        self.rounds_completed = 0
        self.history: list[BatchStats] = []
        #: reused float32 dense-gradient buffers (one accumulator per node
        #: plus one for the cross-node sum) — no per-mini-batch temporaries
        self._node_dense_acc = [
            DenseGradAccumulator() for _ in range(cluster_config.n_nodes)
        ]
        self._dense_sum_acc = DenseGradAccumulator()
        #: Rounds whose working parameters are currently staged in HBM
        #: (between stage_load and the end of stage_train).  Non-zero
        #: means cross-tier reads and checkpoints are unsafe — freshly
        #: trained values may exist only in the round array HBM stages.
        self._staged_rounds = 0
        #: Cost accounting of the restore that produced this cluster
        #: (set by :meth:`restore`; None for a freshly built cluster).
        self.restore_stats = None
        #: The chain link to the last committed snapshot — what a delta
        #: checkpoint names as its base: ``{directory, rounds,
        #: manifest_sha256, chain_length}`` (the tiers hold the diff bases
        #: themselves).
        #: Maintained by :mod:`repro.ckpt.checkpoint`; None until a full
        #: save/restore.
        self._ckpt_base: dict[str, Any] | None = None
        #: Every snapshot this cluster committed, oldest first: directory
        #: (abspath) → its delta base's directory, or None for a full one.
        #: A restore adds nothing — the snapshot stage prunes only these.
        self._ckpt_written: dict[str, str | None] = {}
        #: wrapped spec → original spec, held while :meth:`wrap_stages`
        #: instrumentation is installed (None = not wrapped)
        self._unwrapped_stages: dict[StageSpec, StageSpec] | None = None
        #: cluster-level fault guard for the cross-node collectives
        #: (:class:`repro.faults.policy.FaultArm`, installed by
        #: :meth:`repro.faults.inject.FaultInjection.attach`; None =
        #: fault-free)
        self._fault_arm: Any | None = None
        #: the pipeline's stages (:class:`StageSpec`: name, closure), in
        #: execution order.  The four Algorithm 1 stages are fixed;
        #: optional stages splice in via :meth:`register_stage` — the
        #: round loop of both execution modes drives whatever the
        #: registry holds, so a registered stage is automatically
        #: executed, scheduled, and instrumented.  The cluster's own
        #: stages hold it weakly (:func:`_weak_stage`).
        self._stage_defs: list[StageSpec] = [
            StageSpec(name, _weak_stage(getattr(self, f"stage_{name}")))
            for name in PIPELINE_STAGE_NAMES
        ]

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    def _make_node(self, node_id: int) -> HPSNode:
        """Build one fresh node from the cluster's construction recipe.

        Used at construction and to spawn the replacement nodes of a
        restore in place (:func:`~repro.ckpt.checkpoint.restore_nodes`, the
        supervisor's full recovery) — a replacement must be built exactly like the
        original so restored state lands on an identical substrate.
        """
        return HPSNode(
            node_id,
            self.model_spec,
            self.config,
            self.sparse_optimizer,
            self.generator,
            functional_batch_size=self.functional_batch_size,
        )

    # ------------------------------------------------------------------
    # Algorithm 1 as four independently-callable pipeline stages.  One
    # round loop (_run_rounds) drives them for both modes; lockstep
    # prices them back-to-back, pipelined overlaps consecutive rounds
    # on the clock computed from the recorded stage times.
    # ------------------------------------------------------------------
    def stage_functions(self) -> tuple[tuple[str, StageFn], ...]:
        """The pipeline stages as ``(name, fn(ctx) -> seconds)`` pairs.

        The base Algorithm 1 stages plus anything spliced in via
        :meth:`register_stage`, in execution order.
        """
        return tuple((s.name, s.fn) for s in self._stage_defs)

    def _stage_slot(self, name: str, after: str) -> int:
        """Where :meth:`register_stage` would splice ``name`` (right after
        ``after``); ``ValueError`` for a taken name or an unknown
        ``after``."""
        names = [s.name for s in self._stage_defs]
        if name in names:
            raise ValueError(f"stage {name!r} is already registered")
        if after not in names:
            raise ValueError(f"cannot register after unknown stage {after!r}")
        return names.index(after) + 1

    def register_stage(self, name: str, fn: StageFn, *, after: str) -> None:
        """Splice stage ``name`` into the pipeline right after ``after``.

        Stage functions share the uniform ``fn(ctx) -> seconds``
        signature; the round loop of both modes and the bench harness's
        instrumentation all iterate the registry, so a registered stage
        needs no further wiring anywhere.  The loop runs every stage of
        round ``b`` before any stage of round ``b + 1``, so a stage sees
        the tiers exactly as the stages before it left them.
        """
        self._stage_defs.insert(self._stage_slot(name, after), StageSpec(name, fn))

    def unregister_stage(self, name: str) -> None:
        """Remove a stage spliced in via :meth:`register_stage`.

        The four base Algorithm 1 stages are structural and cannot be
        removed; unregistering a name that is not in the registry is an
        error (it usually means a typo, not a no-op).
        """
        if name in PIPELINE_STAGE_NAMES:
            raise ValueError(
                f"stage {name!r} is a base stage of this pipeline and "
                "cannot be unregistered"
            )
        names = [s.name for s in self._stage_defs]
        if name not in names:
            raise ValueError(f"stage {name!r} is not registered")
        del self._stage_defs[names.index(name)]

    def wrap_stages(self, wrap: Callable[[str, StageFn], StageFn]) -> None:
        """Replace every stage fn with ``wrap(name, fn)`` in the registry.

        Instrumentation hook: the bench harness wraps each stage with a
        wall-clock accumulator.  Both execution modes drive the
        registry, so wrappers installed here are driven everywhere a
        stage runs.  Re-wrapping already-wrapped stages would
        double-count (and strand the originals), so it is an error —
        call :meth:`unwrap_stages` first.
        """
        if self._unwrapped_stages is not None:
            raise RuntimeError(
                "stages are already wrapped — call unwrap_stages() before "
                "installing another wrapper"
            )
        wrapped = [StageSpec(s.name, wrap(s.name, s.fn)) for s in self._stage_defs]
        self._unwrapped_stages = dict(zip(wrapped, self._stage_defs))
        self._stage_defs = wrapped

    def unwrap_stages(self) -> None:
        """Drop :meth:`wrap_stages` instrumentation from the *current*
        registry: every stage still carrying a wrapper gets its original
        back; a stage registered while wrapped stays as it is, and one
        unregistered while wrapped stays gone.
        """
        if self._unwrapped_stages is None:
            raise RuntimeError("stages are not wrapped")
        originals = self._unwrapped_stages
        self._stage_defs = [originals.get(s, s) for s in self._stage_defs]
        self._unwrapped_stages = None

    @staticmethod
    def _plan_of(ctx: RoundContext) -> RoundPlan:
        plan = ctx.plan
        assert plan is not None, "stage_read builds the round plan"
        return plan

    def stage_read(self, ctx: RoundContext) -> float:
        """Stage 1 — HDFS read (Alg. 1 line 2); data-parallel per node.

        This stage also computes the round's
        :class:`~repro.plan.RoundPlan` — the only place key metadata
        (unique sets, owner partitions, shard unions) is derived; every
        later stage consumes the plan's precomputed index arrays.
        """
        r = ctx.round_index
        ctx.timed = [
            n.hdfs.read(r * self.n_nodes + n.node_id) for n in self.nodes
        ]
        ctx.read_seconds = max(t.read_seconds for t in ctx.timed)
        ctx.plan = build_round_plan(
            [t.batch for t in ctx.timed],
            node_partitioner=self.nodes[0].mem_ps.partitioner,
            gpu_partitioner=self.nodes[0].hbm_ps.params.partitioner,
            n_gpus=self.config.gpus_per_node,
            mb_rounds=self.config.minibatches_per_gpu,
        )
        return ctx.read_seconds

    def _snapshot_counters(self, ctx: RoundContext) -> None:
        """Bracket the round's cache/SSD/compaction accounting (called at
        the head of prepare, before the round's first cache touch)."""
        nodes = self.nodes
        ctx.cache_stats_before = [
            (n.mem_ps.cache.stats.hits, n.mem_ps.cache.stats.misses)
            for n in nodes
        ]
        ctx.admission_before = [n.mem_ps.cache.stats.admission_runs for n in nodes]
        ctx.compactions_before = sum(
            n.ssd_ps.compactor.total_compactions for n in nodes
        )
        ctx.ssd_before = [
            n.ledger.total("ssd_read") + n.ledger.total("ssd_write")
            for n in nodes
        ]

    def stage_prepare(self, ctx: RoundContext) -> float:
        """Stage 2 — gather working parameters (lines 3-4).

        It opens with the round's MEM resolve: every node pulls its
        :class:`~repro.plan.NodePrefetchPlan` union (every key of the
        round it owns) through cache → SSD → fresh-init exactly once and
        pins it for the round, so every later MEM access is a pure row
        gather.  Nodes run in parallel — the resolve costs the slowest
        node's resolve + load time, the remote pulls the slowest node's
        pulls.
        """
        self._snapshot_counters(ctx)
        plan = self._plan_of(ctx)
        ctx.prefetch_seconds = max(
            node.mem_ps.prefetch(p) for node, p in zip(self.nodes, plan.prefetch)
        )
        values = np.empty(
            (plan.keys.size, self.sparse_optimizer.value_dim), dtype=np.float32
        )
        ctx.pull_remote_seconds = max(
            node.mem_ps.prepare(p, values) for node, p in zip(self.nodes, plan.nodes)
        )
        ctx.values = values
        return ctx.prefetch_seconds + ctx.pull_remote_seconds

    def stage_load(self, ctx: RoundContext) -> float:
        """Stage 3 — CPU partition + HBM working-set staging (lines 5-10)."""
        cpu_s = 0.0
        load_s = 0.0
        values = ctx.values
        assert values is not None, "stage_prepare fills the round array"
        for node, nplan in zip(self.nodes, self._plan_of(ctx).nodes):
            cpu_s = max(cpu_s, node.cpu_partition_time(nplan.keys.size))
            load_s = max(load_s, node.hbm_ps.load_working_set(values, nplan))
        ctx.cpu_partition_seconds = cpu_s + load_s
        self._staged_rounds += 1
        return ctx.cpu_partition_seconds

    def stage_train(self, ctx: RoundContext) -> float:
        """Stage 4 — mini-batch training, sync, write-back (lines 11-18).

        Produces the round's :class:`BatchStats` (``ctx.stats``) and
        returns the stage's critical-path seconds, including the MEM-PS
        write-back that completes the round.
        """
        nodes = self.nodes
        n_gpus = self.config.gpus_per_node
        mb_rounds = self.config.minibatches_per_gpu
        plan = self._plan_of(ctx)
        values = ctx.values
        assert values is not None, "stage_prepare fills the round array"
        flops_per_ex = dense_flops_per_example(
            self.model_spec.n_slots,
            self.model_spec.embedding_dim,
            self.model_spec.hidden_layers,
        )
        hbm_pull_s = hbm_push_s = gpu_s = allreduce_s = 0.0
        worker_critical_s = 0.0
        losses: list[float] = []
        n_examples = 0
        # Replicas hold identical dense state (the sync step below keeps
        # them so), so the lead's tower trains every worker's minibatch.
        lead = nodes[0]
        for m in range(mb_rounds):
            # The sync round's workers, node order then GPU order.
            workers = [
                (i, gpu, nplan.shards[j], nplan.minibatches[j])
                for i, nplan in enumerate(plan.nodes)
                for gpu, j in enumerate(range(m * n_gpus, (m + 1) * n_gpus))
                if nplan.shards[j].n_examples
            ]
            # Algorithm 1 lines 12-14 for all of them in one pass, each
            # worker's results exactly its own minibatch's.
            results = lead.model.train_minibatch(
                values,
                [
                    Shard(mb, mbp.keys, mbp.emb_idx, mbp.codes[mbp.emb_idx])
                    for _, _, mb, mbp in workers
                ],
            )
            # Then each worker's pull, GPU time and push, in worker order
            # (the charges and fault draws of a worker-by-worker loop).
            worker_t = [0.0] * len(nodes)
            started = [False] * len(nodes)
            for (i, gpu, mb, mbp), result in zip(workers, results):
                node = nodes[i]
                t_pull = node.hbm_ps.pull_embeddings(mbp, gpu=gpu)
                t_gpu = node.gpu_compute.train(flops_per_ex * mb.n_examples)
                t_push = node.hbm_ps.push_gradients(
                    mbp, result.sparse_grads.astype(np.float32), gpu=gpu
                )
                worker_t[i] = max(worker_t[i], t_pull + t_gpu + t_push)
                hbm_pull_s += t_pull
                hbm_push_s += t_push
                gpu_s += t_gpu
                losses.append(result.loss)
                n_examples += mb.n_examples
                if started[i]:
                    self._node_dense_acc[i].add(result.dense_grads)
                else:
                    self._node_dense_acc[i].start(result.dense_grads)
                    started[i] = True
            for i, node in enumerate(nodes):
                if not started[i]:
                    self._node_dense_acc[i].start_zero(
                        node.model.mlp.parameters()
                    )
            node_dense_grads = [acc.arrays for acc in self._node_dense_acc]
            round_worker_t = max(worker_t)

            # Inter-node synchronization (Section 4.2) per mini-batch.
            splan = plan.sync[m]
            node_updates = [
                node.hbm_ps.drain_gradients(splan.nodes[i])
                for i, node in enumerate(nodes)
            ]
            if self._fault_arm is not None:
                # Guard the collective *before* it runs: a transient comm
                # fault costs retries/backoff, an exhausted one escapes
                # with global scope while the allreduce (a pure function
                # of the drained gradients) has not yet been applied.
                allreduce_s += self._fault_arm.guard(
                    {"comm_allreduce": 0.0}, scope="global"
                )
            # The plan predicted the merged update's key set at read time.
            global_update, t_ar = hierarchical_allreduce(
                node_updates,
                networks=[node.network for node in nodes],
                nvlinks=[node.hbm_ps.nvlink for node in nodes],
                gpus_per_node=n_gpus,
                union=(splan.keys, [spn.union_pos for spn in splan.nodes]),
            )
            # One value per key: every node stages a view of the round
            # array, so the update is applied once — to every staged key
            # and every key only a peer staged — and each node is charged
            # for its GPUs' share (on the ledger; the stage clock never
            # counted the apply).
            codes = splan.codes
            put_rows(
                values,
                codes,
                self.sparse_optimizer.apply(
                    take_rows(values, codes), global_update.grads
                ),
            )
            for node, spn in zip(nodes, splan.nodes):
                node.hbm_ps.apply_update(spn)
            dense_sum, t_dense = allreduce_dense(
                node_dense_grads,
                networks=[node.network for node in nodes],
                out=self._dense_sum_acc,
            )
            # Replicas hold identical dense state and receive the same
            # summed gradient: step the lead, copy its result to the rest.
            lead_params = lead.model.mlp.parameters()
            lead.dense_optimizer.step(lead_params, dense_sum)
            for node in nodes[1:]:
                for mine, theirs in zip(
                    node.model.mlp.parameters(), lead_params
                ):
                    np.copyto(mine, theirs)
                node.dense_optimizer.sync_from(lead.dense_optimizer)
            allreduce_s += t_ar + t_dense
            # Workers run in parallel, so the slowest worker is the
            # mini-batch round's critical path; rounds are serial.
            worker_critical_s += round_worker_t

        # --- write back (lines 16-18) ------------------------------------
        for node in nodes:
            node.mem_ps.absorb_updates(values)
            node.mem_ps.end_batch()

        # --- aggregate ---------------------------------------------------
        hits = sum(
            n.mem_ps.cache.stats.hits - b[0]
            for n, b in zip(nodes, ctx.cache_stats_before)
        )
        misses = sum(
            n.mem_ps.cache.stats.misses - b[1]
            for n, b in zip(nodes, ctx.cache_stats_before)
        )
        ssd_after = [
            n.ledger.total("ssd_read") + n.ledger.total("ssd_write") for n in nodes
        ]
        stats = BatchStats(
            round_index=ctx.round_index,
            read_seconds=ctx.read_seconds,
            pull_remote_seconds=ctx.pull_remote_seconds,
            cpu_partition_seconds=ctx.cpu_partition_seconds,
            hbm_pull_seconds=hbm_pull_s / self.n_nodes,
            hbm_push_seconds=hbm_push_s / self.n_nodes,
            gpu_train_seconds=gpu_s / self.n_nodes,
            allreduce_seconds=allreduce_s,
            # Critical path of the GPU stage: the slowest worker per
            # mini-batch round (workers are parallel, rounds serial) plus
            # the synchronization.  An average over workers would
            # underestimate the stage whenever workers are imbalanced.
            train_seconds=worker_critical_s + allreduce_s,
            ssd_io_seconds=max(a - b for a, b in zip(ssd_after, ctx.ssd_before)),
            cache_hit_rate=hits / max(1, hits + misses),
            n_working_params=plan.n_working_keys,
            n_examples=n_examples,
            mean_loss=float(np.mean(losses)) if losses else float("nan"),
            compactions=sum(n.ssd_ps.compactor.total_compactions for n in nodes)
            - ctx.compactions_before,
            cache_admission_runs=sum(
                n.mem_ps.cache.stats.admission_runs for n in nodes
            )
            - sum(ctx.admission_before),
            prefetch_seconds=ctx.prefetch_seconds,
        )
        ctx.stats = stats
        self.history.append(stats)
        self.rounds_completed += 1
        self._staged_rounds -= 1
        return worker_critical_s + allreduce_s

    # ------------------------------------------------------------------
    def _run_rounds(
        self, n_rounds: int, first_round: int
    ) -> tuple[list[BatchStats], np.ndarray]:
        """The round loop both execution modes share.

        Calls every registered stage once per round, in registry order,
        rounds in order — the work and its order never depend on the
        clock.  Each returned duration is checked (a NaN, infinite or
        negative one raises ``ValueError`` naming the stage) and
        recorded.  Returns the rounds' stats and their stage-time
        matrix, shape ``(n_rounds, n_stages)``; a round's context (plan,
        batches, round array) is dropped once its last stage has run.
        A bool, non-integer or negative ``n_rounds`` is a ``ValueError``
        before any stage runs.
        """
        n_rounds = check_count("n_rounds", n_rounds, 0)
        specs = tuple(self._stage_defs)
        times = np.zeros((n_rounds, len(specs)))
        stats: list[BatchStats] = []
        for b in range(n_rounds):
            ctx = RoundContext(round_index=first_round + b)
            for s, spec in enumerate(specs):
                times[b, s] = stage_duration(
                    spec.fn(ctx), spec.name, ctx.round_index
                )
            assert ctx.stats is not None, "stage_train records the stats"
            stats.append(ctx.stats)
        return stats, times

    def train_round(self) -> BatchStats:
        """Run one global batch through Algorithm 1 on every node.

        Lockstep mode: the pipeline stages run back-to-back.
        :meth:`train_pipelined` drives the same round loop, so the two
        modes train bit-identical parameters.
        """
        (stats,), _ = self._run_rounds(1, self.rounds_completed)
        return stats

    def train(self, n_rounds: int) -> list[BatchStats]:
        """Run ``n_rounds`` global batches in lockstep; returns their stats."""
        return self._run_rounds(n_rounds, self.rounds_completed)[0]

    def train_pipelined(self, n_rounds: int) -> PipelinedRun:
        """Run ``n_rounds`` with inter-round overlap (the stage pipeline).

        Performs exactly the same work as ``n_rounds`` :meth:`train_round`
        calls — trained parameters are bit-identical to lockstep — but the
        clock overlaps consecutive rounds' stages under prefetch queues
        :data:`~repro.core.pipeline.QUEUE_CAPACITY` rounds deep, so the
        reported makespan reflects I/O hidden behind GPU compute (paper
        Section 3).  The overlap belongs to the clock alone: the round
        loop still runs every stage of round ``b`` before any stage of
        round ``b + 1``.
        """
        names = tuple(spec.name for spec in self._stage_defs)
        stats, times = self._run_rounds(n_rounds, self.rounds_completed)
        return PipelinedRun(stats, schedule(times, stage_names=names))

    # ------------------------------------------------------------------
    def _require_round_boundary(self, what: str) -> None:
        """Cross-tier reads/snapshots are only coherent between rounds.

        Between ``stage_load`` and the end of ``stage_train`` the freshest
        copy of a working parameter lives *only* in the round array the
        nodes' HBM-PS stage — the MEM/SSD tiers see it again at
        write-back.  A MEM/SSD read in that window would silently serve
        stale values (or fall through to the fresh-key init), so it is an
        error, not a best effort.
        """
        if self._staged_rounds:
            raise RuntimeError(
                f"{what} is only valid at a round boundary: "
                f"{self._staged_rounds} round(s) currently have working "
                "parameters staged in HBM (mid-pipeline state precedes "
                "the MEM-PS write-back)"
            )

    def abort_round(self) -> None:
        """Discard a partially-executed round's in-flight MEM state.

        The recovery hook for a fault that escaped from ``read`` or
        ``prepare`` (the MEM resolve included): those stages mutate only
        stream counters and cache *residency* (which rows are resident or
        pinned) — never parameter values, which change only in
        ``train``'s write-back.  Releasing the pins therefore returns
        every tier to a value-exact round boundary, so the aborted round
        can be retried from its read stage (or a partial
        ``restore_nodes`` applied) without forking parameters.

        Only valid while no round has working parameters staged in HBM —
        past ``stage_load`` the freshest values live only in the round
        array and a full restore is the sole safe recovery.
        """
        self._require_round_boundary("abort_round")
        for node in self.nodes:
            node.mem_ps.abort_round()

    def lookup_embeddings(self, keys: np.ndarray) -> np.ndarray:
        """Read-only embedding lookup across owners (for evaluation).

        Unknown keys return the optimizer's deterministic zero-ish init
        without being persisted.  The MEM cache is only peeked — its
        statistics and replacement order are untouched — but a MEM miss
        is a real ``FileStore.read``: it is charged to the owning node's
        ``ssd_read`` ledger line (the simulated makespan of a run that
        serves between rounds depends on it).
        Only callable at a round boundary — every completed round's
        write-back has landed in the MEM tier, so MEM cache + SSD hold
        the newest copy of every key (enforced via
        :meth:`_require_round_boundary`).
        """
        self._require_round_boundary("lookup_embeddings")
        keys = as_keys(keys)
        opt = self.sparse_optimizer
        values = np.zeros((keys.size, opt.value_dim), dtype=np.float32)
        found_any = np.zeros(keys.size, dtype=bool)
        owner = self.nodes[0].mem_ps.owner_of(keys)
        for node in self.nodes:
            idx = np.flatnonzero(owner == node.node_id)
            if idx.size == 0:
                continue
            mem = node.mem_ps
            # A peek and a read zero-fill what they miss, and those rows
            # are still zero here: scatter every row, found or not.
            vals, found = mem.cache.peek_batch(keys[idx])
            put_rows(values, idx, vals)
            found_any[idx[found]] = True
            miss = idx[~found]
            if miss.size:
                result = node.ssd_ps.store.read(keys[miss])
                put_rows(values, miss, result.values)
                found_any[miss[result.found]] = True
        never_seen = np.flatnonzero(~found_any)
        if never_seen.size:
            put_rows(
                values,
                never_seen,
                opt.init_for_keys(keys[never_seen], seed=self.config.seed),
            )
        return opt.embedding(values)

    def predict(self, batch: Batch) -> np.ndarray:
        """Click probabilities under the current global model.  One dedup;
        its inverse places every flat key, so the forward searches none."""
        keys, codes = compact_unique(batch.keys, return_inverse=True)
        emb = self.lookup_embeddings(keys)
        return self.nodes[0].model.predict_proba(batch, keys, emb, flat_idx=codes)

    def evaluate_auc(self, batch: Batch) -> float:
        from repro.nn.metrics import auc

        return auc(batch.labels, self.predict(batch))

    # ------------------------------------------------------------------
    # Checkpoint / restore (repro.ckpt)
    # ------------------------------------------------------------------
    def save_checkpoint(
        self, directory: str, *, mode: str = "full"
    ) -> "CheckpointStats":
        """Materialize a crash-consistent snapshot into ``directory``.

        Captures everything ``train(k) + restore + train(m)`` needs to be
        bit-identical to ``train(k + m)``: dense tower + optimizer state,
        each node's MEM cache (contents and replacement order), the SSD
        file store (files, mapping, stale counters), and the stream
        position.  Only valid at a round boundary.  Simulated write cost
        is charged per node under ``ckpt_write``; returns
        :class:`~repro.ckpt.checkpoint.CheckpointStats`.

        ``mode`` selects the snapshot form: ``"full"`` (self-contained),
        ``"delta"`` (only state changed since the last snapshot, chained
        to it — requires a prior save/restore this process), or
        ``"auto"`` (delta when a valid base exists, else full).  Every
        tier tracks what it wrote since the last committed snapshot, so
        a delta is exact whoever took that snapshot and whenever.
        """
        from repro.ckpt.checkpoint import save_cluster

        return save_cluster(self, directory, kind=mode)

    def enable_snapshot_stage(
        self,
        directory: str,
        *,
        every: int = 1,
        full_every: int | None = None,
        keep_last: int | None = None,
    ) -> StageFn:
        """Register the continuous-checkpoint pipeline stage.

        Splices ``snapshot`` after ``train`` via :meth:`register_stage`,
        so both execution modes run it; under :meth:`train_pipelined`
        its simulated cost lands in the pipeline shadow of the next
        round's read/prepare stages instead of the training critical
        path.  At every round boundary divisible by ``every`` it saves
        ``<directory>/round_<NNNNNN>`` — a delta chained to the previous
        snapshot, or a full one when there is no valid base or (with
        ``full_every`` set) the base's chain already holds
        ``full_every`` members, whoever wrote them.  The stage keeps no
        write set of its own: each tier carries its delta base, so
        registering the stage late, or around other saves, ships exactly
        what changed.

        With ``keep_last`` set, each save is followed by a prune of what
        this cluster committed under ``directory`` (its ``_ckpt_written``
        index — no directory scan, no manifest read): the newest
        ``keep_last`` of those commits are kept, closed over their delta
        base links, and every other one is deleted manifest first.  A
        snapshot another run left in ``directory``, and a chain this
        cluster was restored from, are never read or deleted.  Bad
        arguments and a second snapshot stage are refused here, before
        anything is created or registered.

        Returns the stage function (``unregister_stage("snapshot")``
        removes it); its ``history`` attribute accumulates the
        :class:`~repro.ckpt.checkpoint.CheckpointStats` of every
        snapshot taken.
        """
        import os
        import shutil

        from repro.ckpt.format import checkpoint_dir_name, invalidate

        every = check_count("every", every)
        if full_every is not None:
            full_every = check_count("full_every", full_every)
        if keep_last is not None:
            keep_last = check_count("keep_last", keep_last)
        self._stage_slot("snapshot", "train")  # refused before makedirs
        os.makedirs(directory, exist_ok=True)
        root = os.path.abspath(directory)
        owner = weakref.ref(self)  # the registry must not keep its cluster alive

        def stage_snapshot(ctx: RoundContext) -> float:
            cluster = owner()
            assert cluster is not None, "a stage runs only while its cluster lives"
            if cluster.rounds_completed % every:
                return 0.0
            target = os.path.join(
                directory, checkpoint_dir_name(cluster.rounds_completed)
            )
            base = cluster._ckpt_base
            chain_full = (
                full_every is not None
                and base is not None
                and base["chain_length"] >= full_every
            )
            stats = cluster.save_checkpoint(target, mode="full" if chain_full else "auto")
            stage_snapshot.history.append(stats)  # type: ignore[attr-defined]
            if keep_last is not None:
                written = cluster._ckpt_written
                mine = [d for d in written if os.path.dirname(d) == root]
                keep = set(mine[-keep_last:])
                frontier = list(keep)
                while frontier:  # a kept delta keeps its whole chain
                    link = written[frontier.pop()]
                    if link in written and link not in keep:
                        keep.add(link)
                        frontier.append(link)
                for d in mine:
                    if d not in keep:
                        invalidate(d)  # commit record first: readers reject it
                        if os.path.isdir(d):
                            shutil.rmtree(d)
                        del written[d]
            return stats.seconds

        stage_snapshot.history = []  # type: ignore[attr-defined]
        self.register_stage("snapshot", stage_snapshot, after="train")
        return stage_snapshot

    @classmethod
    def restore(cls, directory: str) -> "HPSCluster":
        """Rebuild a cluster from a checkpoint written by
        :meth:`save_checkpoint`.

        The model, cluster config and stream parameters come from the
        manifest, and the rebuilt cluster must hash to its fingerprint.
        Simulated read cost lands under ``ckpt_read``; the resulting
        cluster's :attr:`restore_stats` carries the accounting.
        """
        from repro.ckpt.checkpoint import restore_cluster

        return restore_cluster(cls, directory)
