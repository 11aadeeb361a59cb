"""One pass of one workload: the unit the runner launches in a fresh
subprocess.

set-up (construct + warm-up) -> K timed segments of ``train_pipelined(S)``
each followed by three ``predict()`` calls on pre-generated held-out batches ->
``evaluate_auc`` -> ``save_checkpoint(full)`` -> in one pass of a run,
``HPSCluster.restore`` from it and from the snapshot chain (when the
workload has one), with digest checks.  Round counts are fixed, never
durations, so simulated seconds, counters and the parameter digest repeat
exactly for a given seed.

Every operation is counted: an exception is caught, logged to stderr,
counted as failed, and the pass continues where it can.

Wall times are taken next to a fixed calibration kernel (see
:class:`Calibrator`); each is recorded raw with the machine ``speed`` it
was taken at, and raw x speed is the time at reference machine speed.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from repro.ckpt.format import latest_checkpoint
from repro.core.cluster import HPSCluster
from repro.utils.rng import make_rng

import spans as span_mod
from workloads import Workload, build_cluster

__all__ = ["run_pass", "Calibrator"]

_perf = time.perf_counter

#: Nominal cost of one calibration-kernel call: its median inside a pass
#: on a quiet moment of the 2-core box the benchmark was defined on.  Only
#: a scale — it makes normalised times read as milliseconds of that box.
CALIB_REF_SECONDS = 0.00200

#: Held-out batch indices, far beyond any training round's indices.
DIGEST_BATCH = (10_000_000, 4096)
PREDICT_BATCH_BASE = 20_000_000
PREDICT_EXAMPLES = 2048
#: predict() calls after each segment; a segment's predict sample is their
#: median (one call per segment left dense_heavy with 24 samples a run)
PREDICTS_PER_SEGMENT = 3
AUC_BATCH = (30_000_000, 8192)

#: Held-out AUC every workload must beat after its rounds — a sanity floor
#: (seeds 0-9 give 0.67-0.78), not a quality bound: AUC moves several
#: percent between seeds, so it cannot carry a relative bound.
AUC_FLOOR = 0.55


class Calibrator:
    """A fixed kernel whose wall time tracks the machine's current speed.

    On a shared box the same program runs up to ~40% slower for tens of
    seconds at a time (a busy SMT sibling or co-tenant); Python bytecode,
    NumPy gathers/sorts and small matmuls all slow together.  Timing this
    kernel right before and after a measured interval gives the factor
    that maps the interval back to reference speed.  The kernel imports
    nothing from the program under test except the seeded RNG helper, so
    no change to the program can move it.
    """

    def __init__(self) -> None:
        rng = make_rng(0xCA11B)
        self._keys = rng.integers(0, 60_000, 12_000).astype(np.uint64)
        self._table = rng.random((60_000, 8), dtype=np.float32)
        self._a = rng.random((128, 96), dtype=np.float32)
        self._b = rng.random((96, 96), dtype=np.float32)

    def _kernel(self) -> None:
        uniq, inverse = np.unique(self._keys, return_inverse=True)
        rows = self._table[uniq.astype(np.int64)]
        np.bincount(inverse, weights=rows[inverse][:, 0])
        x = self._a
        for _ in range(18):
            x = np.maximum(x @ self._b, 0.0) * 0.01
        acc: dict[int, int] = {}
        for i in range(12000):
            acc[i & 255] = i
        self._sink = (x, acc)

    def __call__(self) -> float:
        """Median wall seconds of five kernel calls."""
        samples = []
        for _ in range(5):
            t0 = _perf()
            self._kernel()
            samples.append(_perf() - t0)
        return sorted(samples)[2]

    @staticmethod
    def speed(before: float, after: float) -> float:
        """Machine speed relative to the reference box over an interval
        bracketed by two calls; wall x speed is the reference-speed time."""
        return CALIB_REF_SECONDS / (0.5 * (before + after))


class _Ops:
    """Counts attempted / failed operations; never lets one escape."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, what: str, fn, *, n: int = 1):
        """``fn()`` or None if it raised (counted as ``n`` failed ops)."""
        self.attempted += n
        try:
            return fn()
        except Exception:
            self.failed += n
            self.failures.append(what)
            print(f"[hps-bench] {what} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"[hps-bench] check failed: {what}", file=sys.stderr)
        return ok


def param_digest(cluster: HPSCluster) -> str:
    """SHA-256 over a fixed held-out key set's embeddings + node-0 dense
    state — the value every path (live, restored, traced) must agree on."""
    keys = cluster.generator.batch(*DIGEST_BATCH).unique_keys()
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(cluster.lookup_embeddings(keys)).tobytes())
    for array in cluster.nodes[0].model.dense_state():
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _ledger_totals(cluster: HPSCluster) -> dict[str, float]:
    """Per-category simulated seconds, mean over nodes."""
    out: dict[str, float] = defaultdict(float)
    for node in cluster.nodes:
        for category, seconds in node.ledger:
            out[category] += seconds / cluster.n_nodes
    return out


def _tier_counters(cluster: HPSCluster) -> dict[str, int]:
    """Cluster-wide counters read at the timed window's boundaries."""
    out: dict[str, int] = defaultdict(int)
    for node in cluster.nodes:
        cache = node.mem_ps.cache.stats
        out["mem_hits"] += cache.hits
        out["mem_misses"] += cache.misses
        extent = node.ssd_ps.store.extent_cache.stats()
        out["extent_hits"] += extent["hits"]
        out["extent_misses"] += extent["misses"]
        out["ssd_bytes_written"] += node.ssd_ps.store.device.bytes_written
    return out


def run_pass(
    workload: Workload,
    seed: int,
    n_segments: int,
    *,
    traced: bool,
    restore: bool,
    scratch: str,
    warmup_rounds: int | None = None,
    trace_out: str | None = None,
) -> dict:
    """Run one pass in the directory ``scratch``; returns its JSON-able
    record.

    ``restore`` adds the restore round trips (from the full checkpoint
    and, when the workload snapshots, from its delta chain) with their
    digest checks.  One pass of a run does them: a restore builds a
    second cluster, which on ``dense_heavy`` costs seconds.
    """
    if warmup_rounds is None:
        warmup_rounds = workload.warmup_rounds
    ops = _Ops()
    calibrate = Calibrator()
    calibrate()  # first call pays one-time NumPy dispatch set-up
    S = workload.segment_rounds

    # ---- set-up: construct + snapshot-stage registration + warm-up -------
    calib_before = calibrate()
    t0 = _perf()
    built = ops.attempt(
        "construct", lambda: build_cluster(workload, seed, scratch)
    )
    if built is None:
        return {"attempted": ops.attempted, "failed": ops.failed,
                "failures": ops.failures}
    cluster, snapshot_fn = built
    ops.attempt("warm-up", lambda: cluster.train(warmup_rounds), n=warmup_rounds)
    setup_s = _perf() - t0
    setup_speed = calibrate.speed(calib_before, calibrate())

    # ---- held-out inputs, generated before the timed window -------------
    generator = cluster.generator
    predict_batches = [
        [
            generator.batch(
                PREDICT_BATCH_BASE + k * PREDICTS_PER_SEGMENT + j, PREDICT_EXAMPLES
            )
            for j in range(PREDICTS_PER_SEGMENT)
        ]
        for k in range(n_segments)
    ]
    auc_batch = generator.batch(*AUC_BATCH)

    tracer = span_mod.Tracer() if traced else None
    remove_tracing = None
    train_segment = cluster.train_pipelined
    predict = cluster.predict
    if tracer is not None:
        remove_tracing = span_mod.instrument(cluster, tracer)
        train_segment = tracer.wrap("core.train_pipelined", train_segment)
        predict = tracer.wrap("core.predict", predict)

    # ---- the timed window ------------------------------------------------
    ledger_before = _ledger_totals(cluster)
    counters_before = _tier_counters(cluster)
    snapshots_before = len(snapshot_fn.history) if snapshot_fn else 0
    segments: list[dict] = []
    runs = []
    calib = calibrate()
    for k in range(n_segments):
        lo = len(tracer.spans) if tracer else 0
        t0 = _perf()
        run = ops.attempt(f"segment {k}", lambda: train_segment(S), n=S)
        t1 = _perf()
        predict_s = []
        for j, batch in enumerate(predict_batches[k]):
            tp = _perf()
            proba = ops.attempt(f"predict {k}.{j}", lambda: predict(batch))
            predict_s.append(_perf() - tp)
            ops.check(
                f"predict {k}.{j} output",
                proba is not None
                and proba.shape == (PREDICT_EXAMPLES,)
                and bool(np.all((proba >= 0.0) & (proba <= 1.0))),
            )
        hi = len(tracer.spans) if tracer else 0
        calib_after = calibrate()
        if run is not None:
            runs.append(run)
            segments.append(
                {
                    "wall_s": t1 - t0,
                    "predict_s": statistics.median(predict_s),
                    "speed": calibrate.speed(calib, calib_after),
                    "makespan_s": run.makespan,
                    "spans": (lo, hi),
                }
            )
        calib = calib_after
    ledger_after = _ledger_totals(cluster)
    counters_after = _tier_counters(cluster)

    if remove_tracing is not None:
        remove_tracing()

    # ---- after the window: quality, persistence, verification -----------
    auc = ops.attempt("evaluate_auc", lambda: cluster.evaluate_auc(auc_batch))
    if auc is not None:
        ops.check(f"eval_auc > {AUC_FLOOR}", auc > AUC_FLOOR)
    digest = ops.attempt("param_digest", lambda: param_digest(cluster))

    chain_restore_s = restore_s = None
    if restore and snapshot_fn is not None:
        newest = latest_checkpoint(os.path.join(scratch, "snapshots"))
        t0 = _perf()
        from_chain = ops.attempt(
            "restore from snapshot chain", lambda: HPSCluster.restore(newest)
        )
        chain_restore_s = _perf() - t0
        if from_chain is not None:
            ops.check(
                "chain-restored digest == live digest",
                ops.attempt("chain digest", lambda: param_digest(from_chain))
                == digest,
            )
        del from_chain

    full_dir = os.path.join(scratch, "full")
    t0 = _perf()
    saved = ops.attempt(
        "save_checkpoint(full)",
        lambda: cluster.save_checkpoint(full_dir, mode="full"),
    )
    save_s = _perf() - t0
    if restore:
        t0 = _perf()
        restored = ops.attempt("restore", lambda: HPSCluster.restore(full_dir))
        restore_s = _perf() - t0
        if restored is not None:
            ops.check(
                "restored digest == live digest",
                ops.attempt("restored digest", lambda: param_digest(restored))
                == digest,
            )

    stats = [s for run in runs for s in run.stats]
    ops.check(
        "cache_scalar_fallbacks == 0",
        sum(s.cache_scalar_fallbacks for s in stats) == 0,
    )

    record = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "segment_rounds": S,
        "predicts_per_segment": PREDICTS_PER_SEGMENT,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "segments": [
            {k: v for k, v in seg.items() if k != "spans"} for seg in segments
        ],
        "sim_makespan_s": float(sum(seg["makespan_s"] for seg in segments)),
        "eval_auc": auc,
        "param_digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "save_s": save_s,
        "restore_s": restore_s,
        "chain_restore_s": chain_restore_s,
        "ckpt_speed": CALIB_REF_SECONDS / calibrate(),
        "layers": _layer_counts(
            cluster,
            runs,
            stats,
            snapshot_fn.history[snapshots_before:] if snapshot_fn else [],
            saved,
            {k: ledger_after[k] - ledger_before.get(k, 0.0) for k in ledger_after},
            {k: counters_after[k] - counters_before[k] for k in counters_after},
        ),
    }
    if tracer is not None:
        (
            record["span_self_ms"],
            record["span_total_ms"],
            record["span_counts"],
        ) = _span_metrics(tracer, segments)
        if trace_out:
            tracer.write_jsonl(trace_out)
    return record


def _layer_counts(
    cluster, runs, stats, snapshots, saved, ledger, counters
) -> dict[str, float]:
    """Simulated-clock splits and counters of the timed window — exact,
    identical in every pass of one (workload, seed)."""
    n_rounds = max(1, len(stats))
    out: dict[str, float] = {}

    sim_stage: dict[str, float] = defaultdict(float)
    stall = idle = serial = makespan = 0.0
    for run in runs:
        engine = run.engine_run
        names = engine.schedule.stage_names
        for s, name in enumerate(names):
            sim_stage[name] += float(engine.stage_times[:, s].sum())
            stall += engine.queue_stall_seconds(s)
            idle += engine.shadow_idle_seconds(s)
        serial += engine.serial_makespan
        makespan += engine.makespan
    for name in ("read", "prefetch", "prepare", "load", "train", "snapshot"):
        out[f"core.sim_stage_{name}_s"] = sim_stage.get(name, 0.0)
    out["core.sim_pipeline_speedup"] = serial / makespan if makespan else 0.0
    out["core.sim_queue_stall_s"] = stall
    out["core.sim_shadow_idle_s"] = idle

    out["data.examples_per_round"] = sum(s.n_examples for s in stats) / n_rounds
    out["data.keys_per_round"] = sum(s.n_working_params for s in stats) / n_rounds

    accesses = counters["mem_hits"] + counters["mem_misses"]
    out["mem.hit_rate"] = counters["mem_hits"] / accesses if accesses else 0.0
    out["mem.admission_runs_per_round"] = (
        sum(s.cache_admission_runs for s in stats) / n_rounds
    )
    out["mem.collision_splits"] = sum(s.cache_collision_splits for s in stats)
    out["mem.scalar_fallbacks"] = sum(s.cache_scalar_fallbacks for s in stats)

    touches = counters["extent_hits"] + counters["extent_misses"]
    out["ssd.extent_hit_rate"] = (
        counters["extent_hits"] / touches if touches else 0.0
    )
    out["ssd.bytes_written_per_round"] = counters["ssd_bytes_written"] / n_rounds
    out["ssd.compactions"] = sum(s.compactions for s in stats)
    stores = [node.ssd_ps.store for node in cluster.nodes]
    live = sum(store.live_bytes for store in stores)
    out["ssd.space_amplification"] = (
        sum(store.total_bytes for store in stores) / live if live else 0.0
    )
    out["ssd.n_files_final"] = sum(store.n_files for store in stores)
    out["ssd.sim_read_s"] = ledger.get("ssd_read", 0.0)
    out["ssd.sim_write_s"] = ledger.get("ssd_write", 0.0)

    out["hbm.sim_pull_s"] = ledger.get("hbm_pull", 0.0)
    out["hbm.sim_push_s"] = ledger.get("hbm_push", 0.0)
    out["hbm.sim_allreduce_s"] = ledger.get("allreduce", 0.0)

    out["nn.mean_loss_final"] = stats[-1].mean_loss if stats else 0.0

    deltas = [s.nbytes for s in snapshots if s.kind == "delta"]
    out["ckpt.full_bytes"] = saved.nbytes if saved is not None else 0
    out["ckpt.delta_bytes_mean"] = sum(deltas) / len(deltas) if deltas else 0.0
    out["ckpt.snapshots"] = len(snapshots)
    out["ckpt.sim_snapshot_s"] = ledger.get("ckpt_write", 0.0)
    return out


def _span_metrics(
    tracer, segments
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Per-name self and whole-span milliseconds (at reference speed) and
    boundary counts, summed over the timed segments' spans only."""
    spans = tracer.spans
    self_s = span_mod.self_seconds(spans)
    self_ms: dict[str, float] = defaultdict(float)
    total_ms: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    for seg in segments:
        lo, hi = seg["spans"]
        scale = 1e3 * seg["speed"]
        for i in range(lo, hi):
            name, start, end, n = spans[i][0], spans[i][1], spans[i][2], spans[i][6]
            self_ms[name] += self_s[i] * scale
            total_ms[name] += (end - start) * scale
            counts[name] += n
            calls[name] += 1
    for name, n in calls.items():
        counts[f"{name}#calls"] = n
    return dict(self_ms), dict(total_ms), dict(counts)
