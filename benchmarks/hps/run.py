"""The benchmark of record for the hierarchical parameter server.

Driver form (one workload, one result line; see ``BENCHMARK.json``)::

    python3 benchmarks/hps/run.py --workload ssd_pressure --seed 0 \
        --seconds 15 --trace 0

Suite form (every workload, untraced passes interleaved round-robin, then
one traced pass each; prints every metric by name with its unit)::

    python3 benchmarks/hps/run.py --seed 0 --out result.json

``--smoke`` is the suite at two segments per pass; ``--micro`` runs the
layer micro-kernels.  Protocol, metric definitions and the layer ->
end-to-end interaction table are in ``README.md`` beside this file.

Closed loop, one client, one thread: each pass runs in a fresh
subprocess with BLAS threading pinned to 1, and the next operation is
issued when the previous one returns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NoReturn

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

LAYERS = ("core", "data", "plan", "mem", "ssd", "hbm", "nn", "ckpt")

#: traced span name -> per-layer metric.  Spans inside a segment report
#: self milliseconds per round (``core.stage_*`` the whole stage, children
#: included, so the tier metrics below it add up to it); the ones on the
#: predict path, self milliseconds per call.
ROUND_SPANS = {
    **{
        f"core.stage_{s}": f"core.stage_{s}_ms"
        for s in ("read", "prefetch", "prepare", "load", "train", "snapshot")
    },
    "core.train_pipelined": "core.engine_overhead_ms",
    "data.hdfs_read": "data.hdfs_read_ms",
    "plan.build": "plan.build_ms",
    "mem.prefetch": "mem.prefetch_ms",
    "mem.prepare": "mem.prepare_ms",
    "mem.serve_remote": "mem.serve_remote_ms",
    "mem.apply_gradients": "mem.apply_gradients_ms",
    "mem.absorb_updates": "mem.absorb_updates_ms",
    "mem.end_batch": "mem.end_batch_ms",
    "ssd.load": "ssd.load_ms",
    "ssd.dump": "ssd.dump_ms",
    "ssd.compact": "ssd.compact_ms",
    "hbm.load_working_set": "hbm.load_working_set_ms",
    "hbm.pull": "hbm.pull_ms",
    "hbm.push": "hbm.push_ms",
    "hbm.drain": "hbm.drain_ms",
    "hbm.apply_update": "hbm.apply_update_ms",
    "hbm.dump": "hbm.dump_ms",
    "hbm.allreduce": "hbm.allreduce_ms",
    "nn.train_minibatch": "nn.train_minibatch_ms",
    "nn.dense_step": "nn.dense_step_ms",
    "ckpt.save": "ckpt.save_ms",
}
PREDICT_SPANS = {
    "core.predict": "core.predict_overhead_ms",
    "mem.peek": "mem.peek_ms",
    "ssd.store_read": "ssd.store_read_ms",
    "nn.predict_proba": "nn.predict_proba_ms",
}


def _fail(message: str) -> NoReturn:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def _bootstrap() -> dict[str, str]:
    """Make ``repro`` and the benchmark's own modules importable; returns
    the metric -> unit table of ``BENCHMARK.json`` (the one place names,
    units, directions and bounds are recorded)."""
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        _fail(f"no program to measure: {src}/repro is missing")
    for path in (HERE, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read {BENCHMARK_JSON}: {exc}")
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n))


# ----------------------------------------------------------------------
# launching passes
# ----------------------------------------------------------------------
def launch_pass(
    workload: str,
    seed: int,
    segments: int,
    *,
    traced: bool,
    restore: bool,
    scratch: str,
    warmup: int | None = None,
    trace_out: str | None = None,
) -> dict:
    """One pass in a fresh single-threaded subprocess; returns its record.

    A pass that dies without a record counts as one failed operation.
    """
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--pass-child",
        "--workload", workload,
        "--seed", str(seed),
        "--segments", str(segments),
        "--trace", "1" if traced else "0",
        "--restore", "1" if restore else "0",
        "--scratch", scratch,
    ]
    if warmup is not None:
        cmd += ["--warmup", str(warmup)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ)
    env.update({name: "1" for name in _THREAD_ENV})
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(
            f"[hps-bench] pass {workload} exited {proc.returncode} "
            "without a record",
            file=sys.stderr,
        )
        return {"attempted": 1, "failed": 1, "failures": ["pass crashed"]}
    return json.loads(lines[-1])


def pass_child(args: argparse.Namespace) -> int:
    from onepass import run_pass
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(
        prefix=f"{args.workload}-", dir=args.scratch
    ) as scratch:
        record = run_pass(
            WORKLOADS[args.workload],
            args.seed,
            args.segments,
            traced=bool(args.trace),
            restore=bool(args.restore),
            scratch=scratch,
            warmup_rounds=args.warmup,
            trace_out=args.trace_out,
        )
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _complete(passes: list[dict]) -> list[dict]:
    return [p for p in passes if p.get("segments")]


def _at_reference(p: dict, field: str, per: int = 1) -> list[float]:
    """``field`` of every segment of pass ``p``, in milliseconds at
    reference machine speed (see ``onepass.Calibrator``)."""
    return [1e3 * seg[field] / per * seg["speed"] for seg in p["segments"]]


def verify(untraced: list[dict], traced: dict | None) -> tuple[int, int, list[str]]:
    """Operation counts over all passes plus the cross-pass checks."""
    passes = untraced + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p.get("failures", [])]
    done = _complete(passes)
    for field in ("param_digest", "sim_makespan_s", "eval_auc"):
        attempted += 1
        values = {p.get(field) for p in done}
        if len(done) != len(passes) or len(values) != 1 or None in values:
            failed += 1
            failures.append(f"passes disagree on {field}")
    return attempted, failed, failures


def end_to_end(untraced: list[dict]) -> dict[str, dict]:
    """The end-to-end metrics — from untraced passes only.

    Wall metrics pool every segment of every pass; ``passes`` keeps each
    pass's own value so ``compare.py`` can see the pass-to-pass spread.
    """
    done = _complete(untraced)
    if not done:
        return {}
    S = done[0]["segment_rounds"]

    def pooled(field: str, per: int) -> dict:
        by_pass = [_at_reference(p, field, per) for p in done]
        samples = [v for values in by_pass for v in values]
        q1, median, q3 = statistics.quantiles(samples, n=4)
        return {
            "value": median,
            "q1": q1,
            "q3": q3,
            "samples": len(samples),
            "passes": [statistics.median(values) for values in by_pass],
        }

    setups = [p["setup_s"] * p["setup_speed"] for p in done]
    return {
        "setup_s": {"value": statistics.median(setups), "passes": setups},
        "round_ms_p50": pooled("wall_s", S),
        "predict_ms_p50": pooled("predict_s", 1),
        "sim_makespan_s": {"value": done[0]["sim_makespan_s"]},
        "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in done)},
    }


def per_layer(untraced: list[dict], traced: dict) -> dict[str, dict]:
    """The per-layer metrics: spans and counts from the traced pass, the
    raw-clock distribution and tracing overhead from the untraced ones."""
    done = _complete(untraced)
    if not done or not traced.get("segments"):
        return {}
    S = traced["segment_rounds"]
    n_segments = len(traced["segments"])
    n_rounds = n_segments * S
    out: dict[str, float] = dict(traced["layers"])

    self_ms = traced["span_self_ms"]
    total_ms = traced["span_total_ms"]
    counts = traced["span_counts"]
    for span, metric in ROUND_SPANS.items():
        source = total_ms if span.startswith("core.stage_") else self_ms
        out[metric] = source.get(span, 0.0) / n_rounds
    n_predicts = n_segments * traced["predicts_per_segment"]
    for span, metric in PREDICT_SPANS.items():
        out[metric] = self_ms.get(span, 0.0) / n_predicts
    round_total = sum(self_ms.get(span, 0.0) for span in ROUND_SPANS)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (
            sum(
                self_ms.get(span, 0.0)
                for span in ROUND_SPANS
                if span.startswith(layer + ".")
            )
            / round_total
        )
    out["ssd.keys_read_per_round"] = counts.get("ssd.load", 0.0) / n_rounds
    out["hbm.allreduce_calls_per_round"] = (
        counts.get("hbm.allreduce#calls", 0.0) / n_rounds
    )
    out["hbm.allreduce_bytes_per_round"] = (
        counts.get("hbm.allreduce", 0.0) / n_rounds
    )
    out["nn.minibatches_per_round"] = (
        counts.get("nn.train_minibatch#calls", 0.0) / n_rounds
    )
    out["nn.eval_auc"] = traced["eval_auc"] or 0.0

    # The raw clock, for reading next to the normalised end-to-end values.
    raw = [1e3 * seg["wall_s"] / S for p in done for seg in p["segments"]]
    tail = tail_percentile(len(raw))
    out["core.round_wall_ms_p10"] = np.percentile(raw, 10)
    out["core.round_wall_ms_p50"] = np.percentile(raw, 50)
    out["core.round_wall_ms_tail"] = np.percentile(raw, tail)
    out["core.round_wall_tail_pct"] = tail
    out["core.round_wall_samples"] = len(raw)
    out["core.predict_wall_ms_p10"] = np.percentile(
        [1e3 * seg["predict_s"] for p in done for seg in p["segments"]], 10
    )
    out["core.setup_wall_s"] = statistics.median(p["setup_s"] for p in done)
    out["core.machine_speed"] = statistics.median(
        seg["speed"] for p in done for seg in p["segments"]
    )

    untraced_ms = statistics.median(
        v for p in done for v in _at_reference(p, "wall_s", S)
    )
    traced_ms = statistics.median(_at_reference(traced, "wall_s", S))
    out["core.trace_overhead_share"] = traced_ms / untraced_ms - 1.0
    out["core.examples_per_s"] = (
        1e3 * out["data.examples_per_round"] / untraced_ms
    )
    for metric, field in (
        ("ckpt.save_full_ms", "save_s"),
        ("ckpt.restore_ms", "restore_s"),
        ("ckpt.chain_restore_ms", "chain_restore_s"),
    ):
        # Zero where no pass did it (restores run in one pass of a run;
        # only snapshot_serving has a chain).
        out[metric] = 1e3 * statistics.median(
            [p[field] * p["ckpt_speed"] for p in done if p[field] is not None]
            or [0.0]
        )
    return {name: {"value": float(value)} for name, value in out.items()}


def _with_units(metrics: dict[str, dict], units: dict[str, str]) -> dict[str, dict]:
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        _fail(f"metrics not named in BENCHMARK.json: {unknown}")
    return {name: {**entry, "unit": units[name]} for name, entry in metrics.items()}


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_driver(args: argparse.Namespace, units: dict[str, str]) -> int:
    """One workload, one JSON result line — the ``BENCHMARK.json`` command."""
    from workloads import PASSES, WORKLOADS, segments_for

    workload = WORKLOADS[args.workload]
    segments = segments_for(workload, args.seconds)
    n_untraced = PASSES - 1 if args.trace else PASSES
    untraced = [
        launch_pass(
            workload.name,
            args.seed,
            segments,
            traced=False,
            restore=i == 0,
            scratch=args.scratch,
        )
        for i in range(n_untraced)
    ]
    traced = None
    if args.trace:
        traced = launch_pass(
            workload.name,
            args.seed,
            segments,
            traced=True,
            restore=False,
            scratch=args.scratch,
            trace_out=args.trace_out,
        )
    attempted, failed, failures = verify(untraced, traced)
    metrics = _with_units(
        per_layer(untraced, traced) if traced else end_to_end(untraced), units
    )
    for failure in failures:
        print(f"[hps-bench] FAILED: {failure}", file=sys.stderr)
    # The result line has no room for a string; the digest goes to stderr.
    for p in _complete(untraced)[:1]:
        print(
            f"[hps-bench] {workload.name} seed {args.seed} "
            f"param_digest {p['param_digest']}",
            file=sys.stderr,
        )
    if args.out:
        _write_json(args.out, {"untraced": untraced, "traced": traced})
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()
                },
            }
        )
    )
    return 0


def run_suite(args: argparse.Namespace, units: dict[str, str]) -> int:
    """Every workload: untraced passes interleaved round-robin across
    workloads, then one traced pass each; prints and writes all metrics."""
    from workloads import PASSES, WORKLOADS, segments_for

    names = list(WORKLOADS)
    # Smoke keeps warm-up a multiple of the snapshot period, so the newest
    # snapshot in the chain is the live state the restore is checked against.
    warmup = 5 if args.smoke else None
    jobs = [
        dict(
            workload=name,
            seed=args.seed,
            segments=2 if args.smoke else segments_for(WORKLOADS[name], args.seconds),
            traced=traced,
            restore=not traced and i == 0,
            scratch=args.scratch,
            warmup=warmup,
            trace_out=(
                f"{args.trace_out}.{name}.jsonl"
                if traced and args.trace_out
                else None
            ),
        )
        for traced, repeats in ((False, 1 if args.smoke else PASSES), (True, 1))
        for i in range(repeats)
        for name in names
    ]
    # Smoke checks plumbing, not speed: its passes may share the machine.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        records = list(pool.map(lambda job: launch_pass(**job), jobs))
    untraced: dict[str, list[dict]] = {name: [] for name in names}
    traced_by_name: dict[str, dict] = {}
    for job, record in zip(jobs, records):
        if job["traced"]:
            traced_by_name[job["workload"]] = record
        else:
            untraced[job["workload"]].append(record)
    result = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    total_failed = 0
    for name in names:
        traced = traced_by_name[name]
        attempted, failed, failures = verify(untraced[name], traced)
        total_failed += failed
        e2e = _with_units(end_to_end(untraced[name]), units)
        layers = _with_units(per_layer(untraced[name], traced), units)
        done = _complete(untraced[name])
        digest = done[0]["param_digest"] if done else None
        result["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "failed_share": failed / attempted,
            "param_digest": digest,
            "eval_auc": done[0]["eval_auc"] if done else None,
            "end_to_end": e2e,
            "per_layer": layers,
        }
        print(
            f"== {name}: {failed} of {attempted} operations failed, "
            f"param_digest {digest}"
        )
        for metric, entry in {**e2e, **layers}.items():
            print(f"{name:18s} {metric:34s} {entry['value']:16.6g} {entry['unit']}")
    if args.out:
        _write_json(args.out, result)
    return 1 if total_failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        help="write results as JSON (suite form: every metric; driver form: "
        "the raw pass records)",
    )
    parser.add_argument("--trace-out", help="write the traced pass's spans (JSONL)")
    parser.add_argument(
        "--scratch",
        default=os.path.join(HERE, ".scratch"),
        help="directory for checkpoints and snapshots (removed afterwards)",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--micro", action="store_true")
    parser.add_argument("--pass-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--segments", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--warmup", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--restore", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    units = _bootstrap()
    from workloads import RUN_SECONDS, WORKLOADS

    if args.seconds is None:
        args.seconds = float(RUN_SECONDS)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.workload is not None and args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.pass_child:
        return pass_child(args)
    # Each invocation works in a directory of its own under --scratch and
    # removes it, so concurrent runs never share or delete each other's.
    scratch_root = args.scratch
    os.makedirs(scratch_root, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix="run-", dir=scratch_root) as scratch:
            args.scratch = scratch
            if args.micro:
                from micro import run_micro

                return run_micro(args.seed, scratch)
            if args.workload is not None:
                return run_driver(args, units)
            return run_suite(args, units)
    finally:
        try:
            os.rmdir(scratch_root)  # leaves it if another run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
