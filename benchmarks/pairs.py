"""Alternating-pair comparison of two checkouts on the benchmark of record::

    python3 benchmarks/pairs.py --base DIR --head DIR \
        --workload cache_resident ssd_pressure --seeds 0 1 --pairs 10 \
        [--json out.json]

For each (workload, seed) it runs each checkout's driver form
(``DIR/benchmarks/hps/run.py --workload W --seed S --seconds T --trace 0``,
T being ``BENCHMARK.json``'s ``run_seconds``)
``--pairs`` times, alternating which side runs first, so slow drift of the
machine lands on both sides alike.  Each checkout measures its own ``src/``.

Per (workload, seed) and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median [q1–q3] over the pairs, the head / base ratio of the
medians, how many pairs the head won (ties count for neither side), the
gap between the medians beside the base's interquartile range, and a
verdict with the pair count beside it: *resolved* when there are at
least ten pairs, the head wins at least nine tenths of them and the gap
exceeds the base's IQR (better or worse), *unresolved* otherwise.  Below
ten pairs nothing resolves: five runs a side leave the quartiles to one
or two outliers.

Exits non-zero when the two sides disagree on ``param_digest`` (read from
the driver's stderr), ``sim_makespan_s`` or ``failed`` — those repeat
exactly for a given seed, so any difference is a change to the program.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: fraction of pairs the head must win for a resolved verdict
RESOLVED_WINS = 0.9
#: fewest pairs that can resolve a verdict (the count a claim runs)
RESOLVED_PAIRS = 10

_DIGEST = re.compile(r"param_digest (\w+)")


def parse_run(stdout: str, stderr: str) -> dict:
    """One driver run: its metric values, ``failed`` and ``param_digest``."""
    result = json.loads(stdout.strip().splitlines()[-1])
    digest = _DIGEST.search(stderr)
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "param_digest": digest.group(1) if digest else None,
    }


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(checkout, "benchmarks", "hps", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pairs.py: {checkout} {workload} seed {seed} failed")
    return parse_run(proc.stdout, proc.stderr)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(pairs: list[tuple[dict, dict]], spec: dict) -> dict:
    """The comparison of one (workload, seed) from its ``(base, head)`` runs.

    Returns ``{"metrics": [row, ...], "mismatches": [what, ...]}``; a row
    carries both sides' median / q1 / q3, ``ratio``, ``head_wins``,
    ``pairs``, ``gap`` (positive when the head is better), ``base_iqr``
    and ``verdict``.
    """
    rows = []
    n = len(pairs)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        base = [b["metrics"][name] for b, _ in pairs]
        head = [h["metrics"][name] for _, h in pairs]
        bq1, bmed, bq3 = _quartiles(base)
        hq1, hmed, hq3 = _quartiles(head)
        wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
        losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        gap = sign * (bmed - hmed)
        iqr = bq3 - bq1
        if n < RESOLVED_PAIRS:
            verdict = "unresolved"
        elif wins >= RESOLVED_WINS * n and gap > iqr:
            verdict = "resolved better"
        elif losses >= RESOLVED_WINS * n and -gap > iqr:
            verdict = "resolved worse"
        else:
            verdict = "unresolved"
        rows.append(
            {
                "metric": name,
                "unit": metric["unit"],
                "base": {"median": bmed, "q1": bq1, "q3": bq3},
                "head": {"median": hmed, "q1": hq1, "q3": hq3},
                "ratio": hmed / bmed if bmed else float("nan"),
                "head_wins": wins,
                "pairs": n,
                "gap": gap,
                "base_iqr": iqr,
                "verdict": verdict,
            }
        )
    mismatches = []
    for what, read in (
        ("param_digest", lambda r: r["param_digest"]),
        ("sim_makespan_s", lambda r: r["metrics"].get("sim_makespan_s")),
        ("failed", lambda r: r["failed"]),
    ):
        base_values = {read(b) for b, _ in pairs}
        head_values = {read(h) for _, h in pairs}
        if base_values != head_values or len(base_values) != 1:
            mismatches.append(
                f"{what}: base {sorted(map(str, base_values))} "
                f"head {sorted(map(str, head_values))}"
            )
    return {"metrics": rows, "mismatches": mismatches}


def format_summary(workload: str, seed: int, summary: dict) -> list[str]:
    lines = [f"== {workload} seed {seed}"]
    for r in summary["metrics"]:
        b, h = r["base"], r["head"]
        lines.append(
            f"{r['metric']:16s} {b['median']:.4g} [{b['q1']:.4g}–{b['q3']:.4g}]"
            f" -> {h['median']:.4g} [{h['q1']:.4g}–{h['q3']:.4g}] {r['unit']}"
            f"  ratio {r['ratio']:.3f}  head wins {r['head_wins']}/{r['pairs']}"
            f"  gap {r['gap']:.4g} vs base IQR {r['base_iqr']:.4g}"
            f"  {r['verdict']} at {r['pairs']} pairs"
        )
    lines.extend(f"MISMATCH {m}" for m in summary["mismatches"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--head", required=True, help="changed checkout")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", help="write every run and summary here")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = []
    bad = False
    for workload in args.workload:
        for seed in args.seeds:
            pairs = []
            for k in range(args.pairs):
                sides = ("base", "head") if k % 2 == 0 else ("head", "base")
                runs = {
                    side: run_side(getattr(args, side), workload, seed, seconds)
                    for side in sides
                }
                pairs.append((runs["base"], runs["head"]))
            summary = summarise(pairs, spec)
            print("\n".join(format_summary(workload, seed, summary)), flush=True)
            bad = bad or bool(summary["mismatches"])
            report.append(
                {"workload": workload, "seed": seed, "runs": pairs, **summary}
            )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
