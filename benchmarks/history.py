"""``python benchmarks/history.py append --commit <sha> <result.json>``
``python benchmarks/history.py show --workload W --metric M``

``append`` adds one line per workload of a suite run (``benchmarks/hps/run.py
--seed S --out result.json``) to ``BENCH_history.jsonl``: each
``BENCHMARK.json`` end-to-end metric as ``[median, q1, q3, n]`` (null where
the run keeps none), ``param_digest`` and ``failed`` / ``attempted``.
Append-only: a ``(commit, seed, workload)`` already on file is refused.
``show`` prints one metric's committed trajectory on one workload, in file
order: ``commit seed median [q1–q3] n``.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
HISTORY = ROOT / "BENCH_history.jsonl"


def rows(commit: str, result: dict) -> list[dict]:
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    out = []
    for name, w in result["workloads"].items():
        row = {"commit": commit, "seed": result["seed"], "workload": name}
        row.update({k: w[k] for k in ("attempted", "failed", "param_digest")})
        for metric in metrics:
            e = w["end_to_end"][metric]
            row[metric] = [e["value"], e.get("q1"), e.get("q3"), e.get("samples")]
        out.append(row)
    return out


def history() -> list[dict]:
    return [json.loads(x) for x in HISTORY.read_text().splitlines()] if HISTORY.exists() else []


def show(workload: str, metric: str) -> int:
    series = [r for r in history() if r["workload"] == workload and isinstance(r.get(metric), list)]
    for r in series:
        median, q1, q3, n = r[metric]
        spread = f" [{q1:.4g}–{q3:.4g}] n={n}" if q1 is not None else ""
        print(f"{r['commit'][:7]} seed {r['seed']} {median:.4g}{spread}")
    if not series:
        print(f"history.py: no {metric} rows for {workload}", file=sys.stderr)
    return 0 if series else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="append to / read BENCH_history.jsonl")
    verbs = parser.add_subparsers(dest="verb", required=True)
    append = verbs.add_parser("append")
    append.add_argument("--commit", required=True)
    append.add_argument("result", type=pathlib.Path)
    shown = verbs.add_parser("show")
    shown.add_argument("--workload", required=True)
    shown.add_argument("--metric", required=True)
    args = parser.parse_args(argv)
    if args.verb == "show":
        return show(args.workload, args.metric)
    new = rows(args.commit, json.loads(args.result.read_text()))
    seen = {(r["commit"], r["seed"], r["workload"]) for r in history()}
    if any((r["commit"], r["seed"], r["workload"]) in seen for r in new):
        print(f"history.py: {args.commit} seed {new[0]['seed']} already on file", file=sys.stderr)
        return 1
    with HISTORY.open("a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
