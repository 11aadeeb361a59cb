"""``python benchmarks/history.py append --commit <sha> <result.json>``

Appends one line per workload of a suite run (``benchmarks/hps/run.py
--seed S --out result.json``) to ``BENCH_history.jsonl``: each
``BENCHMARK.json`` end-to-end metric as ``[median, q1, q3, n]`` (null where
the run keeps none), ``param_digest`` and ``failed`` / ``attempted``.
Append-only: a ``(commit, seed, workload)`` already on file is refused.
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="append a suite run to BENCH_history.jsonl")
    parser.add_argument("verb", choices=["append"])
    parser.add_argument("--commit", required=True)
    parser.add_argument("result", type=pathlib.Path)
    args = parser.parse_args(argv)
    new = rows(args.commit, json.loads(args.result.read_text()))
    lines = HISTORY.read_text().splitlines() if HISTORY.exists() else []
    seen = {(r["commit"], r["seed"], r["workload"]) for r in map(json.loads, lines)}
    if any((r["commit"], r["seed"], r["workload"]) in seen for r in new):
        print(f"history.py: {args.commit} seed {new[0]['seed']} already on file", file=sys.stderr)
        return 1
    with HISTORY.open("a", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
