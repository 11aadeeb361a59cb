"""Compare two suite results (``run.py --out``) under the bounds fixed in
``BENCHMARK.json``::

    python3 benchmarks/hps/compare.py base.json new.json

One row per (end-to-end metric, workload).  A metric that is worse than
the base by more than its bound is a REGRESSION.  A wall metric whose
pass-to-pass spread in either file exceeds its bound is reported as
``unresolved`` rather than unchanged — the runs cannot tell.  Any
difference in ``param_digest``, ``eval_auc`` or an exact (simulated)
metric is flagged.  Exits non-zero on a regression or a higher
``failed_share``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

#: Metrics read off the simulated clock or a counter: they repeat exactly,
#: so any difference is a change to the program, never noise.  Per-layer
#: ones are recognised by unit, plus the ratios of two counters.
EXACT = {"sim_makespan_s"}
EXACT_UNITS = {"count", "bytes", "sim_s", "loss", "auc", "%"}
EXACT_RATIOS = {
    "mem.hit_rate",
    "ssd.extent_hit_rate",
    "ssd.space_amplification",
    "core.sim_pipeline_speedup",
}

#: The paper's losslessness claim: AUC within 0.1% — absolute, because a
#: share of ~0.7 would be seven times looser.
EVAL_AUC_ABS_BOUND = 0.001


def _spread(entry: dict) -> float:
    """(max - min) / median of the per-pass values, 0 when not recorded."""
    values = sorted(entry.get("passes") or [])
    if len(values) < 2:
        return 0.0
    return (values[-1] - values[0]) / values[len(values) // 2]


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    rows: list[str] = []
    bad = False
    for name in base["workloads"]:
        b, n = base["workloads"][name], new["workloads"].get(name)
        if n is None:
            rows.append(f"{name}: missing from the new result  REGRESSION")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            be, ne = b["end_to_end"].get(key), n["end_to_end"].get(key)
            if be is None or ne is None:
                rows.append(f"{name:18s} {key:16s} missing  REGRESSION")
                bad = True
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (ne["value"] - be["value"]) / abs(be["value"])
            spread = max(_spread(be), _spread(ne))
            if worse > bound:
                verdict = "REGRESSION"
                bad = True
            elif key in EXACT and ne["value"] != be["value"]:
                verdict = "CHANGED (exact metric)"
            elif spread > bound:
                verdict = f"unresolved (spread {spread:.1%} > bound)"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            rows.append(
                f"{name:18s} {key:16s} {be['value']:14.6g} -> {ne['value']:14.6g} "
                f"{ne['unit']:9s} {worse:+8.2%} worse (bound {bound:.1%})  {verdict}"
            )
        for metric in spec["per_layer"]:
            key = metric["name"]
            if metric["unit"] not in EXACT_UNITS and key not in EXACT_RATIOS:
                continue
            bv = b["per_layer"].get(key, {}).get("value")
            nv = n["per_layer"].get(key, {}).get("value")
            if bv != nv:
                rows.append(
                    f"{name:18s} {key:30s} {bv} -> {nv} {metric['unit']}"
                    "  CHANGED (exact metric)"
                )
        if b.get("param_digest") != n.get("param_digest"):
            rows.append(f"{name:18s} param_digest differs  CHANGED")
        if b.get("eval_auc") != n.get("eval_auc"):
            drop = (b.get("eval_auc") or 0.0) - (n.get("eval_auc") or 0.0)
            verdict = "CHANGED"
            if drop > EVAL_AUC_ABS_BOUND:
                verdict = "REGRESSION"
                bad = True
            rows.append(
                f"{name:18s} eval_auc {b.get('eval_auc')} -> {n.get('eval_auc')}"
                f"  {verdict}"
            )
        if n["failed_share"] > b["failed_share"]:
            rows.append(
                f"{name:18s} failed_share {b['failed_share']:.4g} -> "
                f"{n['failed_share']:.4g}  REGRESSION"
            )
            bad = True
    return rows, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    loaded = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    rows, bad = compare(loaded[0], loaded[1], spec)
    print("\n".join(rows))
    print("FAILED: regression" if bad else "ok: no regression")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
