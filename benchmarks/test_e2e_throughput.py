"""Simulated-clock end-to-end ledger: recovery and fault tolerance.

``run_e2e_throughput`` regenerates the two scenarios of the committed
``BENCH_e2e.json``; both come off the simulated clock, so every number
is deterministic.  Per run this benchmark asserts

* checkpointing stays lossless — the recovery scenario's parity flags
  hold (its byte/seconds claims are pinned against the committed
  artifact in tests/plan/test_bench_schema.py);
* fault recovery stays lossless and bounded — the faults scenario's
  healed runs are bit-identical to their fault-free twins, and (inside
  the CI perf-smoke job, ``BENCH_COMPARE=1``) the fresh downtime
  fraction never exceeds the committed baseline's by more than the
  regression tolerance.

Wall-clock throughput is not measured here: ``benchmarks/hps`` is the
benchmark of record for it (repeats, spread, per-layer trace).

Set ``BENCH_WRITE=1`` to refresh ``BENCH_e2e.json`` at the repo root.
"""

import json
import os
import pathlib

from repro.bench.harness import BENCH_E2E_SCHEMA, run_e2e_throughput

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_e2e.json"

#: Simulated, so any drift is a semantic change, not machine noise — the
#: tolerance only absorbs deliberate workload retuning.
REGRESSION_TOLERANCE = 0.30


def test_e2e_throughput(benchmark):
    # Snapshot the committed baseline, then (under BENCH_WRITE=1) let the
    # harness's own serializer refresh it *before* any assertion, so a
    # failing run still uploads its actual measurement and manual
    # regenerations produce byte-identical files.
    baseline_snapshot = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else None
    )
    write_path = (
        str(BASELINE_PATH) if os.environ.get("BENCH_WRITE") == "1" else None
    )
    doc = benchmark.pedantic(
        run_e2e_throughput, kwargs={"write_path": write_path}, rounds=1,
        iterations=1,
    )
    assert doc["schema"] == BENCH_E2E_SCHEMA
    scenarios = {s["name"]: s for s in doc["scenarios"]}
    recovery = scenarios["recovery"]
    faults = scenarios["faults"]
    print(
        f"\nfull-over-delta bytes: "
        f"{recovery['bytes_ratio_full_over_delta']:.2f}x; downtime fraction: "
        + ", ".join(
            f"{r['mode']} {r['downtime_fraction']:.4f}" for r in faults["rows"]
        )
    )

    assert recovery["snapshot_parameter_parity"] is True
    assert recovery["recovery_parameter_parity"] is True
    # The fault-tolerance invariant: every fault in the bench schedule
    # is recoverable, so the supervised runs must heal to bit-identical
    # parameters.
    assert faults["parameter_parity"] is True

    if os.environ.get("BENCH_COMPARE") == "1" and baseline_snapshot:
        fresh_rows = {
            (s["name"], r["mode"]): r
            for s in doc["scenarios"]
            for r in s["rows"]
        }
        for base_scenario in baseline_snapshot.get("scenarios", []):
            for base_row in base_scenario.get("rows", []):
                fresh = fresh_rows.get(
                    (base_scenario["name"], base_row["mode"])
                )
                if fresh is None or "downtime_fraction" not in base_row:
                    continue
                ceiling = (
                    base_row["downtime_fraction"]
                    * (1.0 + REGRESSION_TOLERANCE)
                    + 1e-9
                )
                assert fresh["downtime_fraction"] <= ceiling, (
                    f"{base_scenario['name']}/{base_row['mode']} "
                    f"downtime regressed: "
                    f"{fresh['downtime_fraction']:.4f} > "
                    f"{ceiling:.4f} (committed "
                    f"{base_row['downtime_fraction']:.4f} "
                    f"+ tolerance)"
                )
