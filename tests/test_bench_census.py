"""``benchmarks/census.py`` counts calls exactly: the same seeded pass
counted twice gives the same numbers, stage by stage."""

import importlib.util
import os
import pathlib
import sys

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_census_module():
    spec = importlib.util.spec_from_file_location(
        "bench_census", REPO_ROOT / "benchmarks" / "census.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_counts_of_one_pass_agree():
    census = load_census_module()
    sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "hps"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO_ROOT / "benchmarks" / "hps"))
    repro_dir = os.path.dirname(repro.__file__) + os.sep
    runs = [
        census.census(workloads, repro_dir, "cache_resident", 0, rounds=2, warmup=1)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    rounds, rows = runs[0]
    assert rounds == 2
    assert {"read", "prepare", "load", "train"} <= set(rows)
    assert all(sum(row) > 0 for row in rows.values())
    lines = census.format_census("cache_resident", rounds, rows)
    assert lines[0].startswith("== cache_resident") and lines[-1].startswith("total")
