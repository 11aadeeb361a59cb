"""Smoke test of the benchmark of record: the suite at two segments per
pass must emit exactly the metrics ``BENCHMARK.json`` names, fail no
operation, agree traced vs untraced, and keep its own files lint-clean.

No timing is asserted — this checks the benchmark's plumbing, not speed.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.analysis import DEFAULT_RULES, lint_paths

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("hps-smoke") / "smoke.json"
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--smoke",
            "--seed", "0",
            "--out", str(out),
            "--scratch", str(out.parent / "scratch"),
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def test_emits_exactly_the_named_metrics(spec, smoke):
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    names = e2e + layers + [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(e2e + layers)) == len(e2e + layers)
    assert "setup_s" in e2e
    assert set(smoke["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, result in smoke["workloads"].items():
        assert sorted(result["end_to_end"]) == sorted(e2e), name
        assert sorted(result["per_layer"]) == sorted(layers), name
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for metric, entry in {**result["end_to_end"], **result["per_layer"]}.items():
            assert entry["unit"] == units[metric], (name, metric)


def test_no_operation_failed_and_traced_agrees(smoke):
    for name, result in smoke["workloads"].items():
        # `failures` includes the cross-pass checks: every pass, traced or
        # not, agreed on param_digest, sim_makespan_s and eval_auc.
        assert result["failures"] == [], name
        assert result["failed_share"] == 0, name
        assert result["attempted"] > 0, name
        assert re.fullmatch(r"[0-9a-f]{64}", result["param_digest"]), name


def test_benchmark_files_are_lint_clean():
    report = lint_paths([HERE], DEFAULT_RULES, root=REPO_ROOT)
    assert report.files_scanned >= 5
    assert report.ok, "\n".join(f.format() for f in report.active)
