"""``benchmarks/pairs.py``'s summariser on canned driver result lines."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def load_pairs_module():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO_ROOT / "benchmarks" / "pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def driver_run(pairs, round_ms, *, digest="ab" * 32, sim=0.3125, failed=0):
    """A driver-form run as ``run.py`` prints it: one JSON result line on
    stdout, the digest on stderr."""
    metrics = {
        "setup_s": 0.5,
        "round_ms_p50": round_ms,
        "predict_ms_p50": 2.0,
        "sim_makespan_s": sim,
        "peak_rss_mb": 100.0,
    }
    stdout = json.dumps(
        {
            "correct": failed == 0,
            "attempted": 40,
            "failed": failed,
            "metrics": {
                k: {"value": v, "unit": "x"} for k, v in metrics.items()
            },
        }
    )
    stderr = f"[hps-bench] cache_resident seed 0 param_digest {digest}\n"
    return pairs.parse_run("log line\n" + stdout + "\n", stderr)


def by_metric(summary):
    return {row["metric"]: row for row in summary["metrics"]}


def test_a_consistent_win_is_resolved():
    pairs = load_pairs_module()
    runs = [
        (driver_run(pairs, b), driver_run(pairs, h))
        for b, h in zip([10.0, 10.2, 9.9, 10.1, 10.0], [9.0, 9.1, 9.2, 8.9, 9.0])
    ]
    summary = pairs.summarise(runs, SPEC)
    assert summary["mismatches"] == []
    row = by_metric(summary)["round_ms_p50"]
    assert row["base"]["median"] == 10.0 and row["head"]["median"] == 9.0
    assert row["ratio"] == 0.9
    assert row["head_wins"] == 5 and row["pairs"] == 5
    assert row["gap"] == 1.0 and row["gap"] > row["base_iqr"]
    assert row["verdict"] == "resolved better"
    # A metric equal on both sides is no one's win.
    setup = by_metric(summary)["setup_s"]
    assert setup["head_wins"] == 0 and setup["verdict"] == "unresolved"
    lines = pairs.format_summary("cache_resident", 0, summary)
    assert lines[0] == "== cache_resident seed 0"
    assert any("head wins 5/5" in line and "resolved better" in line for line in lines)


def test_noise_and_losses_are_told_apart():
    pairs = load_pairs_module()
    noisy = [(10.0, 9.0), (10.0, 11.0), (10.0, 9.5), (10.0, 10.5)]
    worse = [(10.0, 12.0), (10.1, 12.1), (9.9, 11.9), (10.0, 12.0)]
    for values, verdict in ((noisy, "unresolved"), (worse, "resolved worse")):
        runs = [(driver_run(pairs, b), driver_run(pairs, h)) for b, h in values]
        row = by_metric(pairs.summarise(runs, SPEC))["round_ms_p50"]
        assert row["verdict"] == verdict


def test_exact_outputs_must_agree():
    pairs = load_pairs_module()
    same = driver_run(pairs, 10.0)
    for head in (
        driver_run(pairs, 9.0, digest="cd" * 32),
        driver_run(pairs, 9.0, sim=0.5),
        driver_run(pairs, 9.0, failed=1),
    ):
        summary = pairs.summarise([(same, head)], SPEC)
        assert len(summary["mismatches"]) == 1
        assert any(line.startswith("MISMATCH") for line in
                   pairs.format_summary("w", 0, summary))
    assert pairs.summarise([(same, driver_run(pairs, 9.0))], SPEC)["mismatches"] == []
