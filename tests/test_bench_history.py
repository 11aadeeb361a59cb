"""``BENCH_history.jsonl`` stays machine-readable: every line parses, speaks
``BENCHMARK.json``'s names, and no ``(commit, seed, workload)`` repeats."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
METRICS = {m["name"] for m in SPEC["end_to_end"]}
FIXED = {"commit", "seed", "workload", "attempted", "failed", "param_digest"}


def load_history_module():
    spec = importlib.util.spec_from_file_location(
        "bench_history", REPO_ROOT / "benchmarks" / "history.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_rows(rows: list[dict]) -> None:
    seen = set()
    for row in rows:
        assert FIXED <= set(row)
        assert row["workload"] in WORKLOADS
        assert set(row) - FIXED == METRICS
        for metric in METRICS:
            median, q1, q3, n = row[metric]
            assert isinstance(median, (int, float))
            assert (q1 is None) == (q3 is None) == (n is None)
        key = (row["commit"], row["seed"], row["workload"])
        assert key not in seen, f"duplicate history row {key}"
        seen.add(key)


def test_committed_history_parses_and_is_unique():
    lines = (REPO_ROOT / "BENCH_history.jsonl").read_text().splitlines()
    assert lines, "the history is seeded, never empty"
    check_rows([json.loads(line) for line in lines])


def test_append_writes_one_row_per_workload_and_refuses_repeats(tmp_path, monkeypatch):
    history = load_history_module()
    monkeypatch.setattr(history, "HISTORY", tmp_path / "history.jsonl")
    pooled = {"value": 20.0, "q1": 19.0, "q3": 21.0, "samples": 42, "unit": "ms"}
    result = {
        "seed": 3,
        "workloads": {
            name: {
                "attempted": 10,
                "failed": 0,
                "param_digest": "ab" * 32,
                "end_to_end": {
                    m: pooled if m.endswith("_p50") else {"value": 1.5}
                    for m in METRICS
                },
            }
            for name in sorted(WORKLOADS)
        },
    }
    path = tmp_path / "result.json"
    path.write_text(json.dumps(result))
    assert history.main(["append", "--commit", "c0ffee", str(path)]) == 0
    assert history.main(["append", "--commit", "c0ffee", str(path)]) == 1
    assert history.main(["append", "--commit", "decade", str(path)]) == 0
    rows = [json.loads(x) for x in history.HISTORY.read_text().splitlines()]
    assert len(rows) == 2 * len(WORKLOADS)
    check_rows(rows)
    assert rows[0]["round_ms_p50"] == [20.0, 19.0, 21.0, 42]
    assert rows[0]["setup_s"] == [1.5, None, None, None]


def test_show_prints_one_series_in_file_order(tmp_path, monkeypatch, capsys):
    history = load_history_module()
    monkeypatch.setattr(history, "HISTORY", tmp_path / "history.jsonl")
    rows = [
        {"commit": "aaaaaaa111", "seed": 0, "workload": "ssd_pressure",
         "round_ms_p50": [20.9, 20.25, 21.58, 42], "setup_s": [0.21, None, None, None]},
        {"commit": "aaaaaaa111", "seed": 0, "workload": "dense_heavy",
         "round_ms_p50": [72.0, 70.0, 74.0, 24], "setup_s": [0.4, None, None, None]},
        {"commit": "bbbbbbb222", "seed": 1, "workload": "ssd_pressure",
         "round_ms_p50": [19.25, 19.0, 19.5, 42], "setup_s": [0.2, None, None, None]},
    ]
    history.HISTORY.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert history.main(["show", "--workload", "ssd_pressure", "--metric", "round_ms_p50"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "aaaaaaa seed 0 20.9 [20.25–21.58] n=42",
        "bbbbbbb seed 1 19.25 [19–19.5] n=42",
    ]
    assert history.main(["show", "--workload", "dense_heavy", "--metric", "setup_s"]) == 0
    assert capsys.readouterr().out == "aaaaaaa seed 0 0.4\n"
    # An unknown workload or metric is an error, not an empty success.
    assert history.main(["show", "--workload", "ssd_pressure", "--metric", "nope"]) == 1
