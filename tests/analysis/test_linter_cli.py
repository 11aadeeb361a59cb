"""The ``python -m repro.analysis`` CLI and the tree-wide clean gate."""

import json
import os
import subprocess
import sys
import textwrap

from repro.analysis import DEFAULT_RULES, lint_paths
from repro.analysis.__main__ import main

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _write(tmp_path, rel, snippet):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(snippet))
    return path


class TestLintPaths:
    def test_walks_directories_and_anchors_relpaths(self, tmp_path, monkeypatch):
        _write(
            tmp_path,
            "src/repro/mem/bad.py",
            """
            def f(keys):
                for k in keys:
                    pass
            """,
        )
        _write(tmp_path, "src/repro/mem/good.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        report = lint_paths(["src"], DEFAULT_RULES)
        assert report.files_scanned == 2
        (finding,) = report.active
        assert finding.path == "src/repro/mem/bad.py"
        assert not report.ok

    def test_explicit_root_anchor(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/ckpt/bad.py",
            """
            def f(p):
                open(p, "w")
            """,
        )
        report = lint_paths(
            [str(tmp_path / "src")], DEFAULT_RULES, root=str(tmp_path)
        )
        (finding,) = report.active
        assert finding.path == "src/repro/ckpt/bad.py"
        assert finding.rule == "atomic-write"

    def test_report_json_shape(self, tmp_path, monkeypatch):
        _write(
            tmp_path,
            "src/repro/mem/mixed.py",
            """
            def f(keys, uniq):
                for k in keys:  # repro: allow(hot-loop)
                    pass
                for k in uniq:
                    pass
            """,
        )
        monkeypatch.chdir(tmp_path)
        report = lint_paths(["src"], DEFAULT_RULES)
        payload = report.to_json()
        assert payload["schema"] == "repro-analysis/v1"
        assert payload["files_scanned"] == 1
        assert len(payload["active"]) == 1
        assert len(payload["suppressed"]) == 1
        assert set(payload["rules"]) == {r.id for r in DEFAULT_RULES}


class TestCLI:
    def test_exit_zero_and_json_on_clean_tree(self, tmp_path, monkeypatch, capsys):
        _write(tmp_path, "src/repro/mem/good.py", "x = 1\n")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "findings.json"
        assert main(["src", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-analysis/v1"
        assert payload["active"] == []
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_active_finding(self, tmp_path, monkeypatch, capsys):
        _write(
            tmp_path,
            "src/repro/mem/bad.py",
            """
            def f(keys):
                for k in keys:
                    pass
            """,
        )
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        captured = capsys.readouterr().out
        assert "src/repro/mem/bad.py:3: [hot-loop]" in captured
        assert "FAILED" in captured

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in DEFAULT_RULES:
            assert rule.id in out

    def test_at_least_five_active_rules(self):
        assert len(DEFAULT_RULES) >= 5
        assert len({r.id for r in DEFAULT_RULES}) == len(DEFAULT_RULES)


#: Suppressed findings allowed under ``src/`` (all ``f64-hot-path``:
#: allreduce 3, hbm_ps 1, mem_ps 1).
MAX_SRC_SUPPRESSIONS = 5


class TestTreeIsClean:
    """The repo itself must pass its own linter (the CI gate)."""

    def test_whole_tree_scan_is_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        report = lint_paths(
            ["src", "tests", "benchmarks"], DEFAULT_RULES
        )
        assert report.files_scanned > 100
        assert report.ok, "\n".join(f.format() for f in report.active)
        # The calibrated escapes — the bit-exact float64 accumulations —
        # are suppressed, not silently dropped: a vanished suppression
        # means a rule stopped seeing real code.
        assert report.suppressed, "expected in-tree suppressions to exist"
        # ...and they are a budget, not a habit: a new escape in src/
        # has to raise this ceiling on purpose.
        in_src = [f for f in report.suppressed if f.path.startswith("src/")]
        assert len(in_src) <= MAX_SRC_SUPPRESSIONS, "\n".join(
            f.format() for f in in_src
        )

    def test_module_invocation_matches_api(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "--quiet"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout
