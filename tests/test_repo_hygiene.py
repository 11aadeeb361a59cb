"""CI guards on the tree itself.

The tracked tree must contain no bytecode artifacts: committed ``.pyc``
files go stale silently (they shadow source edits on mismatched
interpreter versions) and bloat every checkout; ``.gitignore`` keeps them
out locally and this check keeps them out of the index.

``benchmarks/reach_allow.txt`` must name only defs that exist, each once
and with a known reason, so deleting a def forces its entry out too.
(Whether the listed defs are still unreached is the CI ``reachability``
job's question; it runs the scenarios, this test runs none.)

Every ``self.<name>`` store and dataclass field in ``src/repro`` must have
a reader outside ``tests/`` — one place each fact is recorded, and no
record kept only for the tests to look at.
"""

import ast
import importlib.util
import pathlib
import shutil
import subprocess

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def tracked_files() -> list[str]:
    if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    out = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "ls-files"],
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()


def test_no_bytecode_tracked():
    offenders = [
        f
        for f in tracked_files()
        if f.endswith((".pyc", ".pyo")) or "__pycache__" in f.split("/")
    ]
    assert offenders == [], f"bytecode artifacts committed: {offenders}"


def test_gitignore_covers_bytecode():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    assert "__pycache__/" in gitignore
    assert "*.py[cod]" in gitignore


def load_reach_module():
    spec = importlib.util.spec_from_file_location(
        "bench_reach", REPO_ROOT / "benchmarks" / "reach.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_allowlist_names_existing_defs_with_a_reason():
    reach = load_reach_module()
    entries = reach.read_allowlist(str(REPO_ROOT / reach.ALLOW_FILE))
    names = [(path, qualname) for path, qualname, _ in entries]
    defined = {
        (path, qualname) for (path, _), (qualname, _) in reach.defs(str(REPO_ROOT)).items()
    }
    assert sorted({n for n in names if names.count(n) > 1}) == []
    assert [n for n in names if n not in defined] == []
    assert [e for e in entries if e[2] not in reach.REASONS] == []
    # A ceiling, like the ROADMAP's structural needles: keeping more
    # unreached code has to raise it on purpose.
    assert len(entries) <= 45


def test_every_reach_reason_has_a_listed_entry():
    """A reason whose group the list no longer holds goes from
    ``REASONS`` too, so the set of reasons never outlives the code."""
    reach = load_reach_module()
    entries = reach.read_allowlist(str(REPO_ROOT / reach.ALLOW_FILE))
    used = {reason for _, _, reason in entries}
    assert [r for r in reach.REASONS if r not in used] == []


#: two defs of a fake checkout, as ``reach.defs`` keys them
FAKE_DEFS = {
    ("src/repro/a.py", 1): ("kept", 3),
    ("src/repro/a.py", 5): ("Gone.method", 2),
}


def test_reach_verdict_passes_when_the_list_is_exactly_the_unreached():
    reach = load_reach_module()
    allowed = {("src/repro/a.py", "kept")}
    report, code = reach.verdict(FAKE_DEFS, [("src/repro/a.py", 1)], allowed)
    assert (report, code) == ([], 0)
    report, _ = reach.verdict(FAKE_DEFS, [("src/repro/a.py", 1)], allowed, show_all=True)
    assert report == ["  src/repro/a.py:kept  (line 1)"]


def test_reach_verdict_fails_on_an_unlisted_unreached_def():
    reach = load_reach_module()
    unreached = [("src/repro/a.py", 1), ("src/repro/a.py", 5)]
    report, code = reach.verdict(FAKE_DEFS, unreached, {("src/repro/a.py", "kept")})
    assert code == 1
    assert "! src/repro/a.py:Gone.method  (line 5)" in report


def test_reach_verdict_fails_on_a_stale_entry():
    """A listed def that a scenario now reaches (or that was deleted)
    fails the gate, so the list never outlives its reason."""
    reach = load_reach_module()
    allowed = {("src/repro/a.py", "kept"), ("src/repro/b.py", "deleted")}
    report, code = reach.verdict(FAKE_DEFS, [("src/repro/a.py", 1)], allowed)
    assert code == 1
    assert report[0] == (
        "listed but not unreached (reached, or gone): src/repro/b.py:deleted"
    )
    assert allowed == {("src/repro/a.py", "kept"), ("src/repro/b.py", "deleted")}


#: state nothing outside ``tests/`` reads, kept on purpose: (name, reason)
_COUNTER = "a device work counter; item 16 checks the charges against it"
WRITE_ONLY_KEPT = (
    ("bytes_sent", _COUNTER), ("messages_sent", _COUNTER), ("bytes_moved", _COUNTER),
    ("read_ops", _COUNTER), ("write_ops", _COUNTER),
    ("restore_stats", "HPSCluster.restore returns the cluster: its cost lives here"),
)


def test_no_write_only_state_in_src():
    """A name-level scan: a stored name counts as read when any attribute
    load, name load or string constant under src/, benchmarks/ or
    examples/ spells it."""
    stored: dict[str, str] = {}
    loaded: set[str] = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            where = path.relative_to(REPO_ROOT).as_posix()
            for node in ast.walk(ast.parse(path.read_text(), where)):
                if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(
                    node.ctx, ast.Load
                ):
                    loaded.add(node.attr if isinstance(node, ast.Attribute) else node.id)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    loaded.add(node.value)
                elif not where.startswith("src/repro/"):
                    continue
                elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self":
                    stored.setdefault(node.attr, f"{where}:{node.lineno}")
                elif isinstance(node, ast.ClassDef) and "dataclass" in str(
                    [ast.unparse(d) for d in node.decorator_list]
                ):
                    for f in node.body:
                        if isinstance(f, ast.AnnAssign):
                            stored.setdefault(ast.unparse(f.target), f"{where}:{f.lineno}")
    kept = dict(WRITE_ONLY_KEPT)
    assert len(kept) <= 10 and all(kept.values())
    unread = {name: where for name, where in stored.items() if name not in loaded}
    assert sorted(f"{w} {n}" for n, w in unread.items() if n not in kept) == []
    # An entry whose name gained a reader, or is gone, leaves the list.
    assert sorted(kept) == sorted(unread)
