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

Every hardware price is written once, in ``hardware/specs.py``: no rate,
latency or size of a hardware spec takes part in arithmetic anywhere else
under ``src/repro``, so the devices and both analytical models cannot
drift apart.
"""

import ast
import importlib.util
from dataclasses import fields
import pathlib
import shutil
import subprocess

import pytest

from repro.hardware import specs

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
    assert len(entries) <= 30


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
    ("file_id", "PayloadLostError's diagnostic: which file's payload was lost"),
)


#: calls whose string arguments name an attribute: (callee, argument
#: position, or None for every argument) — spans' ``patch(obj, attr, ...)``
#: included
ATTRIBUTE_NAMING_CALLS = {
    "getattr": 1, "hasattr": 1, "setattr": 1, "delattr": 1, "patch": 1,
    "attrgetter": None,
}


def attribute_names_in(call: ast.Call) -> list[str]:
    """The attribute names ``call`` spells as string constants (a dotted
    ``attrgetter`` path names each of its parts)."""
    callee = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(
        call.func, "id", None
    )
    if callee not in ATTRIBUTE_NAMING_CALLS:
        return []
    pos = ATTRIBUTE_NAMING_CALLS[callee]
    args = call.args if pos is None else call.args[pos : pos + 1]
    return [
        part
        for a in args
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
        for part in a.value.split(".")
    ]


def test_no_write_only_state_in_src():
    """A name-level scan: a stored name counts as read when an attribute
    load under src/, benchmarks/ or examples/ spells it, or a string
    constant names it as an attribute (:data:`ATTRIBUTE_NAMING_CALLS`).
    A bare name (a local or a parameter of the same spelling) or a dict
    key such as ``wl["batch_size"]`` is not a read of the attribute."""
    stored: dict[str, str] = {}
    loaded: set[str] = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            where = path.relative_to(REPO_ROOT).as_posix()
            for node in ast.walk(ast.parse(path.read_text(), where)):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif isinstance(node, ast.Call):
                    loaded.update(attribute_names_in(node))
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


@pytest.mark.parametrize(
    "source, names",
    [
        ("getattr(obj, 'a')", ["a"]),
        ("setattr(obj, 'a', 'b')", ["a"]),
        ("patch(mem, 'prefetch', 'mem.prefetch', i)", ["prefetch"]),
        ("attrgetter('mem_ps.cache', 'x')", ["mem_ps", "cache", "x"]),
        ("operator.attrgetter('a')", ["a"]),
        ("wl.get('batch_size')", []),
        ("print('batch_size')", []),
    ],
)
def test_only_attribute_naming_strings_count_as_reads(source, names):
    """A dict key or any other string spelling a stored name does not
    read it; a string handed to getattr and friends does."""
    call = next(n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call))
    assert attribute_names_in(call) == names


#: The hardware specs whose fields are prices' inputs.
PRICED_SPECS = (
    specs.GPUSpec, specs.NVLinkSpec, specs.NetworkSpec, specs.SSDSpec,
    specs.HDFSSpec, specs.CPUSpec,
)
#: Their rates, latencies and sizes: every field but the switches
#: (``rdma``) and the capacities (``memory_bytes``), which price nothing.
PRICE_FIELDS = frozenset(
    f.name
    for cls in PRICED_SPECS
    for f in fields(cls)
    if f.type != "bool" and f.name != "memory_bytes"
)
#: The one module allowed to write a price.
PRICE_MODULE = "src/repro/hardware/specs.py"


def price_formula_sites(root: pathlib.Path = REPO_ROOT) -> list[str]:
    """``path:line`` of every arithmetic operation outside
    :data:`PRICE_MODULE` with a spec field (:data:`PRICE_FIELDS`,
    spelled as an attribute: ``hw.hdfs.bandwidth``, ``self.spec.latency_s``)
    as an operand — a price written out again."""
    root = pathlib.Path(root)
    sites = set()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        where = path.relative_to(root).as_posix()
        if where == PRICE_MODULE:
            continue
        for node in ast.walk(ast.parse(path.read_text(), where)):
            if isinstance(node, ast.BinOp):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign):
                operands = (node.value,)
            else:
                continue
            if any(
                isinstance(o, ast.Attribute) and o.attr in PRICE_FIELDS
                for o in operands
            ):
                sites.add((where, node.lineno))
    return [f"{where}:{line}" for where, line in sorted(sites)]


def test_prices_are_written_only_in_the_specs():
    """A device or analytical model prices through the spec's method
    (``spec.transfer_seconds(n)``), never with ``spec.latency_s + n /
    spec.bandwidth`` of its own."""
    assert price_formula_sites() == []


def test_the_price_guard_sees_a_formula(tmp_path):
    """The guard flags each way a price can be spelled out again."""
    module = tmp_path / "src" / "repro" / "x.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "t = hw.hdfs.latency_s + n / hw.hdfs.bandwidth\n"
        "t += self.spec.cpu_bounce_overhead_s\n"
        "t = n / (gpu.flops * eff)\n"
        "m = cfg.memory_bytes * 0.3\n"
        "ok = hw.hdfs.transfer_seconds(n)\n"
    )
    assert price_formula_sites(tmp_path) == [
        "src/repro/x.py:1", "src/repro/x.py:2", "src/repro/x.py:3"
    ]
