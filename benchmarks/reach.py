"""Reachability census of ``src/repro``, gated by an allowlist::

    python3 benchmarks/reach.py [--root CHECKOUT] [--list]

Runs the committed scenarios — every ``examples/*.py``, ``pytest
benchmarks/``, ``benchmarks/hps/run.py --smoke --seed 0`` and CI's lint
command, ``python -m repro.analysis src tests benchmarks`` — with a
``sys.setprofile`` hook that records every Python function entered, then
matches the record against every ``def`` under ``CHECKOUT/src/repro``
(found with ``ast``).  The hook is installed by a ``sitecustomize`` on
``PYTHONPATH``, so subprocesses (``run.py``'s passes) are counted too;
while it counts, ``sys.setprofile`` ignores other callers, because
pytest-benchmark calls ``sys.setprofile(None)`` around every timed call.

It prints ``defs / reached / unreached / lines`` and exits non-zero when
a def no scenario reaches is not listed in ``benchmarks/reach_allow.txt``
— the one place a decision to keep unreached code lives — and when a
listed def is reached or gone, so the list never outlives its reason.  Each line
there is ``src/repro/PATH.py:QUALNAME  REASON`` with ``REASON`` one of
:data:`REASONS`; ``#`` starts a comment.  ``--list`` prints every
unreached def, listed or not.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOW_FILE = os.path.join("benchmarks", "reach_allow.txt")

#: why an unreached def stays; each is explained in ``reach_allow.txt``
REASONS = (
    "item 1(a)", "item 2", "abstract", "oracle",
    "input-dependent", "trivial",
)

# Installed as sitecustomize.py: record every code object entered, and
# at exit write the (file, first line) of those under src/repro.
_HOOK = '''\
import atexit, os, sys
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _dump():
    sys.setprofile = _setprofile
    _setprofile(None)
    src = os.environ["REACH_SRC"]
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "w") as fh:
        for code in _seen:
            if code.co_filename.startswith(src):
                fh.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
_setprofile = sys.setprofile
_setprofile(_hook)
sys.setprofile = lambda fn: None
atexit.register(_dump)
'''


def defs(root: str) -> dict[tuple[str, int], tuple[str, int]]:
    """``{(path, first line): (qualname, lines)}`` for every function under
    ``root/src/repro``; the first line is a decorator's when there is one,
    as in ``co_firstlineno``, and ``path`` is relative to ``root``."""
    out: dict[tuple[str, int], tuple[str, int]] = {}
    src_dir = os.path.join(root, "src", "repro")

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path, first] = (prefix + child.name, child.end_lineno - first + 1)
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for file in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"), recursive=True)):
        with open(file) as fh:
            tree = ast.parse(fh.read(), file)
        walk(tree, os.path.relpath(file, root).replace(os.sep, "/"), "")
    return out


def read_allowlist(path: str) -> list[tuple[str, str, str]]:
    """``[(path, qualname, reason)]`` in file order (none when there is no
    file); raises ``ValueError`` on a line that is not
    ``PATH:QUALNAME  REASON``."""
    entries: list[tuple[str, str, str]] = []
    if not os.path.exists(path):
        return entries
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            name, _, reason = line.partition(" ")
            where, sep, qualname = name.partition(":")
            if not sep or not qualname:
                raise ValueError(f"{path}:{number}: no PATH:QUALNAME in {line!r}")
            entries.append((where, qualname, reason.strip()))
    return entries


def run_scenarios(root: str, out_dir: str) -> None:
    """Run every committed scenario under the hook, one process at a time."""
    hook_dir = os.path.join(out_dir, "hook")
    os.makedirs(hook_dir)
    with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
        fh.write(_HOOK)
    src = os.path.join(root, "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([hook_dir, src]),
        REACH_SRC=os.path.join(src, "repro") + os.sep,
        REACH_OUT=out_dir,
    )
    scenarios = [[p] for p in sorted(glob.glob(os.path.join(root, "examples", "*.py")))]
    scenarios.append(["-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"])
    scenarios.append([
        os.path.join("benchmarks", "hps", "run.py"), "--smoke", "--seed", "0",
        "--out", os.path.join(out_dir, "smoke.json"),
    ])
    scenarios.append([
        "-m", "repro.analysis", "src", "tests", "benchmarks",
        "--json", os.path.join(out_dir, "analysis.json"),
    ])
    for args in scenarios:
        print("[reach] python", *args, file=sys.stderr, flush=True)
        subprocess.run(
            [sys.executable, *args], cwd=root, env=env, check=True,
            stdout=sys.stderr,
        )


def reached(out_dir: str, root: str) -> set[tuple[str, int]]:
    """``{(path, first line)}`` every counted process entered."""
    seen = set()
    for file in glob.glob(os.path.join(out_dir, "*.txt")):
        with open(file) as fh:
            for line in fh:
                filename, first = line.rstrip("\n").split("\t")
                path = os.path.relpath(filename, root).replace(os.sep, "/")
                seen.add((path, int(first)))
    return seen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=DEFAULT_ROOT, help="checkout to count")
    parser.add_argument("--list", action="store_true", help="print every unreached def")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    all_defs = defs(root)
    with tempfile.TemporaryDirectory(prefix="reach-") as out_dir:
        run_scenarios(root, out_dir)
        seen = reached(out_dir, root)
    unreached = sorted(key for key in all_defs if key not in seen)
    lines = sum(all_defs[key][1] for key in unreached)
    print(
        f"defs {len(all_defs)} / reached {len(all_defs) - len(unreached)} / "
        f"unreached {len(unreached)} / lines {lines}"
    )
    allowed = {(path, qualname) for path, qualname, _ in read_allowlist(
        os.path.join(root, ALLOW_FILE))}
    report, code = verdict(all_defs, unreached, allowed, show_all=args.list)
    for line in report:
        print(line)
    return code


def verdict(
    all_defs: dict[tuple[str, int], tuple[str, int]],
    unreached: list[tuple[str, int]],
    allowed: set[tuple[str, str]],
    show_all: bool = False,
) -> tuple[list[str], int]:
    """The report lines and exit code for ``unreached`` (keys of
    ``all_defs``) against the allow-list's ``(path, qualname)`` names: 1
    when an unreached def is unlisted or a listed def is reached or gone,
    else 0.  ``show_all`` also prints the listed unreached defs."""
    allowed = set(allowed)
    out: list[str] = []
    missing = 0
    for path, first in unreached:
        qualname = all_defs[path, first][0]
        listed = (path, qualname) in allowed
        allowed.discard((path, qualname))
        missing += not listed
        if show_all or not listed:
            out.append(f"{'  ' if listed else '! '}{path}:{qualname}  (line {first})")
    for path, qualname in sorted(allowed):
        out.append(f"listed but not unreached (reached, or gone): {path}:{qualname}")
    if missing:
        out.append(f"{missing} unreached defs are not in {ALLOW_FILE}: "
                   "reach them from a scenario, delete them, or list them with a reason")
    if allowed:
        out.append(f"{len(allowed)} entries of {ALLOW_FILE} are reached or gone: "
                   "delete them")
    return out, 1 if missing or allowed else 0


if __name__ == "__main__":
    sys.exit(main())
