"""The docs cite only code that exists.

Every backticked ``src/repro/…py`` path and every dotted ``repro.…`` name
in the README, the benchmark README and the verify skill must resolve: a
path by importing its module, a name by importing its longest module
prefix and ``getattr`` of the rest.  So must every Sphinx cross-reference
(``:func:``, ``:class:``, ``:meth:``, ``:attr:``, ``:data:``, ``:mod:``,
``:exc:``) to a ``repro.…`` target in ``src/repro``'s docstrings and
``#:`` comments.  A rename in ``src/`` that leaves a doc behind fails
here.  Every ``tests/…py`` path and ``tests/…py::Class::name`` test the
README and the verify skill cite must exist too: the file, and each
``::`` name as a class or function nested in the one before it.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = ("README.md", "benchmarks/hps/README.md", ".claude/skills/verify/SKILL.md")
_PATH = re.compile(r"`src/(repro/[\w/]+)\.py`")
_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_TEST = re.compile(r"\b(tests/[\w/]+\.py)((?:::\w+)*)")
_ROLE = re.compile(r":(?:func|class|meth|attr|data|mod|exc):`~?(repro(?:\.\w+)+)`")


def cited(doc: str) -> list[str]:
    text = (ROOT / doc).read_text()
    paths = {p.replace("/", ".") for p in _PATH.findall(text)}
    return sorted(paths | set(_NAME.findall(text)))


def resolve(name: str) -> object:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


@pytest.mark.parametrize("doc", DOCS)
def test_every_cited_name_resolves(doc):
    names = cited(doc)
    unresolved = []
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert names and unresolved == [], f"{doc} cites missing code: {unresolved}"


def test_every_docstring_cross_reference_resolves():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    targets = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in sources
        for name in _ROLE.findall(path.read_text())
    }
    unresolved = []
    for where, name in sorted(targets):
        try:
            resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(f"{where}: {name}")
    assert targets and unresolved == [], f"stale cross-references: {unresolved}"


def test_every_cited_test_resolves():
    docs = [ROOT / "README.md", *sorted((ROOT / ".claude/skills/verify").glob("*"))]
    cited_tests = {m for doc in docs for m in _TEST.findall(doc.read_text())}
    missing = []
    for path, names in sorted(cited_tests):
        file = ROOT / path
        if not file.is_file():
            missing.append(path)
            continue
        scope = ast.parse(file.read_text()).body
        for name in names.split("::")[1:]:
            defs = {
                node.name: node
                for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            }
            if name not in defs:
                missing.append(path + names)
                break
            scope = defs[name].body
    assert cited_tests and missing == [], f"docs cite missing tests: {missing}"
