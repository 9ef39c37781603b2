"""No module under ``src/``, ``tests/``, ``benchmarks/`` or
``examples/`` imports a name it never uses.

The repo runs no linter, so this stdlib-``ast`` scan is the guard.  A
name counts as used when the module reads it (including inside a quoted
annotation), lists it in ``__all__``, or re-exports it on purpose: a
``lazy_exports`` table names it from that module, or its import line is
marked ``# noqa: F401``.  A fixture imported from a ``conftest`` module
counts as used when a function takes it as a parameter.
``from __future__`` imports are directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _strings(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _lazy_exports() -> Dict[str, Set[str]]:
    """module -> the names some package's ``lazy_exports`` table takes from it."""
    table: Dict[str, Set[str]] = {}
    for path in SRC.rglob("__init__.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "lazy_exports"):
                exports = node.args[1]
                for key, names in zip(exports.keys, exports.values):
                    table.setdefault(key.value, set()).update(_strings(names))
    return table


def unused_imports(source: str, filename: str, exported=frozenset()) -> List[str]:
    """``line: name`` for each name ``source`` imports and never uses."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    imported: Dict[str, int] = {}
    fixtures: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            if module == "__future__":
                continue
            if "noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
                if module.split(".")[-1] == "conftest":
                    fixtures.add(name)
    used = set(exported)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.arg in fixtures:
            used.add(node.arg)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(_strings(node.value))
        annotation = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        for text in _strings(annotation) if annotation is not None else ():
            try:
                quoted = ast.parse(text, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


def test_src_has_no_unused_imports():
    lazy = _lazy_exports()
    found = []
    for path in sorted(SRC.rglob("*.py")):
        exported = lazy.get(_module_name(path), frozenset())
        for hit in unused_imports(path.read_text(), str(path), exported):
            found.append(f"{path.relative_to(SRC)}:{hit}")
    assert found == []


@pytest.mark.parametrize("root", ["tests", "benchmarks", "examples"])
def test_scripts_have_no_unused_imports(root):
    found = [
        f"{path.relative_to(ROOT)}:{hit}"
        for path in sorted((ROOT / root).rglob("*.py"))
        for hit in unused_imports(path.read_text(), str(path))
    ]
    assert found == []


def test_the_scan_sees_what_it_should():
    source = '''
from __future__ import annotations
import os, os.path as osp
from typing import Dict, List, Optional
from json import dumps  # noqa: F401
from json import loads
__all__ = ["loads"]
def f(x: "Optional[int]") -> Dict:
    return osp
'''
    assert unused_imports(source, "<case>") == ["3: os", "4: List"]
    assert unused_imports(source, "<case>", {"os", "List"}) == []
    fixtures = '''
from tests.conftest import tiny, unused
def test_x(tiny):
    pass
'''
    assert unused_imports(fixtures, "<case>") == ["2: unused"]
