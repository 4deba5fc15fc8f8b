"""No module of the package imports a name it never reads.

``__init__.py`` is left out: its imports are the public API, read by
the package's users. Each other module under ``src/arbcheck`` is parsed
with ``ast``, so a removal that leaves a dead import behind fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arbcheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nfrom m import a, b as c\n"
              "def f(x: c) -> None:\n    a = 1\n")
    assert unused_imports(source) == ["a", "os"]


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"lp.py", "rationals.py", "tree.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
