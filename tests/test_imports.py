"""No module of the package imports a name it never reads, and no public
function or method of it is read only by the tests.

``__init__.py`` is left out of both scans of definitions: its imports
are the public API, read by the package's users. Each other module
under ``src/arbcheck`` is parsed with ``ast``, so a removal that leaves
a dead import behind fails here, and so does a public function or
method that no module of the package and no non-test file of ``bench/``
loads. A bare name counts as a load only in a file that imports or
defines it, so a local variable that shadows a public name is none.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arbcheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the code that runs the package: its own modules and the benchmark's
# non-test files, which are only read here
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted(
    p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


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


def public_definitions(source):
    """The public top-level functions of ``source`` and the public
    methods of its top-level classes, as names."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, functions):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body if isinstance(item, functions))
    return {name for name in names if not name.startswith("_")}


def loaded_names(source):
    """Every name ``source`` reads as an attribute, and every name it
    reads as a variable where it imports or defines that name, by its
    imported name (``r`` for ``from m import r as s``): a local variable
    that shadows a public name does not load it."""
    tree = ast.parse(source)
    bound = {node.name: node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name.partition(".")[0]
                bound[alias.asname or name] = name
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            names.add(bound[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nfrom m import a, b as c\n"
              "def f(x: c) -> None:\n    a = 1\n")
    assert unused_imports(source) == ["a", "os"]


def test_public_definitions_and_loads_are_found():
    source = ("from m import g, r as s\ndef f():\n    return g.h + k + s + _p()\n"
              "def _p():\n    pass\nclass C:\n"
              "    def m(self):\n        self.n = 1\n    def _q(self):\n        pass\n")
    assert public_definitions(source) == {"f", "m"}
    assert loaded_names(source) == {"g", "h", "r", "_p"}
    # a local list named like a public function does not load it
    shadowed = "def f(xs):\n    gains = []\n    gains.append(xs)\n    return gains\n"
    assert loaded_names(shadowed) == {"append"}


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"lp.py", "rationals.py", "tree.py"}
    assert {p.name for p in CALLERS} >= {"__init__.py", "run.py", "spans.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_public_definition_has_a_caller_outside_the_tests():
    loaded = set()
    for path in CALLERS:
        loaded |= loaded_names(path.read_text(encoding="utf-8"))
    unread = {f"{path.name}: {name}" for path in MODULES
              for name in public_definitions(path.read_text(encoding="utf-8"))
              if name not in loaded}
    assert unread == set()
