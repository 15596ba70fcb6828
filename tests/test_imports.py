"""Every name imported in src/ and tests/ is used, and every export exists.

No linter ships with the project, so this walks the syntax tree of each
module: a name bound by an import must be referenced somewhere in the same
module or listed in its ``__all__``. Package ``__init__.py`` files exist to
re-export and are skipped, as are ``__future__`` imports. Because an
``__all__`` entry counts as a use, each entry of a src/ module's
``__all__`` must itself be bound at module level, so a stale entry cannot
hide an unused import.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for folder in ("src", "tests")
                 for p in (ROOT / folder).rglob("*.py")
                 if p.name != "__init__.py")


SOURCES = [p for p in MODULES if p.is_relative_to(ROOT / "src")]


def exports(tree) -> set:
    """The string entries of the module's ``__all__`` assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= {elt.value for elt in getattr(node.value, "elts", ())
                      if isinstance(elt, ast.Constant)}
    return names


def module_bindings(tree) -> set:
    """Names bound at module level: defs, classes, assignments, imports."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
    return bound


def unbound_exports(source: str) -> list:
    """``__all__`` entries that the module never binds."""
    tree = ast.parse(source)
    return sorted(exports(tree) - module_bindings(tree))


def unused_imports(source: str) -> list:
    """Names that an import binds but the module never references."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exports(tree)
    return sorted("%s (line %d)" % (name, line)
                  for name, line in bound.items() if name not in used)


def test_scan_finds_unused_and_honours_all():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom a import b, c\n"
              "__all__ = ['c']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["b (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unbound_exports():
    source = ("import os\nfrom a import b as c\nX: int = 1\nY = 2\n"
              "def f():\n    Z = 3\nclass K:\n    pass\n"
              "__all__ = ['os', 'c', 'X', 'Y', 'f', 'K', 'Z', 'b']\n")
    assert unbound_exports(source) == ["Z", "b"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text()) == []
