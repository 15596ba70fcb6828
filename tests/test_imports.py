"""Every name imported in src/ and tests/ is used.

No linter ships with the project, so this walks the syntax tree of each
module: a name bound by an import must be referenced somewhere in the same
module or listed in its ``__all__``. Package ``__init__.py`` files exist to
re-export and are skipped, as are ``__future__`` imports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for folder in ("src", "tests")
                 for p in (ROOT / folder).rglob("*.py")
                 if p.name != "__init__.py")


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
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in getattr(node.value, "elts", ())
                     if isinstance(elt, ast.Constant)}
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
