"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import gasket

# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in pathlib.Path(gasket.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from typing import List, Tuple\n"
              "def f(x: Tuple) -> int:\n"
              "    return math.floor(x[0])\n")
    assert unused_imports(source) == [(2, "os"), (3, "List")]


def test_no_unused_imports_in_package():
    assert len(MODULES) >= 9
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {k: v for k, v in found.items() if v} == {}
