"""Every name a module of the package imports is used in that module, and
every module-level private name is read somewhere in the package."""

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


def _module_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def unread_private_names(sources):
    """(module, line, name) of each module-level `_name` (not a dunder) that
    no module in `sources` reads, by name, attribute or import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            defined.extend((module, node.lineno, name)
                           for name in _module_level_names(node)
                           if name.startswith("_")
                           and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_checker_sees_unread_private_names():
    sources = {
        "a.py": ("import b\n"
                 "_used = 1\n"
                 "_unused, _pair = 2, 3\n"
                 "def _helper():\n"
                 "    return _used + b._CONST\n"),
        "b.py": ("from a import _helper\n"
                 "__all__ = []\n"
                 "_CONST: int = 3\n"
                 "class _Orphan:\n"
                 "    def _method(self):\n"
                 "        _local = 1\n"),
    }
    assert unread_private_names(sources) == [
        ("a.py", 3, "_pair"), ("a.py", 3, "_unused"), ("b.py", 4, "_Orphan")]


def test_no_unread_private_names_in_package():
    package = pathlib.Path(gasket.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(package.glob("*.py"))}
    assert len(sources) >= 10
    assert unread_private_names(sources) == []
