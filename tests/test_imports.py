"""Every name a module of the package imports is used in that module, and
every module-level name is read somewhere in the package: a private one by
some module, a public one by some module or by the re-exports of
`__init__`."""

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


def _unread_names(sources, wanted):
    """(module, line, name) of each module-level name that passes `wanted`
    and that no module in `sources` reads, by name, attribute or import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            defined.extend((module, node.lineno, name)
                           for name in _module_level_names(node)
                           if wanted(name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def unread_private_names(sources):
    """Unread module-level `_name`s, dunders aside."""
    return _unread_names(sources, lambda name: name.startswith("_")
                         and not name.startswith("__"))


def unread_public_names(sources):
    """Unread public module-level names.  `__init__.py` is one of the
    sources, and its imports count as reads, so a re-exported name is
    kept."""
    return _unread_names(sources, lambda name: not name.startswith("_"))


def _package_sources():
    package = pathlib.Path(gasket.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(package.glob("*.py"))}
    assert len(sources) >= 10
    return sources


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
    assert unread_private_names(_package_sources()) == []


def test_checker_sees_unread_public_names():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("LIMIT = 3\n"
                 "ORPHAN, _hidden = 1, 2\n"
                 "def exported():\n"
                 "    return helper() + LIMIT\n"
                 "def helper():\n"
                 "    return 0\n"
                 "def dead():\n"
                 "    return _hidden\n"
                 "class Unused:\n"
                 "    pass\n"),
    }
    assert unread_public_names(sources) == [
        ("a.py", 2, "ORPHAN"), ("a.py", 7, "dead"), ("a.py", 9, "Unused")]


def test_no_unread_public_names_in_package():
    assert unread_public_names(_package_sources()) == []
