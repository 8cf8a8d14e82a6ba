"""Checks on the package source itself, read with `ast`."""

import ast
from pathlib import Path

import pytest

import kmaut

MODULES = sorted(path for path in Path(kmaut.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_are_used(path):
    """Every module-level import of a module (`__init__` re-exports, the
    others do not) is read somewhere in it."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items()
            if name not in used} == {}


def test_module_level_definitions_are_read():
    """Every module-level function or class of the package is read
    somewhere in it, as a name or an attribute, or is re-exported by
    `__init__`; the tests do not count as readers."""
    package = Path(kmaut.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = {alias.asname or alias.name
                for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = ["%s.%s" % (name[:-3], node.name)
              for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in read | exported]
    assert unread == []
