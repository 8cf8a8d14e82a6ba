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


def _definitions(tree):
    """(class name or None, function node, whether it is a method taking
    self or cls) of every function of a module, nested ones included."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                out.append((cls, child, cls is not None and not static))
                visit(child, None)
            else:
                visit(child, cls)
    visit(tree, None)
    return out


def test_every_defaulted_parameter_is_passed():
    """Every parameter with a default, of a function or method of the
    package, is passed by some call in the package, the tests or `bench/`,
    by keyword or by position: a default that no call overrides is a
    setting that nothing runs.  Calls are matched by name (a class call and
    `super().__init__` count for `__init__`); a `*args` call passes every
    positional parameter and a `**kwargs` call every one; a call of a name
    that its own test or bench file defines counts only there."""
    package = Path(kmaut.__file__).parent
    root = package.parent.parent
    sources = {path: ast.parse(path.read_text()) for path in
               [*sorted(package.glob("*.py")), *sorted(root.glob("tests/*.py")),
                *sorted(root.glob("bench/*.py"))]}
    calls = {}
    for path, tree in sources.items():
        local = set() if path.parent == package else {
            fn.name for _, fn, _ in _definitions(tree)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id not in local:
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            npos = (float("inf") if any(isinstance(a, ast.Starred)
                                        for a in node.args) else len(node.args))
            calls.setdefault(name, []).append(
                (npos, {k.arg for k in node.keywords}))
    unset = []
    for path in sorted(package.glob("*.py")):
        for cls, fn, method in _definitions(sources[path]):
            found = calls.get(cls if fn.name == "__init__" else fn.name, [])
            if fn.name == "__init__":
                found = found + calls.get("__init__", [])
            args = fn.args
            pos = (args.posonlyargs + args.args)[1 if method else 0:]
            first = len(pos) - len(args.defaults)
            params = [(i, a.arg) for i, a in enumerate(pos) if i >= first] + [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
            unset += ["%s.%s(%s)" % (path.stem, ".".join(filter(None, (
                cls, fn.name))), name) for i, name in params
                if not any(None in kws or name in kws
                           or i is not None and npos > i
                           for npos, kws in found)]
    assert unset == []


# name: the one module that may read it
OWNED = {**dict.fromkeys(("_pcomp", "_pinv", "_porder", "ID_PERM", "X_PERM",
                          "Y_PERM"), "autg.py"),
         **dict.fromkeys(("_galois_table", "_apply_table"), "cyclo.py")}


def test_outer_words_and_galois_tables_are_read_by_their_owner_only():
    """Outer words are multiplied in `autg` only, and other modules ask it
    for an order (`outer_order`); complex conjugation of coordinates is
    `cyclo._conjugation`, so only `cyclo` reads the Galois tables.  Checked
    on imports, anywhere in a module, and on attribute reads."""
    strays = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            strays += ["%s:%d %s" % (path.name, node.lineno, name)
                       for name in names if OWNED.get(name, path.name) != path.name]
    assert strays == []


def test_compact_conjugation_is_spelled_once():
    """X -> -conj(X)^T, the negated `conj_transpose()`, is written in
    `SimpleAlgebra.omega_matrix` only; `Automorphism.apply_matrix` calls it."""
    found = set()
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.UnaryOp)
                        and isinstance(node.op, ast.USub)
                        and isinstance(node.operand, ast.Call)
                        and isinstance(node.operand.func, ast.Attribute)
                        and node.operand.func.attr == "conj_transpose"):
                    found.add((path.name, fn.name))
    assert found == {("algebra.py", "omega_matrix")}
