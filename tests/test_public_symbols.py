"""Every public symbol is used by the program, the benchmark harness or an
acceptance criterion: each name in a module's ``__all__`` is referenced in
``src/berklip`` outside its own definition, in ``perfbench/*.py`` or in
``tests/test_acceptance.py``, or it is a ``NamedTuple`` record type; so
is each public method (a name without a leading ``_``) of a class in
``src/berklip``.  A symbol that only other tests use belongs in
``tests/oracles.py``.  Each private helper (a top-level function or class,
or a method, named with one leading ``_``) is read in ``src/berklip``
outside its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "berklip"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defines(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def _names_read(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read as a variable or an attribute under ``node``, leaving out
    the subtree ``skip``."""
    out: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _referenced(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Names read as a variable or an attribute in ``tree``, leaving out the
    top-level statement that defines ``skip``."""
    out: set[str] = set()
    for stmt in tree.body:
        if skip is None or skip not in _defines(stmt):
            out |= _names_read(stmt)
    return out


def _public(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and "__all__" in _defines(stmt):
            return list(ast.literal_eval(stmt.value))
    return []


def _records(tree: ast.Module) -> set[str]:
    return {
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in stmt.bases)
    }


def _outside() -> set[str]:
    """Names read in ``perfbench/*.py`` and ``tests/test_acceptance.py``."""
    out: set[str] = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]:
        out |= _referenced(_parse(path))
    return out


def test_every_public_symbol_has_a_user():
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = _outside()
    checked = 0
    unused = []
    for path, tree in modules.items():
        records = _records(tree)
        for name in _public(tree):
            checked += 1
            if name in records or name in outside:
                continue
            if not any(name in _referenced(other, name if other is tree else None)
                       for other in modules.values()):
                unused.append(f"{path.stem}.{name}")
    assert checked >= 40, checked
    assert not unused, f"public symbols used only by tests: {unused}"


def test_every_public_method_has_a_user():
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = _outside()
    checked = 0
    unused = []
    for path, tree in modules.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                checked += 1
                if method.name in outside:
                    continue
                if not any(method.name in _names_read(other, method) for other in modules.values()):
                    unused.append(f"{path.stem}.{cls.name}.{method.name}")
    assert checked >= 20, checked
    assert not unused, f"public methods used only by tests: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_has_a_src_caller():
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    checked = 0
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _private(node.name):
                checked += 1
                if not any(node.name in _referenced(other, node.name if other is tree else None)
                           for other in modules.values()):
                    unused.append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and _private(method.name):
                    checked += 1
                    if not any(method.name in _names_read(other, method)
                               for other in modules.values()):
                        unused.append(f"{path.stem}.{node.name}.{method.name}")
    assert checked >= 40, checked
    assert not unused, f"private helpers no src code reads: {unused}"
