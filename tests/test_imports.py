"""Every module-level import of the package is read by its module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lcsdyn"

#: (module, name) imports kept on purpose: perfbench/test_smoke.py checks that
#: its tracer rebinds birkhoff's step_points
KEPT = {("birkhoff", "step_points")}


def _unread_imports(tree: ast.Module, module: str) -> list:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{module}.py:{line} {name}" for name, line in bound.items()
                  if name not in read and (module, name) not in KEPT)


def test_no_module_level_import_goes_unread():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # re-exports
    assert modules
    unread = [hit for p in modules for hit in _unread_imports(ast.parse(p.read_text()), p.stem)]
    assert unread == []


def test_an_unread_import_is_found():
    tree = ast.parse("import os\nfrom math import pi, tau as t\n\ndef f():\n    return pi\n")
    assert _unread_imports(tree, "m") == ["m.py:1 os", "m.py:2 t"]
