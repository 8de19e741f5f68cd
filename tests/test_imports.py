"""Import lint: every name a package module imports is used or exported.

No pyflakes or ruff is assumed; the check parses each module with ``ast``.
A name counts as used when it appears as a load anywhere in the module
(string annotations included) or is listed in ``__all__``.  The package
``__init__`` is exempt, since its imports are the public re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "floqlux"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):  # string annotations: "Derivatives | None"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_used(ast.parse(node.value)))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_lint_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n\nx: 'Sequence' = pi\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["os", "tau"]
