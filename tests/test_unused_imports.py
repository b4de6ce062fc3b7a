"""Every name a ``mixprec`` module imports is used in that module.

No linter is a dependency of the project, so this parses each module with
``ast``. ``__init__.py`` is skipped: its imports are the package's exports.
Names read only inside string annotations count as used.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mixprec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def annotations(tree: ast.AST) -> list[ast.expr]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            found.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            found.append(node.returns)
    return found


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = [name for name in imported_names(tree) if name not in used_names(tree)]
    assert not unused, f"{path.name}: unused imports {unused}"
