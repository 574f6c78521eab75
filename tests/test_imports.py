"""Every name a module in src/ imports is used there (stdlib ast; no linter is needed).

The package's __init__.py is exempt: its imports are the public API.
"""

import ast
import os

import pytest

import cuplength

PACKAGE_DIR = os.path.dirname(cuplength.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py") and f != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line, __future__ imports excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_scanner_finds_an_unused_import():
    tree = ast.parse('import os\nfrom x import a, b as c\ndef f(y: "a") -> None:\n    return os\n')
    assert set(imported_names(tree)) - used_names(tree) == {"c"}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE_DIR, module)) as fh:
        tree = ast.parse(fh.read())
    imported = imported_names(tree)
    unused = sorted(set(imported) - used_names(tree))
    assert not unused, f"{module}: unused imports " + ", ".join(f"{n} (line {imported[n]})" for n in unused)
