"""Dead-code guard: no unused import in the package or the tests, no unreferenced private top-level name in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import stablemanifold

PACKAGE = Path(stablemanifold.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name the code refers to: bare names read, attributes and names imported from modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name an import binds that its module never reads, with its line.

    A name is read as a bare name (an attribute chain starts with one) or
    by listing it in ``__all__``; ``__future__`` imports bind nothing.
    """
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((name, node.lineno))
    return unused


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Private top-level functions, classes and assigned names, with their lines."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in defined if name.startswith("_") and not name.startswith("__")]


def _loaded_by_statement(tree: ast.Module, name: str) -> set[int]:
    """The top-level statements of ``tree`` (by line) that read ``name``."""
    return {node.lineno for node in tree.body if name in _loaded_names(node)}


@pytest.mark.parametrize(
    "path", MODULES + TESTS, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_every_import_is_used(path):
    unused = _unused_imports(_tree(path))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_private_top_level_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    unreferenced = []
    for module, tree in trees.items():
        for name, line in _private_definitions(tree):
            elsewhere = any(name in _loaded_names(other) for m, other in trees.items() if m != module)
            # a reference inside its own definition (recursion) does not count
            within = _loaded_by_statement(tree, name) - {line}
            if not (elsewhere or within):
                unreferenced.append(f"{module}:{line} {name}")
    assert not unreferenced, f"private names with no other reference: {unreferenced}"


def test_guard_catches_an_unused_import_and_an_orphan():
    tree = ast.parse("import math\nimport numpy as np\n\n\ndef _orphan():\n    return _orphan, np.pi\n")
    assert _unused_imports(tree) == [("math", 1)]
    assert _private_definitions(tree) == [("_orphan", 5)]
    assert _loaded_by_statement(tree, "_orphan") == {5}  # its own definition only
