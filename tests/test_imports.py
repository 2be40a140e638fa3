"""Lint: no module in src/, tests/ or perfbench/ imports a name it never uses."""

import ast
from pathlib import Path

import privcache

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """Names ``path`` binds by import and never reads.  A package's
    ``__all__`` counts as a use, and ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used.update(privcache.__all__)
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    files = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "tests").rglob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    assert {path.parent.name for path in files} >= {"privcache", "tests", "perfbench"}
    assert [hit for path in files for hit in unused_imports(path)] == []
