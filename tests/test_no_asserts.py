"""Static checks on the package source.

Invariants raise real exceptions: `python -O` strips `assert` statements,
so the package source must hold none.  Nor may a module keep an import it
never reads."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mannrates"


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(tree):
    """Module-level imported names that the module never reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_has_no_unused_imports():
    # __init__.py imports to re-export
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources
    found = [f"{path.name}:{line} {name}"
             for path in sources
             for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert found == []
