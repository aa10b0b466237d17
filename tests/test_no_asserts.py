"""Static checks on the package source.

Invariants raise real exceptions: `python -O` strips `assert` statements,
so the package source must hold none.  Nor may a module keep an import it
never reads, nor the package a private function nobody calls.  Nelder-Mead
has one implementation, `optimize._nelder_mead`: scipy's `minimize` serves
SLSQP only.  The stagewise optimizers have one stage loop,
`optimize._stagewise`: besides it, only the joint fixed-horizon search
builds an `OptimizationResult`."""

import ast
from collections import Counter
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


def _private_defs(tree):
    """Private module-level functions and private methods (not dunders)."""
    scopes = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    return [node for body in scopes for node in body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")]


def _referenced_names(tree):
    """How often each name is read as an identifier or attribute in `tree`."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_package_has_no_unreferenced_private_functions():
    # a name counts only if it is referenced outside the function's own body;
    # the package's references are counted once per module
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert trees
    used = sum((_referenced_names(t) for t in trees.values()), Counter())
    found = [f"{name}:{node.lineno} {node.name}"
             for name, tree in trees.items()
             for node in _private_defs(tree)
             if used[node.name] <= _referenced_names(node)[node.name]]
    assert found == []


def test_minimize_is_called_for_slsqp_only():
    calls = [(path.name, node)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "minimize"]
    assert calls
    found = [f"{name}:{node.lineno}" for name, node in calls
             if not any(kw.arg == "method" and isinstance(kw.value, ast.Constant)
                        and kw.value.value == "SLSQP" for kw in node.keywords)]
    assert found == []


def test_optimization_results_come_from_one_stage_loop():
    # the top-level definition around each OptimizationResult(...) call
    tree = ast.parse((PACKAGE / "optimize.py").read_text())
    found = {getattr(top, "name", None)
             for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "OptimizationResult"}
    assert found == {"_stagewise", "optimize_fixed_horizon"}
