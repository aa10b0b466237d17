"""Static checks on the package source.

Invariants raise real exceptions: `python -O` strips `assert` statements,
so the package source must hold none.  Nor may a module keep an import it
never reads, nor the package a private function nobody calls.  Nelder-Mead
has one implementation, `optimize._nelder_mead`, and SLSQP one,
`optimize.minimize`, an in-house loop on scipy's kernel: the package
imports no `minimize` from scipy, and every `minimize` call names
method="SLSQP".  The stagewise optimizers have one stage loop,
`optimize._stagewise`: besides it, only the joint fixed-horizon search
builds an `OptimizationResult`.  The distance table has one rule:
`distances.extend_table` writes its entries and residuals, besides the
boundary entries of `empty_table`.  The package starts child processes in
one place, the MS stage's `optimize._StartsWorker`.  It has one exact
linear solver, the integer elimination `optimize._bareiss_solve`, and no
`Fraction` Gaussian elimination beside it.  It solves LPs in one place, the
free stage certificate's dual proposer `optimize._propose_duals`, so the
stage searches stay free of LP solves."""

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
    trees = [(path.name, ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))]
    calls = [(name, node)
             for name, tree in trees
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "minimize"]
    assert calls
    found = [f"{name}:{node.lineno}" for name, node in calls
             if not any(kw.arg == "method" and isinstance(kw.value, ast.Constant)
                        and kw.value.value == "SLSQP" for kw in node.keywords)]
    assert found == []
    # the calls reach the in-house loop: nothing imports scipy's minimize,
    # by name or by a star import, and no call reads it as an attribute
    scipy_imports = [f"{name}:{node.lineno}"
                     for name, tree in trees
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     and (node.module or "").split(".")[0] == "scipy"
                     and any(alias.name in ("minimize", "*") for alias in node.names)]
    assert scipy_imports == []
    assert [f"{name}:{node.lineno}" for name, node in calls
            if not isinstance(node.func, ast.Name)] == []


def test_optimization_results_come_from_one_stage_loop():
    # the top-level definition around each OptimizationResult(...) call
    tree = ast.parse((PACKAGE / "optimize.py").read_text())
    found = {getattr(top, "name", None)
             for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "OptimizationResult"}
    assert found == {"_stagewise", "optimize_fixed_horizon"}


def test_table_entries_come_from_one_table_rule():
    # the top-level definition around each call that writes a table entry,
    # `set_d`, or appends a residual; `empty_table` writes the boundary
    # entries, `extend_table` every other one
    writes = {"set_d", "residuals.append", "residuals.extend", "residuals.insert"}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    owner = getattr(node.func.value, "attr", None)
                    if (node.func.attr in writes
                            or f"{owner}.{node.func.attr}" in writes):
                        found.add(f"{path.name}:{getattr(top, 'name', None)}")
    assert found == {"distances.py:empty_table", "distances.py:extend_table"}


def _linprog_references(tree):
    """True for each call of `linprog` in `tree`, False for each other node
    that names it: an attribute or name read, or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == "linprog":
                yield True
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == "linprog" for alias in node.names):
                yield False
        elif getattr(node, "id", getattr(node, "attr", None)) == "linprog":
            yield False


def test_linprog_is_called_only_by_the_dual_proposer():
    # the top-level definition around each reference to `linprog`: only the
    # free stage certificate's proposer, which calls it once
    found, calls = set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for is_call in _linprog_references(top):
                found.add(f"{path.name}:{getattr(top, 'name', None)}")
                calls += is_call
    assert found == {"optimize.py:_propose_duals"}
    assert calls == 1


def _is_row_swap(node):
    """M[i], M[j] = M[j], M[i]: the pivoting step of an elimination."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Tuple)):
        return False
    left, right = node.targets[0].elts, node.value.elts
    return (len(left) == len(right) == 2
            and all(isinstance(e, ast.Subscript) for e in left + right)
            and ast.unparse(left[0]) == ast.unparse(right[1])
            and ast.unparse(left[1]) == ast.unparse(right[0]))


def _is_row_division(node):
    """M[i] = [x / p for x in M[i]]: a row scaled by its pivot, as a
    `Fraction` elimination does."""
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Subscript) for t in node.targets)
            and isinstance(node.value, ast.ListComp)
            and isinstance(node.value.elt, ast.BinOp)
            and isinstance(node.value.elt.op, ast.Div))


def test_one_exact_linear_solver():
    # the top-level definitions that swap or divide rows as an elimination
    # does: only the integer solver
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if any(_is_row_swap(node) or _is_row_division(node)
                   for node in ast.walk(top)):
                found.add(f"{path.name}:{getattr(top, 'name', None)}")
    assert found == {"optimize.py:_bareiss_solve"}


def _process_lines(tree):
    """Lines that import or name `multiprocessing` or `subprocess`, or that
    reach `os.fork` (or `os.forkpty`)."""
    modules = {"multiprocessing", "subprocess"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] in modules for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            hit = root in modules or (root == "os" and any(
                alias.name.startswith("fork") for alias in node.names))
        elif isinstance(node, ast.Name):
            hit = node.id in modules
        elif isinstance(node, ast.Attribute):
            hit = (node.attr.startswith("fork")
                   and getattr(node.value, "id", None) == "os")
        else:
            hit = False
        if hit:
            yield node.lineno


def test_processes_start_only_in_the_starts_worker():
    # the MS stage's worker is the package's one child process
    workers = []
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "_StartsWorker":
                workers.append(path.name)
                inside = set(range(node.lineno, node.end_lineno + 1))
        found += [f"{path.name}:{line}" for line in _process_lines(tree)
                  if line not in inside]
    assert workers == ["optimize.py"]
    assert found == []
