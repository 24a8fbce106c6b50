"""Every exported name resolves, so a deletion cannot leave a stale export,
no module reaches into another's private names, sampled traces keep one
stencil rule, callables are accepted only where a caller passes one, and
only ``chebyshev`` knows the layout of a Chebyshev table."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import oscinv

MODULES = ["oscinv"] + sorted(f"oscinv.{m.name}"
                              for m in pkgutil.iter_modules(oscinv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_module_imports_a_private_name():
    found = []
    for path in sorted(pathlib.Path(oscinv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_only_traces_solves_stencils():
    # TimeTrace.derivative_at is the one stencil-window rule; a module that
    # calls fd_weights itself would be a second
    found = []
    for path in sorted(pathlib.Path(oscinv.__file__).parent.glob("*.py")):
        if path.name == "traces.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", getattr(node, "attr", None))
            if isinstance(node, (ast.Name, ast.Attribute)) \
                    and name == "fd_weights":
                found.append(path.name)
    assert found == []


def test_callables_are_accepted_only_where_a_caller_passes_one():
    # a callable drive (split_source) and a callable kernel (the reference
    # march of solve_second_kind); every other argument has one input form
    allowed = {("sources.py", "split_source"),
               ("volterra.py", "solve_second_kind")}
    found = []
    for path in sorted(pathlib.Path(oscinv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = _callable_tests(tree)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) \
                    and (path.name, func.name) in allowed:
                lines -= _callable_tests(func)
        found += [f"{path.name}:{n}" for n in sorted(lines)]
    assert found == []


def _callable_tests(tree):
    """Line numbers of the callable(...) calls under an AST node."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "callable"}


def test_chebyshev_exports_one_table_type():
    from oscinv import chebyshev
    assert set(chebyshev.__all__) == {
        "N_MAX", "points", "Table", "converge", "coefficient_matrix",
        "cumulative_matrix", "clenshaw_curtis", "differentiation_matrix"}


def test_only_chebyshev_knows_the_table_layout():
    # a Chebyshev table is a chebyshev.Table; a module that indexes one
    # as a (nodes, values) pair would know its layout
    pattern = re.compile(r"(\.table|\bfound)\[[01]\]")
    found = []
    for path in sorted(pathlib.Path(oscinv.__file__).parent.glob("*.py")):
        if path.name == "chebyshev.py":
            continue
        found += [f"{path.name}:{i}" for i, line in
                  enumerate(path.read_text().splitlines(), 1)
                  if pattern.search(line)]
    assert found == []


def _sources():
    return sorted(pathlib.Path(oscinv.__file__).parent.glob("*.py"))


def test_only_grid_knows_the_step_and_the_uniformity_check():
    # traces.Grid holds the one step, (stop - start) / n; a first
    # difference of nodes or a mean step elsewhere would be a second
    patterns = {
        "same_grid": re.compile(r"\bsame_grid\b"),
        "first difference": re.compile(r"([\w.]+)\[1\]\s*-\s*\1\[0\]"),
        "mean step": re.compile(r"\[-1\]\s*-\s*[\w.]+\[0\]\)\s*/\s*\(?"
                                r"[\w.]+\.size\s*-\s*1"),
    }
    found = [f"{path.name}:{i} {what}" for path in _sources()
             for i, line in enumerate(path.read_text().splitlines(), 1)
             for what, pattern in patterns.items() if pattern.search(line)]
    assert found == []
    # node arrays are checked for uniformity in Grid.of alone
    checks = []
    for path in _sources():
        tree = ast.parse(path.read_text())
        owners = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for owner in owners:
            for func in owner.body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                where = (f"{owner.name}.{func.name}"
                         if isinstance(owner, ast.ClassDef) else func.name)
                checks += [f"{path.name}:{where}" for node in ast.walk(func)
                           if isinstance(node, ast.Attribute)
                           and node.attr == "allclose"]
    assert checks == ["traces.py:Grid.of"]
