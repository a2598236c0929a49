"""The package's export list names each public object once, and each
module reads every name it imports."""

import ast
from pathlib import Path

import pytest

import laros


def test_export_list_resolves_without_repeats():
    assert len(set(laros.__all__)) == len(laros.__all__)
    missing = [name for name in laros.__all__ if not hasattr(laros, name)]
    assert missing == []
    namespace = {}
    exec("from laros import *", namespace)
    assert set(laros.__all__) <= set(namespace)


def test_solver_state_folded_into_solution():
    # a solve's residuals, history and certificate are fields of Solution
    assert not hasattr(laros, "SolverState")
    assert not hasattr(laros.solver, "SolverState")


def unused_imports(source):
    """Names that `source` imports but neither reads nor lists in its
    `__all__`, sorted."""
    tree = ast.parse(source)
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_unused_import_walk():
    source = ("import math\nimport numpy as np\nfrom os import path, sep\n"
              "__all__ = ['sep']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["math", "path"]


@pytest.mark.parametrize("module", sorted(
    path.name for path in Path(laros.__file__).parent.glob("*.py")))
def test_module_reads_its_imports(module):
    path = Path(laros.__file__).parent / module
    assert unused_imports(path.read_text(encoding="utf-8")) == []
