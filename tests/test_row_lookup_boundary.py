"""Every exponent-to-row search goes through ``fock_core.Layout.find``.

The row order belongs to ``fock_core.layout``; other modules read its rows,
its neighbour tables and ``find``, and sort or search no rows of their own.
These checks read the source with ``ast``, so they hold without running any
lookup.
"""

import ast
from pathlib import Path

import pytest

import focklab

SOURCES = sorted(Path(focklab.__file__).parent.glob("*.py"))
OWNER = "fock_core"
SEARCHES = {"searchsorted", "argsort"}


def _called_names(tree) -> set[str]:
    return {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def _defined_names(tree) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != OWNER], ids=lambda p: p.stem)
def test_no_other_module_sorts_or_searches_rows(path):
    assert SEARCHES.isdisjoint(_called_names(ast.parse(path.read_text())))


def test_polycalc_keeps_no_table_of_its_own():
    tree = ast.parse((Path(focklab.__file__).parent / "polycalc.py").read_text())
    assert {"table", "CoeffTable"}.isdisjoint(_defined_names(tree))


def test_guard_sees_a_search_and_a_table():
    tree = ast.parse(
        "import numpy as np\n"
        "class CoeffTable:\n"
        "    pass\n"
        "def table(spec):\n"
        "    order = np.argsort(keys)\n"
        "    return order[searchsorted(keys, wanted)]\n"
    )
    assert SEARCHES <= _called_names(tree)
    assert {"table", "CoeffTable"} <= _defined_names(tree)
