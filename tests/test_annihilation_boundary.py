"""Both annihilation exponentials are Gram adjoints of ``exp_creation``.

Creation blocks are assembled in one place, ``operators._creation_blocks``,
which only ``creation`` and ``exp_creation`` call; ``exp_annihilation``
builds no block of its own, and the variant only picks the Gram through
``readout``.  These checks read the source with ``ast``, so they hold without
assembling any operator.
"""

import ast
from pathlib import Path

import focklab

SOURCES = sorted(Path(focklab.__file__).parent.glob("*.py"))


def _called_names(tree) -> set[str]:
    return {node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def _callers(tree, name: str) -> list[str]:
    """Top-level definitions of ``tree`` that call ``name``; "<module>" for other statements."""
    return [getattr(node, "name", "<module>") for node in tree.body
            if name in _called_names(node)]


def _body_calls(tree, function: str) -> set[str]:
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return _called_names(node)


def _operators():
    return ast.parse((Path(focklab.__file__).parent / "operators.py").read_text())


def test_only_the_creation_maps_assemble_creation_blocks():
    assert _callers(_operators(), "_creation_blocks") == ["creation", "exp_creation"]
    others = [p.stem for p in SOURCES if p.stem != "operators"
              and "_creation_blocks" in _called_names(ast.parse(p.read_text()))]
    assert others == []


def test_exp_annihilation_is_one_adjoint_of_exp_creation():
    assert _body_calls(_operators(), "exp_annihilation") == {"adjoint", "readout", "exp_creation"}


def test_guard_sees_a_second_annihilation_pipeline():
    tree = ast.parse(
        "def creation(a, m, spec):\n"
        "    return OperatorMatrix(spec, _creation_blocks(a, spec, m, m))\n"
        "def exp_creation(a, spec):\n"
        "    op = OperatorMatrix.identity(spec)\n"
        "    op.blocks.update(_creation_blocks(a, spec, 1, spec.max_degree, scaled=True))\n"
        "    return op\n"
        "def exp_annihilation(a, spec, variant):\n"
        "    if variant == MONOMIAL:\n"
        "        created = OperatorMatrix(spec, _creation_blocks(a, spec, 1, spec.max_degree))\n"
        "        op = OperatorMatrix.identity(spec)\n"
        "        op.blocks.update({k: (1.0 / math.factorial(k[0] - k[1])) * b\n"
        "                          for k, b in adjoint(GRAM_H, created).blocks.items()})\n"
        "        return op\n"
        "    return adjoint(GRAM_W, exp_creation(a, spec))\n"
    )
    assert _callers(tree, "_creation_blocks") == ["creation", "exp_creation", "exp_annihilation"]
    assert _body_calls(tree, "exp_annihilation") == {
        "adjoint", "exp_creation", "OperatorMatrix", "_creation_blocks", "identity", "update",
        "factorial", "items"}
