"""Every Weyl operator in ``heisenberg`` is one ``FlowOperator``.

The Weyl operators, the working representation and its dressed variant
differ only in the map from a parameter to (shift, mult, scale); one class
holds the step list and one call runs it through ``polycalc._wide_flow``.
One operator is exact on the truncated space, so only the composed residuals
take a ``margin``.  No record carries a setting that changes nothing: a
virtual unitary has no ``depth`` and a case has no ``contracted`` flag.
These checks read the source with ``ast``, so they hold without applying any
operator.
"""

import ast
from pathlib import Path

import focklab

SOURCES = sorted(Path(focklab.__file__).parent.glob("*.py"))
DELETED = {"_Flow", "WeylOperator", "WSOperator", "DisplayedOperator", "WSOperatorChi"}
MARGIN_TAKERS = {"weyl_relation_residual", "ws_homomorphism_residual"}


def _tree(module: str):
    return ast.parse((Path(focklab.__file__).parent / f"{module}.py").read_text())


def _classes_defining(tree, method: str) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == method
                    for item in node.body)}


def _calls_of(tree, name: str) -> int:
    return sum(1 for node in ast.walk(tree) if isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == name
                    or getattr(node.func, "attr", None) == name))


def _defined_names(tree) -> set[str]:
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return names | {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}


def _functions_taking(tree, name: str) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and any(arg.arg == name for arg in
                    node.args.posonlyargs + node.args.args + node.args.kwonlyargs)}


def _fields(tree, cls: str) -> set[str]:
    return {item.target.id for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == cls
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


def test_heisenberg_has_one_step_list_and_one_flow_call():
    tree = _tree("heisenberg")
    assert _classes_defining(tree, "steps") == {"FlowOperator"}
    assert _calls_of(tree, "_wide_flow") == 1


def test_no_module_defines_a_deleted_operator_class():
    for path in SOURCES:
        assert DELETED.isdisjoint(_defined_names(ast.parse(path.read_text()))), path.stem


def test_guard_sees_two_step_lists_two_flow_calls_and_a_deleted_name():
    tree = ast.parse(
        "class WeylOperator:\n"
        "    def steps(self):\n"
        "        return []\n"
        "    def apply(self, f):\n"
        "        return pc._wide_flow(f, self.steps())\n"
        "class Other:\n"
        "    def steps(self):\n"
        "        return []\n"
        "WSOperatorChi = WeylOperator\n"
        "def run(f):\n"
        "    return _wide_flow(f, [])\n"
    )
    assert _classes_defining(tree, "steps") == {"WeylOperator", "Other"}
    assert _calls_of(tree, "_wide_flow") == 2
    assert DELETED & _defined_names(tree) == {"WeylOperator", "WSOperatorChi"}


def test_only_the_composed_residuals_take_a_margin():
    tree = _tree("heisenberg")
    assert _functions_taking(tree, "margin") == MARGIN_TAKERS
    assert _fields(tree, "FlowOperator") == {"shift", "mult", "scale"}


def test_no_record_carries_a_setting_that_changes_nothing():
    virtual = _fields(_tree("unitary_haar"), "VirtualUnitary")
    assert "top" in virtual and "depth" not in virtual
    assert _fields(_tree("suites"), "Case") == {"id", "statement", "residual", "tolerance"}


def test_guard_sees_a_margin_parameter_and_the_dropped_fields():
    tree = ast.parse(
        "class FlowOperator:\n"
        "    shift: int\n"
        "    margin: int = 0\n"
        "    def apply(self, f, margin=0):\n"
        "        return f\n"
        "class Case:\n"
        "    id: str\n"
        "    contracted: bool = True\n"
        "def weyl(p, *, margin):\n"
        "    return p\n"
        "def weyl_relation_residual(p, q, f, margin=16):\n"
        "    return 0.0\n"
    )
    assert _functions_taking(tree, "margin") == {"apply", "weyl", "weyl_relation_residual"}
    assert _fields(tree, "FlowOperator") == {"shift", "margin"}
    assert _fields(tree, "Case") == {"id", "contracted"}
    assert _fields(tree, "Other") == set()
