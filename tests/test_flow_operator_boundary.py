"""Every Weyl operator in ``heisenberg`` is one ``FlowOperator``.

The Weyl operators, the working representation and its dressed variant
differ only in the map from a parameter to (shift, mult, scale); one class
holds the step list and one call runs it through ``polycalc._wide_flow``.
These checks read the source with ``ast``, so they hold without applying any
operator.
"""

import ast
from pathlib import Path

import focklab

SOURCES = sorted(Path(focklab.__file__).parent.glob("*.py"))
DELETED = {"_Flow", "WeylOperator", "WSOperator", "DisplayedOperator", "WSOperatorChi"}


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


def test_heisenberg_has_one_step_list_and_one_flow_call():
    tree = ast.parse((Path(focklab.__file__).parent / "heisenberg.py").read_text())
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
