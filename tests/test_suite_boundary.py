"""Each contracted case is declared once, in ``suites.CASES``.

``cli`` parses, runs and writes; it defines no suite, builds no ``Case`` and
reads no tolerance.  In ``suites``, ``declared_case`` is the one place a
``Case`` is built.  These checks read the source with ``ast``, so they hold
without running a suite.
"""

import ast
from collections import Counter
from pathlib import Path

from focklab import cli, suites


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text())


def _called_names(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names[func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)] += 1
    return names


def _defined_functions(tree) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def test_cli_defines_no_suite_and_builds_no_case():
    tree = _tree(cli)
    assert not {name for name in _defined_functions(tree) if name.startswith("suite_")}
    calls = _called_names(tree)
    assert calls["Case"] == 0 and calls["tol"] == 0


def test_declared_case_is_the_one_place_a_case_is_built():
    tree = _tree(suites)
    assert _called_names(tree)["Case"] == 1
    builders = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and _called_names(node)["Case"]]
    assert builders == ["declared_case"]
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and _called_names(node)["tol"]] == ["declared_case"]


def test_every_suite_function_is_a_runner():
    suite_functions = {name for name in _defined_functions(_tree(suites))
                       if name.startswith("suite_")}
    assert suite_functions == {runner.__name__ for runner in suites.SUITE_RUNNERS.values()}


def test_every_case_id_starts_with_its_suite_name():
    for case_id in suites.CASES:
        assert case_id.split(".", 1)[0] in suites.SUITE_RUNNERS, case_id
    assert {case_id.split(".", 1)[0] for case_id in suites.CASES} == set(suites.SUITE_RUNNERS)


def test_guard_sees_a_suite_a_case_and_a_tolerance_read():
    tree = ast.parse(
        "def suite_x(cfg):\n"
        "    return [Case('x.a', 's', 0.0, cfg.tol('group', 1e-10))]\n"
    )
    assert "suite_x" in _defined_functions(tree)
    assert _called_names(tree)["Case"] == 1 and _called_names(tree)["tol"] == 1
