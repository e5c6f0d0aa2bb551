"""The Monte Carlo protocol stays behind ``unitary_haar.estimate``.

Chunking, substreams, the process pool and the merge are private to
``unitary_haar``; other modules hand a kernel to ``estimate``, and every Haar
sample comes from ``haar_batch``, the one function that draws Gaussians for
them.  These checks read the source with ``ast``, so they hold without
running any estimator.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import focklab

SOURCES = sorted(Path(focklab.__file__).parent.glob("*.py"))
OWNER = "unitary_haar"
PROTOCOL = {"substream", "chunk_plan", "ProcessPoolExecutor"}


def _called_names(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names[func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)] += 1
    return names


def _private_uses_of_owner(tree) -> list[str]:
    """Underscore names taken from the owner module, by import or attribute."""
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == OWNER:
                found += [a.name for a in node.names if a.name.startswith("_")]
            else:
                aliases |= {a.asname or a.name for a in node.names if a.name == OWNER}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name.endswith(f".{OWNER}") and a.asname}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            found.append(node.attr)
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != OWNER], ids=lambda p: p.stem)
def test_no_other_module_reaches_into_the_monte_carlo_protocol(path):
    tree = ast.parse(path.read_text())
    assert _private_uses_of_owner(tree) == []
    assert PROTOCOL.isdisjoint(_called_names(tree))


def test_estimate_is_the_one_path_through_the_protocol():
    calls = sum((_called_names(ast.parse(p.read_text())) for p in SOURCES), Counter())
    for name in ("substream", "chunk_plan", "_merge_stats", "_map_chunks"):
        assert calls[name] == 1, name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_calls_a_lapack_qr(path):
    # Haar samples come from the one Gram-Schmidt sampler in ``haar_batch``;
    # LAPACK's QR stays in the tests as its independent oracle.
    assert _called_names(ast.parse(path.read_text()))["qr"] == 0


def _callers(tree, name: str) -> list[str]:
    """Top-level definitions of ``tree`` that call ``name``; "<module>" for other statements."""
    return [getattr(node, "name", "<module>") for node in tree.body if _called_names(node)[name]]


def _defined(tree) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _tree(stem: str):
    return ast.parse((Path(focklab.__file__).parent / f"{stem}.py").read_text())


def test_haar_batch_is_the_one_sampler():
    assert _callers(_tree(OWNER), "standard_normal") == ["haar_batch"]
    assert all("_haar_columns" not in _defined(ast.parse(p.read_text())) for p in SOURCES)


@pytest.mark.parametrize("module, kernel", [(OWNER, "_haar_chunk"),
                                            ("hardy_chi", "_transform_kernel"),
                                            ("hardy_chi", "_pair_kernel")])
def test_each_monte_carlo_kernel_samples_through_haar_batch(module, kernel):
    assert kernel in _callers(_tree(module), "haar_batch")


def test_guard_sees_a_second_sampler():
    tree = ast.parse(
        "def haar_batch(m, count, rng):\n"
        "    return np.ascontiguousarray(_haar_columns(m, count, rng))\n"
        "def _haar_columns(m, count, rng):\n"
        "    return rng.standard_normal((count, m, m))\n"
        "def _haar_chunk(rng, count, m, transform):\n"
        "    return _moment_values(_haar_columns(m, count, rng))\n"
        "z = rng.standard_normal(3)\n"
    )
    assert _callers(tree, "standard_normal") == ["_haar_columns", "<module>"]
    assert "_haar_columns" in _defined(tree)
    assert _callers(tree, "haar_batch") == []
    assert _callers(tree, "_haar_columns") == ["haar_batch", "_haar_chunk"]


def test_guard_sees_a_private_import_and_a_protocol_call():
    tree = ast.parse(
        "from .unitary_haar import _merge_stats\n"
        "from . import unitary_haar as uh\n"
        "uh._map_chunks(f, [], 1)\n"
        "rng = uh.substream(1, 0)\n"
    )
    assert _private_uses_of_owner(tree) == ["_merge_stats", "_map_chunks"]
    assert {"substream", "_map_chunks"} <= set(_called_names(tree))
    assert _called_names(ast.parse("q, r = np.linalg.qr(z)"))["qr"] == 1
