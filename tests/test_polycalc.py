"""Gather kernels of the coefficient calculus against the scatter loops they
replaced, and the fibre flows of the wide workspaces against the gather kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focklab import polycalc as pc
from focklab.fock_core import EVector, TruncationSpec, layout
from focklab.partitions import BasisKey

SPECS = (TruncationSpec(6, 3), TruncationSpec(10, 4))


# -- reference: per-coordinate scatter loops ----------------------------------

def _neighbours(spec):
    """Index of key +/- e_k, or -1 outside, built from the key enumeration alone."""
    rows = layout(spec)
    size, d = rows.size, spec.dim
    index = {key: i for i, key in enumerate(rows.keys)}
    up = np.full((size, d), -1, dtype=np.int64)
    down = np.full((size, d), -1, dtype=np.int64)
    for i, key in enumerate(rows.keys):
        exps = np.array(key.exponents(d))
        for k in range(d):
            if exps.sum() < spec.max_degree:
                bumped = exps.copy()
                bumped[k] += 1
                up[i, k] = index[BasisKey.from_exponents(bumped)]
            if exps[k] > 0:
                lowered = exps.copy()
                lowered[k] -= 1
                down[i, k] = index[BasisKey.from_exponents(lowered)]
    return up, down


def reference_mult_linear(c, a, spec):
    up, _ = _neighbours(spec)
    out = np.zeros_like(c)
    nz = np.flatnonzero(c)
    for k in range(spec.dim):
        weight = complex(a.coords[k]).conjugate()
        if weight == 0:
            continue
        targets = up[nz, k]
        ok = targets >= 0
        np.add.at(out, targets[ok], weight * c[nz[ok]])
    return out


def reference_derivative(c, a, spec):
    _, down = _neighbours(spec)
    exponents = layout(spec).exponents
    out = np.zeros_like(c)
    nz = np.flatnonzero(c)
    for k in range(spec.dim):
        weight = complex(a.coords[k])
        if weight == 0:
            continue
        sources = nz[exponents[nz, k] > 0]
        if sources.size == 0:
            continue
        np.add.at(out, down[sources, k], weight * exponents[sources, k] * c[sources])
    return out


# -- inputs -------------------------------------------------------------------

def _coefficients(spec, rng, columns=None, density=1.0):
    shape = (layout(spec).size,) + (() if columns is None else (columns,))
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return c * (rng.random(shape) < density)


def _direction(spec, rng):
    return EVector(tuple(rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)))


def _close(got, want, c):
    return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(c)


# -- tests --------------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("density", [1.0, 0.1])
def test_gather_kernels_match_scatter_loops(spec, density):
    rng = np.random.default_rng(spec.max_degree + int(10 * density))
    for _ in range(3):
        c = _coefficients(spec, rng, density=density)
        a = _direction(spec, rng)
        got = pc.apply_mult_linear(c, a, spec)
        assert got.shape == c.shape
        assert _close(got, reference_mult_linear(c, a, spec), c)
        got = pc.apply_derivative(c, a, spec)
        assert got.shape == c.shape
        assert _close(got, reference_derivative(c, a, spec), c)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("density", [1.0, 0.1])
def test_column_kernels_match_scatter_loops_per_column(spec, density):
    rng = np.random.default_rng(3 * spec.max_degree + int(10 * density))
    columns = 5
    c = _coefficients(spec, rng, columns, density)
    directions = np.column_stack([_direction(spec, rng).coords for _ in range(columns)])
    got = pc.apply_mult_linear(c, directions, spec)
    for j in range(columns):
        want = reference_mult_linear(c[:, j], EVector(directions[:, j]), spec)
        assert _close(got[:, j], want, c[:, j])
    got = pc.apply_derivative(c, directions, spec)
    for j in range(columns):
        want = reference_derivative(c[:, j], EVector(directions[:, j]), spec)
        assert _close(got[:, j], want, c[:, j])
    # one direction for every column
    a = EVector(directions[:, 0])
    got = pc.apply_mult_linear(c, a, spec)
    assert _close(got[:, 2], reference_mult_linear(c[:, 2], a, spec), c[:, 2])


@pytest.mark.parametrize("spec", SPECS)
def test_flows_run_each_column_on_its_own(spec):
    rng = np.random.default_rng(7)
    c = _coefficients(spec, rng, 3, 0.3)
    directions = 0.5 * np.column_stack([_direction(spec, rng).coords for _ in range(3)])
    directions[:, 1] = 0.0
    mult = pc.apply_exp_mult(c, directions, spec)
    shifted = pc.apply_shift(c, directions, spec)
    for j in range(3):
        a = EVector(directions[:, j])
        assert np.array_equal(mult[:, j], pc.apply_exp_mult(c[:, j], a, spec))
        assert np.array_equal(shifted[:, j], pc.apply_shift(c[:, j], a, spec))


@pytest.mark.parametrize("spec", SPECS)
def test_flow_tables_follow_the_key_order(spec):
    rows = layout(spec)
    assert layout(spec).exponents.tolist() == [list(key.exponents(spec.dim)) for key in rows.keys]
    # the wide flows rely on the keys of a workspace leading a deeper one
    wide = layout(TruncationSpec(spec.max_degree + 3, spec.dim))
    assert wide.keys[: rows.size] == rows.keys


@pytest.mark.parametrize("spec", SPECS)
def test_neighbour_tables_match_the_key_built_ones(spec):
    rows = layout(spec)
    for table, want in zip((rows.up, rows.down), _neighbours(spec)):
        assert table.dtype == np.intp
        assert np.array_equal(table, np.where(want < 0, rows.size, want))


# -- fibre flows against the gather series ----------------------------------------

def gather_flow(c, spec, depth, steps):
    """The steps of ``polycalc._flow_at`` run by the gather series at ``depth``."""
    wide = TruncationSpec(max(depth, spec.max_degree), spec.dim)
    x = np.zeros(layout(wide).size, dtype=complex)
    x[: len(c)] = c
    for kind, vec in steps:
        if kind == "shift":
            x = pc.apply_shift(x, vec, wide)
        elif kind == "mult":
            x = pc.apply_exp_mult(x, vec, wide)
        else:
            x = x * complex(vec)
    return x[: len(c)]


def _steps(dim, rng, kinds, scale=0.6, sparse=False):
    steps = []
    for kind in kinds:
        if kind == "scale":
            steps.append((kind, complex(*rng.standard_normal(2))))
            continue
        coords = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        if sparse:
            coords = coords * (rng.random(dim) < 0.5)
        steps.append((kind, EVector(tuple(coords))))
    return steps


def _assert_flows_agree(c, spec, depth, steps):
    got = pc._flow_at(c, spec, depth, steps)
    want = gather_flow(c, spec, depth, steps)
    assert got.shape == c.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 4),
    depth=st.integers(0, 10),
    cap=st.integers(0, 10),
    kinds=st.lists(st.sampled_from(["shift", "mult", "scale"]), max_size=5),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([1.0, 0.3, 0.0]),
    sparse=st.booleans(),
)
def test_fibre_flows_match_gather_series(dim, depth, cap, kinds, seed, density, sparse):
    rng = np.random.default_rng(seed)
    spec = TruncationSpec(min(cap, depth), dim)
    c = _coefficients(spec, rng, density=density)
    _assert_flows_agree(c, spec, depth, _steps(dim, rng, kinds, sparse=sparse))


WEYL_KINDS = ["shift", "mult", "scale", "shift", "mult", "scale", "scale"]


@pytest.mark.parametrize("spec, depth", [(TruncationSpec(6, 3), 22), (TruncationSpec(6, 4), 10)])
def test_fibre_flows_match_gather_series_on_weyl_steps(spec, depth):
    rng = np.random.default_rng(depth)
    c = _coefficients(spec, rng) * (layout(spec).degree <= 4)
    _assert_flows_agree(c, spec, depth, _steps(spec.dim, rng, WEYL_KINDS, scale=0.4))


def test_fibre_tables_stay_within_dim_times_rows():
    # a (max_degree + 1)^dim box would hold 13^6 = 4.8 million cells here
    wide = TruncationSpec(12, 6)
    size, exponents = layout(wide).size, layout(wide).exponents
    for k in range(wide.dim):
        table = pc._fibre_table(wide, k)
        assert table.size <= wide.dim * size
        rows = np.sort(table[table < size])
        assert np.array_equal(rows, np.arange(size))
        for fibre in table[:5]:
            cells = fibre[fibre < size]
            assert np.array_equal(exponents[cells, k], np.arange(len(cells)))
            others = np.delete(exponents[cells], k, axis=1)
            assert (others == others[0]).all()
    spec = TruncationSpec(4, 6)
    rng = np.random.default_rng(12)
    steps = _steps(6, rng, ["shift", "mult", "shift"])
    _assert_flows_agree(_coefficients(spec, rng), spec, 12, steps)


def test_index_tables_of_the_weyl_workspaces_stay_within_budget():
    # every index table that a (6,3) flow at margin 16 can build, in the probe
    # (20), flow (22) and deepening (38) workspaces: 2.73 MB if all are built
    total = 0
    for depth in (20, 22, 38):
        wide = TruncationSpec(depth, 3)
        layouts = (None, 0, 1, 2)
        tables = [pc._fibre_table(wide, k) for k in range(3)]
        tables += [pc._move_table(wide, s, t) for s in layouts for t in layouts]
        for table in tables:
            assert table.dtype == np.int32 and table.size <= wide.dim * layout(wide).size
        total += sum(table.nbytes for table in tables)
    assert total <= 3_000_000


# -- one-take gather against the per-axis loop -------------------------------------

def per_axis_gather(padded, weights, neighbour, rows, power=None):
    """``polycalc._gather`` as one take per axis with a nonzero weight, summed
    into zeros."""
    columns = weights.reshape(len(weights), 1, -1)
    out = np.zeros((len(neighbour[rows]), max(padded.shape[1], columns.shape[2])), dtype=complex)
    for k in np.flatnonzero(columns.any(axis=(1, 2))):
        factor = columns[k] if power is None else columns[k] * power[rows, k : k + 1]
        out += factor * np.take(padded, neighbour[rows, k], axis=0)
    return out


_SIGNED = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 4),
    cap=st.integers(0, 6),
    n=st.sampled_from([1, 64]),
    weight_shape=st.sampled_from(["(dim,)", "(dim, n)", "(dim, 1, n)"]),
    one_column=st.booleans(),
    up=st.booleans(),
    ends=st.tuples(st.integers(0, 90), st.integers(0, 90)),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 1.0),
)
def test_one_take_gather_equals_the_per_axis_loop_bytewise(dim, cap, n, weight_shape, one_column,
                                                           up, ends, seed, zeros):
    rng = np.random.default_rng(seed)
    spec = TruncationSpec(cap, dim)
    tab = layout(spec)
    # signed zeros and exact small values among the coefficients and weights,
    # and whole direction coordinates zero
    shape = (tab.size, 1 if one_column else n)
    c = rng.choice(_SIGNED, shape) + 1j * rng.choice(_SIGNED, shape)
    if seed % 2:
        c = c + rng.standard_normal(shape)
    shape = {"(dim,)": (dim,), "(dim, n)": (dim, n), "(dim, 1, n)": (dim, 1, n)}[weight_shape]
    weights = rng.standard_normal(shape) + 1j * rng.choice(_SIGNED, shape)
    weights[rng.random(dim) < zeros] = rng.choice(_SIGNED) + 0j
    neighbour, power = (tab.up, tab.exponents + 1) if up else (tab.down, None)
    rows = slice(*sorted(min(end, tab.size) for end in ends))
    got = pc._gather(pc._padded(c), weights, neighbour, rows, power)
    want = per_axis_gather(pc._padded(c), weights, neighbour, rows, power)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- degree-sliced series against the whole-array series ------------------------

def whole_series(c, a, spec, step):
    """Sum of step^m c / m! over every row, term by term, until a term is zero."""
    out, term = c.copy(), c
    for m in range(1, spec.max_degree + 1):
        term = step(term, a, spec) / m
        if not term.any():
            break
        out = out + term
    return out


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 4),
    cap=st.integers(0, 8),
    top=st.integers(0, 8),
    columns=st.sampled_from([None, 1, 3]),
    batched_directions=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 1.0),
)
def test_sliced_series_equal_the_whole_array_series(dim, cap, top, columns, batched_directions,
                                                    seed, zeros):
    rng = np.random.default_rng(seed)
    spec = TruncationSpec(cap, dim)
    # an input of top degree min(top, cap), some direction coordinates zero
    low = layout(spec).degree <= top
    c = _coefficients(spec, rng, columns) * (low if columns is None else low[:, None])
    # one direction per column, or one for every column
    width = columns or 1
    a = rng.standard_normal((dim, width)) + 1j * rng.standard_normal((dim, width))
    a = a * (rng.random((dim, width)) >= zeros)
    a = a if batched_directions and columns else EVector(tuple(a[:, 0]))
    assert np.array_equal(pc.apply_shift(c, a, spec), whole_series(c, a, spec, pc.apply_derivative))
    assert np.array_equal(pc.apply_exp_mult(c, a, spec),
                          whole_series(c, a, spec, pc.apply_mult_linear))


# -- the tail probe against a full rerun ------------------------------------------

def full_rerun_flow(c, spec, margin, steps):
    """``polycalc._wide_flow`` with a probe that reruns every step two degrees
    shallower, from c."""
    depth = spec.max_degree + margin
    out = pc._flow_at(c, spec, depth, steps)
    kinds = [kind for kind, _ in steps]
    if margin and "mult" in kinds and "shift" in kinds[kinds.index("mult"):]:
        probe = pc._flow_at(c, spec, depth - 2, steps)
        if np.linalg.norm(out - probe) > 1e-12 * np.linalg.norm(out):
            out = pc._flow_at(c, spec, depth + margin, steps)
    return out


@pytest.mark.parametrize("margin", [0, 1, 2, 16])
@pytest.mark.parametrize("spec", [TruncationSpec(6, 3), TruncationSpec(4, 2)])
def test_restarted_probe_matches_a_full_rerun(spec, margin):
    # at margin 1 the probe depth clamps at the cap
    rng = np.random.default_rng(margin + spec.dim)
    # with leading shifts, trailing multiplications, no shift after a
    # multiplication, and no shift or multiplication at all
    for kinds in (WEYL_KINDS, ["mult", "shift"], ["scale", "shift", "mult", "shift", "mult"],
                  ["shift", "scale"], ["mult", "mult", "shift"],
                  ["shift", "shift", "scale", "mult", "shift"], ["mult", "shift", "mult", "mult"],
                  ["shift", "mult", "scale"], ["mult"], ["scale"], ["scale", "scale"]):
        c = _coefficients(spec, rng) * (layout(spec).degree <= 4)
        steps = _steps(spec.dim, rng, kinds, scale=0.5)
        want = full_rerun_flow(c, spec, margin, steps)
        got = pc._wide_flow(c, spec, margin, steps)
        assert got.shape == c.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
