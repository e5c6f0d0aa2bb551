"""Gauss-Weierstrass semigroups: quadrature vs closed forms, flow laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from focklab import polycalc as pc
from focklab.fock_core import EVector, FockVector, TruncationSpec
from focklab.hardy_chi import f_transform_inverse
from focklab.hardy_w import (
    HardyWFunction,
    directional_derivative,
    generator_mult,
    multiply_exp,
    random_evector,
    random_polynomial,
    residual,
    shift,
)
from focklab.partitions import BasisKey
from focklab.semigroups import (
    GW_MULT,
    GW_SHIFT,
    gaussian_moment,
    gw_chi,
    gw_mult,
    gw_mult_oracle,
    gw_shift,
    gw_shift_quadrature,
    hermite_rule,
)

SPEC = TruncationSpec(6, 3)


def test_kernel_normalisation_and_variance():
    nodes, weights = hermite_rule(64)
    r = 0.8
    total = sum(w for w in weights) / math.sqrt(math.pi)
    assert total == pytest.approx(1.0, rel=1e-12)
    var = sum(w * (2 * math.sqrt(r) * x) ** 2 for x, w in zip(nodes, weights))
    var /= math.sqrt(math.pi)
    assert var == pytest.approx(2 * r, rel=1e-12)


def test_gaussian_moment_values():
    assert gaussian_moment(0.5, 1) == pytest.approx(1.0)  # variance 2r
    assert gaussian_moment(1.0, 2) == pytest.approx(12.0)
    # factorial identity 2(2k-1)!/(k-1)! == (2k)!/k!
    for k in range(1, 8):
        lhs = 2 * math.factorial(2 * k - 1) // math.factorial(k - 1)
        rhs = math.factorial(2 * k) // math.factorial(k)
        assert lhs == rhs
    with pytest.raises(ValueError):
        gaussian_moment(1.0, 0)


def test_moment_vs_quadrature():
    nodes, weights = hermite_rule(64)
    for r in (0.5, 1.0, 2.0):
        for k in range(1, 7):
            quad = sum(
                w * (2 * math.sqrt(r) * x) ** (2 * k) for x, w in zip(nodes, weights)
            ) / math.sqrt(math.pi)
            assert quad == pytest.approx(gaussian_moment(r, k), rel=1e-8)


def test_gw_mult_on_constant_is_exp_of_square():
    e1 = EVector.basis(1, 3)
    f = HardyWFunction(FockVector.vacuum(SPEC))
    r = 0.3
    out = gw_mult(f, e1, r)
    for k in range(SPEC.max_degree // 2 + 1):
        key = BasisKey.vacuum() if k == 0 else BasisKey.make((2 * k,), (1,))
        assert out.fock.coeffs[key] == pytest.approx(r**k / math.factorial(k))
    # odd powers cancel by node symmetry, up to roundoff dust
    assert abs(out.fock.coeffs.get(BasisKey.make((1,), (1,)), 0.0)) < 1e-12
    assert abs(out.fock.coeffs.get(BasisKey.make((3,), (1,)), 0.0)) < 1e-12


def test_gw_mult_quadrature_matches_oracle():
    rng = np.random.default_rng(0)
    for r in (0.1, 1.0):
        for _ in range(10):
            a = random_evector(3, rng, 0.8)
            f = random_polynomial(SPEC, rng, 4)
            assert residual(gw_mult(f, a, r), gw_mult_oracle(f, a, r)) < 1e-8


def test_gw_requires_positive_time():
    f = HardyWFunction(FockVector.vacuum(SPEC))
    e1 = EVector.basis(1, 3)
    for fn in (lambda: gw_mult(f, e1, 0.0), lambda: gw_shift(f, e1, -1.0)):
        with pytest.raises(ValueError):
            fn()


def test_gw_shift_heat_flow():
    e1 = EVector.basis(1, 3)
    f = HardyWFunction(FockVector.basis(SPEC, BasisKey.make((2,), (1,))))
    r = 0.25
    out = gw_shift(f, e1, r)
    assert out.fock.coeffs[BasisKey.make((2,), (1,))] == pytest.approx(1.0)
    assert out.fock.coeffs[BasisKey.vacuum()] == pytest.approx(2 * r)
    linear = HardyWFunction(FockVector.basis(SPEC, BasisKey.make((1,), (2,))))
    assert residual(gw_shift(linear, e1, r), linear) < 1e-14


def test_gw_shift_quadrature_route():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_evector(3, rng, 0.8)
        f = random_polynomial(SPEC, rng, 4)
        assert residual(gw_shift(f, a, 1.0), gw_shift_quadrature(f, a, 1.0)) < 1e-8


def test_semigroup_laws():
    rng = np.random.default_rng(2)
    a = random_evector(3, rng, 0.8)
    f = random_polynomial(SPEC, rng, 4)
    assert residual(gw_mult(gw_mult(f, a, 0.3), a, 0.5), gw_mult(f, a, 0.8)) < 1e-8
    assert residual(gw_shift(gw_shift(f, a, 0.3), a, 0.5), gw_shift(f, a, 0.8)) < 1e-8


def test_generator_slopes():
    rng = np.random.default_rng(3)
    a = random_evector(3, rng, 0.8)
    f = random_polynomial(SPEC, rng, 4)
    sq_deriv = directional_derivative(f, a, 2)
    errors = []
    for h in (1e-3, 1e-4):
        flow = gw_shift(f, a, h)
        slope = HardyWFunction.from_coefficients(
            (flow.coefficients() - f.coefficients()) / h, SPEC, f.pairing
        )
        errors.append(residual(slope, sq_deriv))
    assert errors[1] < errors[0] * 0.2  # at least first order


def test_transported_semigroups():
    rng = np.random.default_rng(4)
    a = random_evector(3, rng, 0.8)
    fw = random_polynomial(SPEC, rng, 4)
    f = f_transform_inverse(fw)
    for which in (GW_SHIFT, GW_MULT):
        two = gw_chi(gw_chi(f, a, 0.3, which), a, 0.5, which)
        one = gw_chi(f, a, 0.8, which)
        assert (two - one).norm() < 1e-8
    tiny = gw_chi(f, a, 1e-8, GW_SHIFT)
    assert (tiny - f).norm() < 1e-6
    with pytest.raises(ValueError):
        gw_chi(f, a, 0.5, "other")


def _node_by_node(f, a, r, flow):
    """Sum over the Gauss-Hermite nodes of flow(f, a 2 sqrt(r) x_i) w_i / sqrt(pi)."""
    x, w = hermite_rule(64)
    total = 0.0
    for xi, wi in zip(x, w):
        term = flow(f, a.scale(2.0 * math.sqrt(r) * xi))
        total = total + term.coefficients() * (wi / math.sqrt(math.pi))
    return total


@pytest.mark.parametrize("r", [0.1, 1.0])
@pytest.mark.parametrize("degree", [2, 4])
def test_batched_quadrature_equals_node_by_node(r, degree):
    rng = np.random.default_rng(degree)
    f = random_polynomial(SPEC, rng, degree)
    for a in (random_evector(3, rng, 0.8), EVector.zero(3)):
        for quadrature, flow in ((gw_mult, multiply_exp), (gw_shift_quadrature, shift)):
            got = quadrature(f, a, r)
            want = _node_by_node(f, a, r, flow)
            gap = np.linalg.norm(got.coefficients() - want)
            assert gap <= 1e-12 * np.linalg.norm(want)


def _series_term_by_term(f, a, r, generator):
    """Sum of r^k / k! G^(2k) f, one HardyWFunction per term (the dict-based
    form of both series)."""
    out = f
    term = f
    for k in range(1, f.spec.max_degree // 2 + 1):
        term = generator(generator(term, a), a)
        term = HardyWFunction(term.fock.scale(r / k), term.pairing)
        out = HardyWFunction(out.fock + term.fock, f.pairing)
    return out


@pytest.mark.parametrize("r", [0.1, 1.0])
@pytest.mark.parametrize("pairing", ["w", "h", "taylor"])
@pytest.mark.parametrize("degree", [0, 3, 6])
def test_dense_series_equal_term_by_term(r, pairing, degree):
    rng = np.random.default_rng(degree)
    f = random_polynomial(SPEC, rng, degree, pairing)
    for a in (random_evector(3, rng, 0.8), EVector.zero(3)):
        for series, generator in ((gw_mult_oracle, generator_mult),
                                  (gw_shift, directional_derivative)):
            got = series(f, a, r)
            want = _series_term_by_term(f, a, r, generator)
            gap = np.linalg.norm(got.coefficients() - want.coefficients())
            assert gap <= 1e-12 * max(np.linalg.norm(want.coefficients()), 1.0)
            assert got.pairing == want.pairing
    short = TruncationSpec(1, 2)
    g = HardyWFunction(FockVector.basis(short, BasisKey.make((1,), (2,)), 2.0), pairing)
    for series in (gw_mult_oracle, gw_shift):
        assert series(g, EVector((1.0, 0.5)), r) == g


def _whole_array_series(f, r, step):
    """Sum of r^k / k! G^(2k) f with G applied by ``step`` to every row, two
    whole-array steps per term, up to the first zero term."""
    term = f.coefficients()
    out = term.copy()
    for k in range(1, f.spec.max_degree // 2 + 1):
        term = step(step(term)) * (r / k)
        if not term.any():
            break
        out += term
    return out


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 4),
    cap=st.integers(0, 8),
    degree=st.integers(0, 8),
    pairing=st.sampled_from(["w", "h", "taylor"]),
    r=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 1.0),
)
def test_sliced_heat_series_equal_the_whole_array_series(dim, cap, degree, pairing, r, seed,
                                                         zeros):
    rng = np.random.default_rng(seed)
    spec = TruncationSpec(cap, dim)
    f = random_polynomial(spec, rng, min(degree, cap), pairing)
    coords = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    a = EVector(tuple(coords * (rng.random(dim) >= zeros)))
    for series, step in ((gw_mult_oracle, lambda c: pc.apply_mult_linear(c, a, spec)),
                         (gw_shift, lambda c: pc.apply_derivative(c, a, spec))):
        got = series(f, a, r).fock.array
        want = HardyWFunction.from_coefficients(_whole_array_series(f, r, step), spec, pairing)
        assert got.tobytes() == want.fock.array.tobytes()
