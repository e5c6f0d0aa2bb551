"""Function-space operations: evaluation, shift, multiplication, commutators."""

import math

import numpy as np
import pytest

from focklab import polycalc as pc
from focklab.fock_core import (
    EVector,
    FockVector,
    GRAM_H,
    GRAM_W,
    TruncationSpec,
    exponential_vector,
)
from focklab.hardy_w import (
    HardyWFunction,
    commutator_check,
    directional_derivative,
    evaluate,
    evaluate_kernel,
    finite_difference_derivative,
    generator_mult,
    multiply_exp,
    multiply_via_creation,
    random_evector,
    random_polynomial,
    residual,
    shift,
    shift_via_adjoint,
    weyl_group_commutation,
)
from focklab.partitions import BasisKey

SPEC = TruncationSpec(6, 3)


def _mono(parts, indices, value=1.0, pairing=pc.TAYLOR):
    return HardyWFunction(FockVector.basis(SPEC, BasisKey.make(parts, indices), value), pairing)


def _const(value=1.0, pairing=pc.TAYLOR):
    return HardyWFunction(FockVector.vacuum(SPEC, value), pairing)


def test_evaluate_examples():
    x = EVector((2.0, 0.0, 0.0))
    assert evaluate(_const(), x) == pytest.approx(1.0)
    assert evaluate(_const(1.0, GRAM_W), x) == pytest.approx(1.0)
    assert evaluate(_mono((1,), (1,)), x) == pytest.approx(2.0)
    y = EVector((1.0, 1.0, 0.0))
    assert evaluate(_mono((1, 1), (1, 2)), y) == pytest.approx(1.0)


def test_evaluate_kernel_routes_agree():
    rng = np.random.default_rng(0)
    for pairing in (GRAM_W, GRAM_H):
        f = random_polynomial(SPEC, rng, 4, pairing)
        for _ in range(5):
            x = random_evector(3, rng, 0.8)
            assert evaluate(f, x) == pytest.approx(
                evaluate_kernel(f, x, pairing), abs=1e-10
            )


def test_taylor_readout_is_homogeneous_polynomial_sum():
    from focklab.fock_core import hs_polynomial_eval

    rng = np.random.default_rng(1)
    f = random_polynomial(SPEC, rng, 4, pc.TAYLOR)
    x = random_evector(3, rng, 0.7)
    total = sum(
        hs_polynomial_eval(f.fock.degree_component(n), x)
        for n in range(SPEC.max_degree + 1)
    )
    assert evaluate(f, x) == pytest.approx(complex(total), abs=1e-10)


def test_shift_examples():
    a = EVector.basis(1, 3)
    shifted = shift(_mono((1,), (1,)), a)
    assert shifted.fock.coeffs[BasisKey.make((1,), (1,))] == pytest.approx(1.0)
    assert shifted.fock.coeffs[BasisKey.vacuum()] == pytest.approx(1.0)
    f12 = _mono((1, 1), (1, 2))
    shifted2 = shift(f12, EVector.basis(2, 3))
    assert shifted2.fock.coeffs[BasisKey.make((1, 1), (1, 2))] == pytest.approx(1.0)
    assert shifted2.fock.coeffs[BasisKey.make((1,), (1,))] == pytest.approx(1.0)
    assert residual(shift(f12, EVector.zero(3)), f12) == 0.0


def test_shift_pointwise_all_readouts():
    rng = np.random.default_rng(2)
    for pairing in pc.PAIRINGS:
        f = random_polynomial(SPEC, rng, 4, pairing)
        for _ in range(5):
            a = random_evector(3, rng, 0.6)
            x = random_evector(3, rng, 0.6)
            lhs = evaluate(shift(f, a), x)
            rhs = evaluate(f, x + a)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_shift_group_law():
    rng = np.random.default_rng(3)
    f = random_polynomial(SPEC, rng, 5)
    a = random_evector(3, rng)
    b = random_evector(3, rng)
    assert residual(shift(shift(f, a), b), shift(f, a + b)) < 1e-12


def test_shift_equals_adjoint_transport():
    rng = np.random.default_rng(4)
    for pairing in (GRAM_W, GRAM_H):
        f = random_polynomial(SPEC, rng, 4, pairing)
        a = random_evector(3, rng, 0.7)
        assert residual(shift(f, a), shift_via_adjoint(f, a)) < 1e-10
    with pytest.raises(ValueError):
        shift_via_adjoint(random_polynomial(SPEC, rng, 2, pc.TAYLOR), a)


def test_multiply_exp_series_coefficients():
    out = multiply_exp(_const(), EVector.basis(1, 3))
    for n in range(SPEC.max_degree + 1):
        key = BasisKey.vacuum() if n == 0 else BasisKey.make((n,), (1,))
        assert out.fock.coeffs[key] == pytest.approx(1 / math.factorial(n))
    out2 = multiply_exp(_mono((1,), (2,)), EVector.basis(1, 3))
    assert out2.fock.coeffs[BasisKey.make((2, 1), (1, 2))] == pytest.approx(1 / 2)
    same = multiply_exp(_mono((1,), (2,)), EVector.zero(3))
    assert residual(same, _mono((1,), (2,))) == 0.0


def test_multiply_matches_creation_route():
    rng = np.random.default_rng(5)
    f = random_polynomial(SPEC, rng, 4, pc.TAYLOR)
    a = random_evector(3, rng, 0.7)
    assert residual(multiply_exp(f, a), multiply_via_creation(f, a)) < 1e-10


def test_multiply_group_law():
    rng = np.random.default_rng(6)
    f = random_polynomial(SPEC, rng, 4)
    a = random_evector(3, rng, 0.6)
    b = random_evector(3, rng, 0.6)
    assert residual(multiply_exp(multiply_exp(f, a), b), multiply_exp(f, a + b)) < 1e-10


def test_multiply_pointwise_with_headroom():
    rng = np.random.default_rng(7)
    wide = TruncationSpec(20, 3)
    f = random_polynomial(wide, rng, 4)
    a = random_evector(3, rng, 0.5)
    x = random_evector(3, rng, 0.5)
    lhs = evaluate(multiply_exp(f, a), x)
    rhs = evaluate(f, x) * np.exp(complex(x.inner(a)))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_directional_derivative_examples():
    a = EVector.basis(1, 3)
    assert directional_derivative(_const(3.0), a).fock.coeffs == {}
    d = directional_derivative(_mono((2,), (1,)), a)
    assert d.fock.coeffs == {BasisKey.make((1,), (1,)): pytest.approx(2.0)}
    mixed = directional_derivative(_mono((1, 1), (1, 2)), EVector((1.0, 1.0, 0.0)), 2)
    assert mixed.fock.coeffs[BasisKey.vacuum()] == pytest.approx(2.0)


def test_generator_mult_examples():
    out = generator_mult(_const(), EVector.basis(1, 3))
    assert out.fock.coeffs == {BasisKey.make((1,), (1,)): pytest.approx(1.0)}
    out2 = generator_mult(_mono((1,), (1,)), EVector.basis(2, 3))
    assert out2.fock.coeffs == {BasisKey.make((1, 1), (1, 2)): pytest.approx(1.0)}
    twice = generator_mult(generator_mult(_const(), EVector.basis(1, 3)), EVector.basis(1, 3))
    assert twice.fock.coeffs == {BasisKey.make((2,), (1,)): pytest.approx(1.0)}


def test_finite_difference_slope():
    rng = np.random.default_rng(8)
    f = random_polynomial(SPEC, rng, 4)
    a = random_evector(3, rng, 0.7)
    exact = directional_derivative(f, a)
    errors = [
        residual(finite_difference_derivative(f, a, h), exact)
        for h in (1e-2, 1e-3, 1e-4)
    ]
    assert errors[0] > errors[1] > errors[2]
    order = math.log(errors[0] / errors[1]) / math.log(10)
    assert order > 0.9


def test_commutator_examples():
    e1 = EVector.basis(1, 3)
    e2 = EVector.basis(2, 3)
    assert commutator_check(_const(), e1, e2) < 1e-14  # orthogonal directions
    assert commutator_check(_const(), e1, e1) < 1e-14
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = random_polynomial(SPEC, rng, 4)
        a = random_evector(3, rng)
        b = random_evector(3, rng)
        assert commutator_check(f, a, b) < 1e-10
    with pytest.raises(ValueError):
        commutator_check(random_polynomial(SPEC, rng, 6), e1, e2)


def test_weyl_group_commutation():
    rng = np.random.default_rng(10)
    e1 = EVector.basis(1, 3)
    f = random_polynomial(SPEC, rng, 3, scale=0.8)
    assert weyl_group_commutation(f, EVector.zero(3), e1) < 1e-12
    assert weyl_group_commutation(f, e1, EVector.zero(3)) < 1e-12
    for _ in range(10):
        a = random_evector(3, rng, 0.5)
        b = random_evector(3, rng, 0.5)
        assert weyl_group_commutation(f, a, b) < 1e-10


def test_weyl_group_pointwise_at_zero():
    # constant function, both directions the first basis vector, value at zero
    e1 = EVector.basis(1, 3)
    wide = TruncationSpec(24, 3)
    f = HardyWFunction(FockVector.vacuum(wide))
    lhs = evaluate(shift(multiply_exp(f, e1), e1), EVector.zero(3))
    assert lhs == pytest.approx(math.e, rel=1e-8)


def test_norm_is_weighted_norm():
    rng = np.random.default_rng(11)
    f = random_polynomial(SPEC, rng, 4)
    assert f.norm() == pytest.approx(f.fock.norm(GRAM_W))


def test_evaluation_cauchy_schwarz_kernel_bound():
    rng = np.random.default_rng(12)
    for _ in range(20):
        f = random_polynomial(SPEC, rng, 5, GRAM_W)
        x = random_evector(3, rng, 0.9)
        bound = exponential_vector(x, SPEC).norm(GRAM_W) * f.norm()
        assert abs(evaluate(f, x)) <= bound * (1 + 1e-12)
