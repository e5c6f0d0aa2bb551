"""Coefficient and Monte Carlo models of the Hardy space over unitaries."""

import json
import math

import numpy as np
import pytest

from focklab import hardy_chi as hc
from focklab import polycalc as pc
from focklab import unitary_haar as uh
from focklab.fock_core import EVector, FockVector, GRAM_H, GRAM_W, TruncationSpec
from focklab.hardy_chi import (
    HardyChiFunction,
    chi_mult_generator,
    chi_shift_generator,
    closed_form_level_one,
    f_transform,
    f_transform_inverse,
    mc_f_transform,
    mc_pair_integral,
    mult_group_chi,
    norm_convergence_study,
    phi_map,
    phi_map_adjoint,
    shift_group_chi,
)
from focklab.hardy_w import (
    directional_derivative,
    evaluate,
    multiply_exp,
    random_evector,
    random_polynomial,
    residual,
    shift,
)
from focklab.operators import MONOMIAL, W_ADJOINT
from focklab.partitions import BasisKey, h_norm_sq, w_norm_sq
from focklab.unitary_haar import invariance_report, pushforward_consistency, sample_moments

SPEC = TruncationSpec(6, 3)


def _random_chi(rng, spec=SPEC, degree=None):
    f = random_polynomial(spec, rng, degree if degree is not None else spec.max_degree)
    return HardyChiFunction(spec, {k: complex(v) for k, v in f.fock.coeffs.items()})


def test_norms_use_weighted_table():
    k = BasisKey.make((1, 1), (1, 2))
    f = HardyChiFunction.basis(SPEC, k, 2.0)
    assert f.norm_sq() == pytest.approx(4 * float(w_norm_sq(k.diagram)))


def test_chi_functions_are_tagged_fock_vectors():
    assert issubclass(HardyChiFunction, FockVector)
    for name in ("__post_init__", "__add__", "__sub__", "scale", "degrees", "degree_component"):
        assert name not in vars(HardyChiFunction)
    key = BasisKey.make((1, 1), (1, 2))
    f = HardyChiFunction.basis(SPEC, key, 2.0)
    psi = FockVector.basis(SPEC, key, 2.0)
    for result in (f + f, f - f, f.scale(3), f.degree_component(2), HardyChiFunction.zero(SPEC)):
        assert type(result) is HardyChiFunction
    assert f.norm_sq(GRAM_H) == pytest.approx(4 * float(h_norm_sq(key.diagram)))
    for mixed in (lambda: f + psi, lambda: psi + f, lambda: f - psi, lambda: psi - f):
        with pytest.raises(TypeError):
            mixed()
    assert f != psi and f.coeffs == psi.coeffs
    with pytest.raises(ValueError):
        HardyChiFunction(SPEC, {BasisKey.make((1,), (4,)): 1.0})


def test_phi_map_is_isometric_conjugation():
    rng = np.random.default_rng(0)
    psi = random_polynomial(SPEC, rng, 5).fock
    f = phi_map(psi)
    assert f.norm() == pytest.approx(psi.norm(GRAM_W))
    back = phi_map_adjoint(f)
    assert (back - psi).norm(GRAM_W) < 1e-14
    two = FockVector.basis(SPEC, BasisKey.make((1,), (1,)), 1 + 2j)
    assert phi_map(two).coeffs[BasisKey.make((1,), (1,))] == 1 - 2j


def test_f_transform_examples():
    const = HardyChiFunction.constant(SPEC)
    g = f_transform(const)
    x = EVector((0.3, -0.2, 0.1))
    assert evaluate(g, x) == pytest.approx(1.0)
    basis = HardyChiFunction.basis(SPEC, BasisKey.make((1,), (1,)))
    gb = f_transform(basis)
    assert gb.fock.coeffs == {BasisKey.make((1,), (1,)): (1 + 0j)}
    assert evaluate(gb, x) == pytest.approx(0.3)


def test_f_transform_isometry_and_inverse():
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = _random_chi(rng)
        g = f_transform(f)
        assert g.norm() == pytest.approx(f.norm(), abs=1e-12)
        back = f_transform_inverse(g)
        assert (back - f).norm() < 1e-14


def test_intertwining_mult_to_shift():
    rng = np.random.default_rng(2)
    pairs = {GRAM_W: W_ADJOINT, "h": MONOMIAL}
    for pairing, variant in pairs.items():
        for _ in range(10):
            a = random_evector(3, rng, 0.8)
            f = _random_chi(rng)
            lhs = shift(f_transform(f, pairing), a)
            rhs = f_transform(mult_group_chi(f, a, variant), pairing)
            assert residual(lhs, rhs) < 1e-10


def test_intertwining_mismatched_variant_fails():
    rng = np.random.default_rng(3)
    a = random_evector(3, rng, 0.8)
    f = _random_chi(rng)
    lhs = shift(f_transform(f, GRAM_W), a)
    rhs = f_transform(mult_group_chi(f, a, MONOMIAL), GRAM_W)
    assert residual(lhs, rhs) > 1e-3


def test_intertwining_shift_to_mult():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = random_evector(3, rng, 0.8)
        f = _random_chi(rng, degree=SPEC.max_degree - 3)
        lhs = multiply_exp(f_transform(f, pc.TAYLOR), a)
        rhs = f_transform(shift_group_chi(f, a), pc.TAYLOR)
        assert residual(lhs, rhs) < 1e-10


def test_transported_commutation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_evector(3, rng, 0.8)
        b = random_evector(3, rng, 0.8)
        f = _random_chi(rng, degree=4)
        lhs = f_transform_inverse(
            directional_derivative(f_transform(chi_shift_generator(f, b)), a)
        )
        rhs = chi_shift_generator(
            f_transform_inverse(directional_derivative(f_transform(f), a)), b
        )
        diff = lhs - rhs - f.scale(complex(a.inner(b)))
        assert diff.norm() < 1e-10


def test_generator_sandwich_matches_transport():
    rng = np.random.default_rng(6)
    for pairing, variant in ((GRAM_W, W_ADJOINT), ("h", MONOMIAL)):
        for _ in range(10):
            a = random_evector(3, rng, 0.8)
            f = _random_chi(rng, degree=5)
            via_sandwich = chi_mult_generator(f, a, variant)
            via_transform = f_transform_inverse(
                directional_derivative(f_transform(f, pairing), a).with_pairing(pc.TAYLOR)
            )
            assert (via_sandwich - via_transform).norm() < 1e-10


@pytest.mark.parametrize("group", [chi_mult_generator, mult_group_chi])
def test_an_unknown_variant_is_rejected_by_both_multiplicative_routes(group):
    # the generator used to read any unknown variant as the plain readout
    f = _random_chi(np.random.default_rng(2), degree=2)
    with pytest.raises(ValueError, match="unknown annihilation variant 'bogus'"):
        group(f, EVector((0.3, 0.0, 0.0)), "bogus")


def test_mc_closed_forms_level_one():
    x = EVector((0.7 - 0.2j, 0.0, 0.0))
    const = HardyChiFunction.constant(SPEC)
    est = mc_f_transform(const, x, 1, 40000, seed=11)
    assert est.z_against(1.0) < 4.0
    k1 = BasisKey.make((1,), (1,))
    est1 = mc_f_transform(HardyChiFunction.basis(SPEC, k1), x, 1, 40000, seed=12)
    assert est1.z_against(closed_form_level_one(k1, x)) < 4.0
    # first-row mean vanishes
    est0 = mc_f_transform(HardyChiFunction.basis(SPEC, k1), EVector.zero(3), 1, 40000, seed=13)
    assert est0.z_against(0.0) < 4.0


def test_mc_taylor_terms():
    x = EVector((0.5 + 0.1j, 0.0, 0.0))
    k2 = BasisKey.make((2,), (1,))
    est = mc_f_transform(HardyChiFunction.basis(SPEC, k2), x, 1, 20000, seed=14)
    term = est.taylor_terms[2]
    assert term.z_against(x.coords[0] ** 2) < 4.0


def test_mc_requires_indices_within_level():
    f = HardyChiFunction.basis(SPEC, BasisKey.make((1,), (2,)))
    with pytest.raises(ValueError):
        mc_f_transform(f, EVector.zero(3), 1, 1000, seed=0)
    with pytest.raises(ValueError):
        mc_f_transform(
            HardyChiFunction.constant(SPEC), EVector((0, 1.0, 0)), 1, 1000, seed=0
        )


def test_mc_rejects_level_zero():
    f = HardyChiFunction.constant(TruncationSpec(2, 2))
    with pytest.raises(ValueError, match="size must be >= 1"):
        mc_f_transform(f, EVector.zero(2), 0, 1000, seed=1)


@pytest.mark.parametrize("level", [0, -1])
def test_mc_estimators_name_a_bad_level_before_sampling(level, monkeypatch):
    def no_sampling(m, count, rng):
        raise AssertionError("sampled before the level check")

    monkeypatch.setattr(hc, "haar_batch", no_sampling)
    f = HardyChiFunction.constant(TruncationSpec(2, 2))
    key = BasisKey.make((1,), (1,))
    bad = f"sampling level {level}: unitary size must be >= 1"
    with pytest.raises(ValueError, match=bad):
        mc_f_transform(f, EVector.zero(2), level, 1000, seed=1)
    with pytest.raises(ValueError, match=bad):
        mc_pair_integral(key, key, level, 1000, seed=1)
    with pytest.raises(ValueError, match=bad):
        norm_convergence_study(key, (2, level), 1000, seed=1)


def test_stderr_scaling():
    x = EVector((0.6, 0.0, 0.0))
    const = HardyChiFunction.constant(SPEC)
    prev = None
    for samples in (5000, 10000, 20000):
        est = mc_f_transform(const, x, 1, samples, seed=15)
        if prev is not None:
            assert est.stderr / prev == pytest.approx(1 / math.sqrt(2), abs=0.08)
        prev = est.stderr


def test_norm_convergence_study_decays():
    key = BasisKey.make((1,), (1,))
    rows = norm_convergence_study(key, (1, 2, 4), 20000, seed=16)
    assert rows[0]["empirical"] == pytest.approx(1.0, abs=1e-12)
    assert rows[1]["empirical"] == pytest.approx(0.5, abs=0.02)
    assert rows[2]["empirical"] == pytest.approx(0.25, abs=0.02)
    assert all(r["limit_value"] == 1.0 for r in rows)


def test_norm_convergence_study_checks_every_level_before_sampling(monkeypatch):
    calls = []

    def counting_batch(m, count, rng):
        calls.append(m)
        return uh.haar_batch(m, count, rng)

    monkeypatch.setattr(hc, "haar_batch", counting_batch)
    with pytest.raises(ValueError, match="needs level >= 2"):
        norm_convergence_study(BasisKey.from_label("λ=[1];ι=[2]"), (4, 1), 20000, seed=18)
    assert calls == []


def test_mc_orthogonality():
    est = mc_pair_integral(
        BasisKey.make((2,), (1,)), BasisKey.make((1, 1), (1, 2)), 2, 30000, seed=17
    )
    assert est.z_against(0.0) < 4.0


def test_stderr_survives_large_mean():
    f = HardyChiFunction(SPEC, {BasisKey.vacuum(): 1e8, BasisKey.make((1,), (1,)): 1.0})
    est = mc_f_transform(f, EVector.zero(3), 1, 50000, seed=3)
    assert est.stderr == pytest.approx(1 / math.sqrt(50000), rel=0.01)
    assert math.isfinite(est.z_against(1e8))


def test_mc_estimators_independent_of_workers(fresh_pool):
    f = HardyChiFunction.basis(SPEC, BasisKey.make((2, 1), (1, 2)), 0.5 - 1j)
    x = EVector((0.4 - 0.3j, 0.2j, 0.0))
    one = mc_f_transform(f, x, 2, 20000, seed=31, workers=1)
    two = mc_f_transform(f, x, 2, 20000, seed=31, workers=2)
    assert json.dumps(one.as_dict()) == json.dumps(two.as_dict())
    key = BasisKey.make((2,), (1,))
    one = norm_convergence_study(key, (1, 2, 4), 20000, seed=32, workers=1)
    two = norm_convergence_study(key, (1, 2, 4), 20000, seed=32, workers=2)
    assert json.dumps(one) == json.dumps(two)


def test_estimators_share_one_pool(fresh_pool, monkeypatch):
    built = []

    class CountingPool(uh.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(uh, "ProcessPoolExecutor", CountingPool)
    key = BasisKey.make((1,), (1,))
    for seed in (41, 42):
        sample_moments(2, 20000, seed, workers=2)
        invariance_report(2, 20000, seed, workers=2)
        pushforward_consistency(2, 20000, seed, workers=2)
        mc_f_transform(HardyChiFunction.basis(SPEC, key), EVector((0.5, 0, 0)), 1, 20000,
                       seed, workers=2)
        norm_convergence_study(key, (1, 2), 20000, seed, workers=2)
        mc_pair_integral(key, key, 2, 20000, seed, workers=2)
    assert len(built) == 1
