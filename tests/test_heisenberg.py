"""Quaternions, the group of triples, and the Weyl-Schrödinger representation."""


import numpy as np
import pytest

from focklab.fock_core import EVector, FockVector, TruncationSpec
from focklab.hardy_chi import HardyChiFunction, f_transform, f_transform_inverse
from focklab.hardy_w import (
    HardyWFunction,
    evaluate,
    random_evector,
    random_polynomial,
)
from focklab.heisenberg import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    HeisenbergElement,
    Quaternion,
    QuaternionVector,
    aux_mul,
    eh_im,
    eh_inner,
    g_iso,
    heis_inv,
    heis_mul,
    orbit_rank_probe,
    weyl,
    weyl_relation_residual,
    ws_chi_agreement,
    ws_homomorphism_residual,
    ws_rep,
    ws_rep_displayed,
)

SPEC = TruncationSpec(6, 3)


def test_quaternion_structure_constants():
    assert (QUAT_J * QUAT_J).isclose(Quaternion(-1))
    assert (QUAT_I * QUAT_I).isclose(Quaternion(-1))
    assert (QUAT_K * QUAT_K).isclose(Quaternion(-1))
    assert (QUAT_I * QUAT_J).isclose(QUAT_K)
    assert (QUAT_J * QUAT_I).isclose(Quaternion(0, -1j))
    assert (QUAT_K * QUAT_I).isclose(QUAT_J)
    assert (QUAT_I * QUAT_K).isclose(Quaternion(0, -1))
    ijk = QUAT_I * QUAT_J * QUAT_K
    assert ijk.isclose(Quaternion(-1))
    assert (QUAT_ONE * QUAT_K).isclose(QUAT_K)


def test_quaternion_associativity():
    rng = np.random.default_rng(0)
    for _ in range(30):
        vals = rng.standard_normal(12)
        p = Quaternion(complex(vals[0], vals[1]), complex(vals[2], vals[3]))
        q = Quaternion(complex(vals[4], vals[5]), complex(vals[6], vals[7]))
        r = Quaternion(complex(vals[8], vals[9]), complex(vals[10], vals[11]))
        assert ((p * q) * r).isclose(p * (q * r), tol=1e-12)


def test_eh_inner_examples():
    e1 = EVector.basis(1, 3)
    zero = EVector.zero(3)
    p = QuaternionVector(e1, zero)
    q = QuaternionVector(zero, e1)
    val = eh_inner(p, q)
    assert val.isclose(Quaternion(0, -1))
    assert eh_inner(p, p).imag_j() == 0
    # restricted to the first summand the pairing is the plain inner product
    rng = np.random.default_rng(1)
    a = random_evector(3, rng)
    b = random_evector(3, rng)
    pa = QuaternionVector(a, zero)
    pb = QuaternionVector(b, zero)
    assert eh_inner(pa, pb).alpha == pytest.approx(complex(a.inner(b)))
    assert eh_inner(pa, pb).beta == 0


def test_eh_im_antisymmetric_for_real_vectors():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = QuaternionVector(
            random_evector(3, rng, real=True), random_evector(3, rng, real=True)
        )
        q = QuaternionVector(
            random_evector(3, rng, real=True), random_evector(3, rng, real=True)
        )
        assert eh_im(p, q) == pytest.approx(-eh_im(q, p))
        assert eh_im(p, p) == 0


def test_group_axioms():
    rng = np.random.default_rng(3)

    def rand_elem():
        return HeisenbergElement(
            random_evector(3, rng, 0.7),
            random_evector(3, rng, 0.7),
            complex(rng.standard_normal(), rng.standard_normal()),
        )

    ident = HeisenbergElement.identity(3)
    for _ in range(30):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert heis_mul(x, ident).t == x.t
        assert heis_mul(ident, x).t == x.t
        left = heis_mul(heis_mul(x, y), z)
        right = heis_mul(x, heis_mul(y, z))
        assert abs(left.t - right.t) < 1e-12
        inv = heis_mul(x, heis_inv(x))
        assert abs(inv.t) < 1e-12
        assert max(abs(c) for c in inv.a.coords) < 1e-12


def test_inverse_formula():
    rng = np.random.default_rng(4)
    x = HeisenbergElement(
        random_evector(3, rng), random_evector(3, rng), complex(0.3, -0.8)
    )
    inv = heis_inv(x)
    assert inv.t == pytest.approx(-x.t + complex(x.a.inner(x.b)))


def test_central_extension_iso():
    rng = np.random.default_rng(5)
    zero = EVector.zero(3)
    x = HeisenbergElement(zero, zero, complex(1.5, -0.5))
    t, p = g_iso(x)
    assert t == pytest.approx(complex(1.5, -0.5))
    assert max(abs(c) for c in p.a.coords) == 0
    for _ in range(30):
        x = HeisenbergElement(
            random_evector(3, rng), random_evector(3, rng), complex(rng.standard_normal())
        )
        y = HeisenbergElement(
            random_evector(3, rng), random_evector(3, rng), complex(rng.standard_normal())
        )
        lhs = g_iso(heis_mul(x, y))
        rhs = aux_mul(g_iso(x), g_iso(y))
        assert abs(lhs[0] - rhs[0]) < 1e-12
        inv_lhs = g_iso(heis_inv(x))
        # the image of the inverse inverts in the extension
        prod = aux_mul(g_iso(x), inv_lhs)
        assert abs(prod[0]) < 1e-12


def test_weyl_identity_cases():
    rng = np.random.default_rng(6)
    f = random_polynomial(SPEC, rng, 3, scale=0.7)
    zero = EVector.zero(3)
    p0 = QuaternionVector(zero, zero)
    out = weyl(p0).apply(f)
    assert (out.fock - f.fock).norm("w") < 1e-14
    # mixed pure-position/pure-momentum pair: exact even for complex entries
    a = random_evector(3, rng, 0.5)
    b = random_evector(3, rng, 0.5)
    assert weyl_relation_residual(
        QuaternionVector(a, zero), QuaternionVector(zero, b), f, margin=12
    ) < 1e-10


def test_weyl_relation_real_parameters():
    rng = np.random.default_rng(7)
    f = random_polynomial(SPEC, rng, 3, scale=0.7)
    for _ in range(20):
        p = QuaternionVector(
            random_evector(3, rng, 0.4, real=True), random_evector(3, rng, 0.4, real=True)
        )
        q = QuaternionVector(
            random_evector(3, rng, 0.4, real=True), random_evector(3, rng, 0.4, real=True)
        )
        assert weyl_relation_residual(p, q, f, margin=16) < 1e-8


def test_weyl_relation_deepens_past_dropped_tails():
    # a shift after a multiplication brings the tail dropped at degree 22 down
    # to the compared degrees: 1.7e-7 at a fixed depth for these parameters
    f = random_polynomial(SPEC, np.random.default_rng(74), 4, scale=0.7)
    p = QuaternionVector(EVector((-0.11, 0.15, 0.42)), EVector((0.21, 0.27, 1.33)))
    q = QuaternionVector(EVector((-0.48, 0.04, -1.36)), EVector((0.8, 0.81, 0.35)))
    assert weyl_relation_residual(p, q, f, margin=16) < 1e-12


def test_ws_rep_homomorphism_complex_parameters():
    rng = np.random.default_rng(8)
    f = random_polynomial(SPEC, rng, 3, scale=0.7)
    for _ in range(20):
        x = HeisenbergElement(
            random_evector(3, rng, 0.5),
            random_evector(3, rng, 0.5),
            complex(rng.standard_normal(), rng.standard_normal()) * 0.3,
        )
        y = HeisenbergElement(
            random_evector(3, rng, 0.5),
            random_evector(3, rng, 0.5),
            complex(rng.standard_normal(), rng.standard_normal()) * 0.3,
        )
        assert ws_homomorphism_residual(x, y, f, margin=16) < 1e-8


def test_ws_rep_displayed_form_fails():
    rng = np.random.default_rng(9)
    f = random_polynomial(SPEC, rng, 3, scale=0.7)
    worst = 0.0
    for _ in range(10):
        x = HeisenbergElement(
            random_evector(3, rng, 0.5), random_evector(3, rng, 0.5), 0.1j
        )
        y = HeisenbergElement(
            random_evector(3, rng, 0.5), random_evector(3, rng, 0.5), -0.2j
        )
        worst = max(
            worst,
            ws_homomorphism_residual(x, y, f, margin=16, form=ws_rep_displayed),
        )
    assert worst > 1e-3  # the dressed assignment is not a representation


def test_central_elements_act_by_scalar():
    rng = np.random.default_rng(10)
    f = random_polynomial(SPEC, rng, 4)
    t = complex(0.4, -0.7)
    central = HeisenbergElement(EVector.zero(3), EVector.zero(3), t)
    out = ws_rep(central, "w").apply(f)
    scaled = np.exp(t) * f.coefficients()
    assert np.abs(out.coefficients() - scaled).max() < 1e-12


def test_ws_rep_classic_form_pointwise():
    # X(a, b, 0) sends f to exp<x|b> f(x+a)
    rng = np.random.default_rng(11)
    wide = TruncationSpec(20, 3)
    f = random_polynomial(wide, rng, 3, scale=0.6)
    a = random_evector(3, rng, 0.4)
    b = random_evector(3, rng, 0.4)
    x = random_evector(3, rng, 0.4)
    out = ws_rep(HeisenbergElement(a, b, 0j), "w").apply(f)
    expect = evaluate(f, x + a) * np.exp(complex(x.inner(b)))
    assert evaluate(out, x) == pytest.approx(expect, abs=1e-9)


def test_chi_model_agreement():
    rng = np.random.default_rng(12)
    for _ in range(10):
        fw = random_polynomial(SPEC, rng, 4)
        f = f_transform_inverse(fw)
        x = HeisenbergElement(
            random_evector(3, rng, 0.5),
            random_evector(3, rng, 0.5),
            complex(rng.standard_normal() * 0.3),
        )
        assert ws_chi_agreement(x, f) < 1e-10


def test_chi_rep_homomorphism():
    # compose inside a genuinely enlarged workspace so the intermediate image
    # keeps its tail, then compare back on the original one
    rng = np.random.default_rng(13)
    wide_spec = TruncationSpec(SPEC.max_degree + 16, SPEC.dim)
    fw = random_polynomial(SPEC, rng, 3, scale=0.7)
    fw_wide = HardyWFunction(
        FockVector(wide_spec, dict(fw.fock.coeffs)), fw.pairing
    )
    f_wide = f_transform_inverse(fw_wide)
    x = HeisenbergElement(random_evector(3, rng, 0.4), random_evector(3, rng, 0.4), 0.2j)
    y = HeisenbergElement(random_evector(3, rng, 0.4), random_evector(3, rng, 0.4), -0.1j)
    lhs = ws_rep(heis_mul(x, y), "chi").apply(f_wide)
    rhs = ws_rep(x, "chi").apply(ws_rep(y, "chi").apply(f_wide))
    diff = lhs - rhs
    narrowed = HardyChiFunction(
        SPEC, {k: v for k, v in diff.coeffs.items() if SPEC.contains(k)}
    )
    assert narrowed.norm() < 1e-10


def _element(rng):
    return HeisenbergElement(random_evector(3, rng, 0.5), random_evector(3, rng, 0.5),
                             complex(*rng.standard_normal(2)) * 0.3)


def _bits(value) -> bytes:
    return np.complex128(value).tobytes()


def test_the_three_parameter_maps_keep_their_steps_bit_for_bit():
    # each step list written out: the shift vector, the multiplication
    # vector and the scale, computed by the same expression
    rng = np.random.default_rng(27)
    for _ in range(50):
        p = QuaternionVector(random_evector(3, rng, 0.5), random_evector(3, rng, 0.5))
        x = _element(rng)
        cases = [
            (weyl(p), p.b, p.a, np.exp(0.5 * complex(p.a.inner(p.b)))),
            (ws_rep(x), x.a, x.b, np.exp(complex(x.t))),
            (ws_rep_displayed(x), x.b, x.a,
             np.exp(complex(x.t) + 0.5 * complex(x.a.inner(x.b)))),
        ]
        for op, shift, mult, scale in cases:
            (k1, v1), (k2, v2), (k3, v3) = op.steps()
            assert (k1, k2, k3) == ("shift", "mult", "scale")
            assert v1 is shift and v2 is mult
            assert _bits(v3) == _bits(scale)


def test_the_chi_model_is_the_transform_conjugate_bit_for_bit():
    rng = np.random.default_rng(28)
    for _ in range(50):
        f = f_transform_inverse(random_polynomial(SPEC, rng, 3, scale=0.7))
        x = _element(rng)
        want = f_transform_inverse(ws_rep(x).apply(f_transform(f)))
        assert ws_rep(x, "chi").apply(f).array.tobytes() == want.array.tobytes()


def test_ws_rep_rejects_an_unknown_model():
    x = HeisenbergElement.identity(3)
    with pytest.raises(ValueError, match="unknown model 'other'"):
        ws_rep(x, "other")


def test_orbit_rank_probe_full_rank():
    probe = orbit_rank_probe(TruncationSpec(3, 2), 24, seed=5)
    assert probe["dimension"] == 10
    assert probe["rank"] == probe["dimension"]
