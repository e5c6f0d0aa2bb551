"""Acceptance gate: every contracted criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and asserts both the numerical contract and the stated runtime budget.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from focklab import cli
from focklab import polycalc as pc
from focklab.fock_core import (
    EVector,
    FockVector,
    GRAM_H,
    GRAM_W,
    TruncationSpec,
    exponential_vector,
    inner,
    polarization,
    tensor_power,
)
from focklab.hardy_chi import (
    HardyChiFunction,
    closed_form_level_one,
    f_transform,
    f_transform_inverse,
    mc_f_transform,
    mult_group_chi,
    norm_convergence_study,
    shift_group_chi,
)
from focklab.hardy_w import (
    HardyWFunction,
    commutator_check,
    directional_derivative,
    multiply_exp,
    random_evector,
    random_polynomial,
    residual,
    shift,
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
    g_iso,
    heis_inv,
    heis_mul,
    weyl_relation_residual,
    ws_chi_agreement,
    ws_homomorphism_residual,
)
from focklab.operators import (
    MONOMIAL,
    W_ADJOINT,
    adjoint,
    annihilation_monomial,
    creation,
    exp_creation,
)
from focklab.partitions import (
    BasisKey,
    all_diagrams,
    constant_c,
    degree_keys,
    h_norm_sq,
    w_norm_sq,
)
from focklab.semigroups import (
    gaussian_moment,
    gw_mult,
    gw_mult_oracle,
    gw_shift,
    gw_shift_quadrature,
    hermite_rule,
)
from focklab.unitary_haar import (
    exact_moment,
    haar_batch,
    invariance_report,
    livsic_project_batch,
    pushforward_consistency,
    sample_moments,
    substream,
    unitarity_defect,
)

SEED = 20240801


def _report(number: int, description: str, ok: bool, elapsed: float, budget: float):
    line = (
        f"AC{number:02d} {'PASS' if ok else 'FAIL'} "
        f"[{elapsed:6.2f}s / {budget:g}s] {description}"
    )
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, f"AC{number:02d} exceeded its runtime budget: {line}"


def test_ac01_weight_tables():
    start = time.time()
    ok = True
    for diagram in all_diagrams(6):
        parts = diagram.parts
        n, l = sum(parts), max(len(parts), 1)
        num_c = 1
        for i in range(1, l):
            num_c *= i
        for i in range(1, n + 1):
            num_c *= i
        den_c = 1
        for i in range(1, l - 1 + n + 1):
            den_c *= i
        oracle_c = Fraction(num_c, den_c)
        num_h = 1
        for p in parts:
            for i in range(1, p + 1):
                num_h *= i
        den_h = 1
        for i in range(1, n + 1):
            den_h *= i
        oracle_h = Fraction(num_h, den_h)
        ok &= constant_c(diagram) == oracle_c
        ok &= h_norm_sq(diagram) == oracle_h
        ok &= w_norm_sq(diagram) == oracle_c * oracle_h
    _report(1, "weight tables match the independent big-integer oracle", ok,
            time.time() - start, 1.0)


def test_ac02_basis_counts():
    start = time.time()
    ok = True
    for d in range(1, 6):
        for n in range(7):
            count = len(degree_keys(n, d))
            brute = sum(1 for _ in combinations_with_replacement(range(d), n))
            ok &= count == math.comb(n + d - 1, n) == brute
    _report(2, "canonical key counts equal binomials and brute-force enumeration",
            ok, time.time() - start, 1.0)


def test_ac03_polarization():
    start = time.time()
    spec = TruncationSpec(4, 3)
    ok = True
    for key in spec.keys():
        exact = polarization(key.diagram, key.tuple.indices, spec, exact=True)
        ok &= exact.coeffs == {key: Fraction(1)}
        approx = polarization(key.diagram, key.tuple.indices, spec, exact=False)
        diff = approx - FockVector.basis(spec, key, 1.0)
        ok &= diff.max_abs_coeff() <= 1e-10
    _report(3, "polarization recovers every small basis key (exact and float)",
            ok, time.time() - start, 5.0)


def test_ac04_contractivity_and_coherent_bound():
    start = time.time()
    spec = TruncationSpec(10, 3)
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(200):
        x = random_evector(3, rng, scale=2.0 / math.sqrt(6))
        ev = exponential_vector(x, spec)
        w2 = complex(inner(GRAM_W, ev, ev)).real
        h2 = complex(inner(GRAM_H, ev, ev)).real
        ok &= w2 <= h2 * (1 + 1e-12)
        ok &= w2 <= math.exp(x.norm_sq()) * (1 + 1e-12)
        psi = random_polynomial(spec, rng, 8).fock
        ok &= psi.norm(GRAM_W) <= psi.norm(GRAM_H) * (1 + 1e-12)
    _report(4, "weighted norms are contractive and coherent vectors obey the bound",
            ok, time.time() - start, 10.0)


def test_ac05_annihilation_is_plain_adjoint():
    start = time.time()
    spec = TruncationSpec(6, 3)
    rng = np.random.default_rng(SEED + 1)
    ok = True
    for _ in range(100):
        a = random_evector(3, rng)
        x = random_evector(3, rng)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        via = adjoint(GRAM_H, creation(a, m, spec)).apply(tensor_power(x, n, spec))
        direct = annihilation_monomial(a, m, x, n, spec)
        ok &= (via - direct).norm(GRAM_W) <= 1e-10
    e1 = EVector.basis(1, 3)
    target = FockVector.basis(spec, BasisKey.make((1, 1), (1, 2)))
    k2 = BasisKey.make((1,), (2,))
    h_coeff = adjoint(GRAM_H, creation(e1, 1, spec)).apply(target).coeffs[k2]
    w_coeff = adjoint(GRAM_W, creation(e1, 1, spec)).apply(target).coeffs[k2]
    ok &= abs(h_coeff - 0.5) <= 1e-12 and abs(w_coeff - 1 / 6) <= 1e-12
    _report(5, "closed-form annihilation is the plain adjoint; weighted witness pinned",
            ok, time.time() - start, 5.0)


def test_ac06_group_laws():
    start = time.time()
    spec = TruncationSpec(6, 3)
    rng = np.random.default_rng(SEED + 2)
    ok = True
    for _ in range(50):
        a = random_evector(3, rng, 0.7)
        b = random_evector(3, rng, 0.7)
        ab = EVector(tuple(x + y for x, y in zip(a.coords, b.coords)))
        comb = exp_creation(ab, spec)
        comp = exp_creation(a, spec).compose(exp_creation(b, spec))
        ok &= comb.max_block_difference(comp) <= 1e-10
        f = random_polynomial(spec, rng, 4)
        ok &= residual(shift(shift(f, a), b), shift(f, ab)) <= 1e-10
        ok &= residual(
            multiply_exp(multiply_exp(f, a), b), multiply_exp(f, ab)
        ) <= 1e-10
    _report(6, "creation, shift, and multiplication families satisfy the group laws",
            ok, time.time() - start, 30.0)


def test_ac07_intertwining():
    start = time.time()
    spec = TruncationSpec(6, 4)
    rng = np.random.default_rng(SEED + 3)
    ok = True
    selections = []
    for pairing, variant in ((GRAM_W, W_ADJOINT), (GRAM_H, MONOMIAL)):
        worst = 0.0
        for _ in range(25):
            a = random_evector(4, rng, 0.8)
            f = f_transform_inverse(random_polynomial(spec, rng, 6))
            lhs = shift(f_transform(f, pairing), a)
            rhs = f_transform(mult_group_chi(f, a, variant), pairing)
            worst = max(worst, residual(lhs, rhs))
        ok &= worst <= 1e-10
        selections.append(f"{pairing}/{variant}:{worst:.2e}")
    worst2 = 0.0
    for _ in range(50):
        a = random_evector(4, rng, 0.8)
        f = f_transform_inverse(random_polynomial(spec, rng, 3))
        lhs = multiply_exp(f_transform(f, pc.TAYLOR), a)
        rhs = f_transform(shift_group_chi(f, a), pc.TAYLOR)
        worst2 = max(worst2, residual(lhs, rhs))
    ok &= worst2 <= 1e-10
    _report(7, "transform intertwines both operator groups "
               f"(selections {'; '.join(selections)}; shift-side {worst2:.2e})",
            ok, time.time() - start, 30.0)


def test_ac08_commutation_both_models():
    start = time.time()
    spec = TruncationSpec(6, 3)
    rng = np.random.default_rng(SEED + 4)
    ok = True
    for _ in range(50):
        a = random_evector(3, rng, 0.8)
        b = random_evector(3, rng, 0.8)
        f = random_polynomial(spec, rng, 4)
        ok &= commutator_check(f, a, b) <= 1e-10
        fchi = f_transform_inverse(f)
        from focklab.hardy_chi import chi_shift_generator

        lhs = f_transform_inverse(
            directional_derivative(f_transform(chi_shift_generator(fchi, b)), a)
        )
        rhs = chi_shift_generator(
            f_transform_inverse(directional_derivative(f_transform(fchi), a)), b
        )
        diff = lhs - rhs - fchi.scale(complex(a.inner(b)))
        ok &= diff.norm() <= 1e-10
    _report(8, "generator commutation relations hold in both models",
            ok, time.time() - start, 10.0)


def test_ac09_gauss_weierstrass():
    start = time.time()
    spec = TruncationSpec(6, 3)
    rng = np.random.default_rng(SEED + 5)
    ok = True
    nodes, weights = hermite_rule(64)
    for r in (0.5, 1.0, 2.0):
        for k in range(1, 7):
            quad = sum(
                w * (2 * math.sqrt(r) * x) ** (2 * k) for x, w in zip(nodes, weights)
            ) / math.sqrt(math.pi)
            ok &= abs(quad - gaussian_moment(r, k)) <= 1e-8 * gaussian_moment(r, k)
    for r in (0.1, 1.0):
        for _ in range(10):
            a = random_evector(3, rng, 0.8)
            f = random_polynomial(spec, rng, 4)
            ok &= residual(gw_mult(f, a, r), gw_mult_oracle(f, a, r)) <= 1e-8
            ok &= residual(gw_shift(f, a, r), gw_shift_quadrature(f, a, r)) <= 1e-8
            ok &= residual(gw_mult(gw_mult(f, a, r), a, 0.4), gw_mult(f, a, r + 0.4)) <= 1e-8
    a = random_evector(3, rng, 0.8)
    f = random_polynomial(spec, rng, 4)
    gen = directional_derivative(f, a, 2)
    errors = []
    for h in (1e-3, 1e-4):
        flow = gw_shift(f, a, h)
        slope = HardyWFunction.from_coefficients(
            (flow.coefficients() - f.coefficients()) / h, spec, f.pairing
        )
        errors.append(residual(slope, gen))
    order = math.log(errors[0] / errors[1]) / math.log(10)
    ok &= order >= 1.0 - 0.05
    _report(9, "heat semigroups: quadrature, closed forms, flow law, generator slope",
            ok, time.time() - start, 30.0)


def test_ac10_heisenberg():
    start = time.time()
    spec = TruncationSpec(6, 3)
    rng = np.random.default_rng(SEED + 6)
    ok = True
    units = {"1": QUAT_ONE, "i": QUAT_I, "j": QUAT_J, "k": QUAT_K}
    table = {
        ("i", "i"): -QUAT_ONE, ("j", "j"): -QUAT_ONE, ("k", "k"): -QUAT_ONE,
        ("i", "j"): QUAT_K, ("j", "i"): -QUAT_K,
        ("j", "k"): QUAT_I, ("k", "j"): -QUAT_I,
        ("k", "i"): QUAT_J, ("i", "k"): -QUAT_J,
    }
    for names, want in table.items():
        ok &= (units[names[0]] * units[names[1]]).isclose(want, tol=0.0)
    for name, unit in units.items():
        ok &= (QUAT_ONE * unit).isclose(unit, tol=0.0)
        ok &= (unit * QUAT_ONE).isclose(unit, tol=0.0)

    def rand_elem(scale=0.5):
        return HeisenbergElement(
            random_evector(3, rng, scale),
            random_evector(3, rng, scale),
            complex(rng.standard_normal(), rng.standard_normal()) * 0.3,
        )

    for _ in range(50):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        left = heis_mul(heis_mul(x, y), z)
        right = heis_mul(x, heis_mul(y, z))
        ok &= abs(left.t - right.t) <= 1e-12
        inv = heis_mul(x, heis_inv(x))
        ok &= abs(inv.t) <= 1e-12
        lhs = g_iso(heis_mul(x, y))
        rhs = aux_mul(g_iso(x), g_iso(y))
        ok &= abs(lhs[0] - rhs[0]) <= 1e-12

    weyl_worst = homo_worst = 0.0
    for _ in range(100):
        f = random_polynomial(spec, rng, 3, scale=0.7)
        p = QuaternionVector(
            random_evector(3, rng, 0.4, real=True), random_evector(3, rng, 0.4, real=True)
        )
        q = QuaternionVector(
            random_evector(3, rng, 0.4, real=True), random_evector(3, rng, 0.4, real=True)
        )
        weyl_worst = max(weyl_worst, weyl_relation_residual(p, q, f, margin=16))
        homo_worst = max(
            homo_worst,
            ws_homomorphism_residual(rand_elem(), rand_elem(), f, margin=16),
        )
    ok &= weyl_worst <= 1e-8 and homo_worst <= 1e-8

    agree_worst = 0.0
    for _ in range(20):
        f = f_transform_inverse(random_polynomial(spec, rng, 4))
        agree_worst = max(agree_worst, ws_chi_agreement(rand_elem(), f))
    ok &= agree_worst <= 1e-10
    _report(10, "quaternions, group axioms, Weyl relation, representation, both models"
                f" (weyl {weyl_worst:.2e}, rep {homo_worst:.2e})",
            ok, time.time() - start, 60.0)


def test_ac11_haar_sampler_moments():
    start = time.time()
    ok = True
    for m in range(1, 7):
        estimates, _ = sample_moments(m, 200000, SEED + m)
        for name in ("abs_u11_sq", "abs_u11_quad"):
            z = estimates[name].z_against(exact_moment(name, m))
            ok &= abs(z) <= 4.0
    for m in (2, 3):
        report = invariance_report(m, 200000, SEED + 10 + m)
        for side in report["sides"].values():
            ok &= all(abs(moment["z"]) <= 4.0 for moment in side)
    _report(11, "Haar entry moments and translation invariance within four sigma",
            ok, time.time() - start, 120.0)


def test_ac12_livsic():
    start = time.time()
    ok = True
    rng = substream(SEED + 30, 0)
    for m in (1, 2, 3):
        projected, _ = livsic_project_batch(haar_batch(m + 1, 10000, rng))
        ok &= unitarity_defect(projected) <= 1e-10
        report = pushforward_consistency(m, 200000, SEED + 31 + m)
        ok &= all(abs(moment["z"]) <= 4.0 for moment in report["moments"])
    _report(12, "projections stay unitary and push Haar forward consistently",
            ok, time.time() - start, 60.0)


def test_ac13_mc_transform():
    start = time.time()
    spec = TruncationSpec(6, 3)
    ok = True
    x = EVector((0.6 - 0.35j, 0.0, 0.0))
    for k in range(3):
        key = BasisKey.vacuum() if k == 0 else BasisKey.make((k,), (1,))
        f = HardyChiFunction.basis(spec, key)
        est = mc_f_transform(f, x, 1, 100000, SEED + 40 + k)
        ok &= est.z_against(closed_form_level_one(key, x)) <= 4.0
    prev = None
    ratios = []
    for step in range(4):
        est = mc_f_transform(
            HardyChiFunction.constant(spec), x, 1, 12500 * 2**step, SEED + 50
        )
        if prev is not None:
            ratios.append(est.stderr / prev)
        prev = est.stderr
    ok &= all(abs(r - 1 / math.sqrt(2)) <= 0.1 / math.sqrt(2) for r in ratios)
    report_rows = {}
    for key in (BasisKey.make((1,), (1,)), BasisKey.make((2,), (1,))):
        rows = norm_convergence_study(key, (1, 2, 4, 8), 50000, SEED + 60)
        report_rows[key.label()] = rows
        ok &= len(rows) == 4 and all("empirical" in r and "limit_value" in r for r in rows)
    _report(13, "level-one closed forms, error-halving law, norm study emitted",
            ok, time.time() - start, 180.0)


def test_ac14_byte_identical_reports(tmp_path):
    start = time.time()
    outputs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / tag
        proc = subprocess.run(
            [
                sys.executable, "-m", "focklab.cli", "run", "all",
                "--seed", "42", "--samples", "40000",
                "--workers", workers, "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out)
    ok = True
    names = sorted(p.name for p in outputs[0].iterdir())
    for name in names:
        blobs = [(out / name).read_bytes() for out in outputs]
        ok &= blobs[0] == blobs[1] == blobs[2]
    _report(14, f"repeated full runs are byte-identical across worker counts "
                f"({len(names)} report files)",
            ok, time.time() - start, 600.0)
