"""Verification suites and command line entry point.

Every suite draws its randomness from the configured seed, reduces Monte
Carlo partial sums in a fixed order, and writes reports without timestamps,
so identical configurations produce byte-identical output for any worker
count.  Exit status is the conjunction of the contracted checks; study rows
(finite-level norm tables, recorded residuals without a pass contract)
never affect it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import fock_core as fc
from . import hardy_chi as hc
from . import hardy_w as hw
from . import heisenberg as hei
from . import operators as ops
from . import partitions as pt
from . import polycalc as pc
from . import semigroups as sg
from . import unitary_haar as uh

# the workspace of the ftransform suite; the other suites fix their own
FTRANSFORM_SPEC = fc.TruncationSpec(6, 4)

# the tolerances the suites read; each reading site keeps its own default
TOLERANCE_NAMES = frozenset((
    "annihilation", "chain", "coherent", "commutator", "conjugation", "contractivity",
    "finite_difference", "group", "growth", "gw", "gw_zero", "hs", "intertwine", "isometry",
    "kernel", "leibniz", "moment", "pointwise", "polarization", "product", "quat", "route",
    "unitarity", "weyl", "weyl_group", "witness",
))


def _tolerance_name(name: str) -> str:
    if name not in TOLERANCE_NAMES:
        raise ValueError(f"unknown tolerance {name!r}")
    return name


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20240801
    samples: int = 200000
    levels: tuple[int, ...] = (1, 2, 4, 8)
    variant: str = ops.W_ADJOINT
    margin: int = 16
    workers: int = 1
    tolerances: tuple[tuple[str, float], ...] = ()
    out: str = "reports"

    def tol(self, name: str, default: float) -> float:
        return dict(self.tolerances).get(_tolerance_name(name), default)

    def readout(self) -> str:
        """The readout under which the annihilation variant intertwines."""
        return fc.GRAM_W if self.variant == ops.W_ADJOINT else fc.GRAM_H

    def report_fields(self) -> dict:
        """Configuration as recorded in reports.

        The output directory and the worker count are excluded: neither may
        influence a single computed number, so reports stay byte-identical
        across output locations and degrees of parallelism.
        """
        data = asdict(self)
        data.pop("out")
        data.pop("workers")
        return data

    def canonical_text(self) -> str:
        data = self.report_fields()
        lines = [f"{key} = {data[key]}" for key in sorted(data)]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _parse_levels(text: str) -> tuple[int, ...]:
    levels = tuple(int(v) for v in text.split(","))
    if min(levels) < 1:
        raise ValueError(f"levels must be positive, got {text!r}")
    return levels


def _parse_tol(item: str) -> tuple[str, float]:
    name, sep, value = item.partition("=")
    if not sep or not name.strip():
        raise ValueError(f"expected name=value, got {item!r}")
    return _tolerance_name(name.strip()), float(value)


_CONFIG_PARSERS = {"seed": int, "samples": int, "margin": int, "workers": int,
                   "levels": _parse_levels, "variant": str, "out": str}


def load_config(path: str | None) -> RunConfig:
    """Flat key = value file; '#' starts a comment; unknown keys rejected.

    A malformed file raises one ``ValueError``.
    """
    cfg = RunConfig()
    if path is None:
        return cfg
    updates, tols = {}, {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parse = float if key.startswith("tol.") else _CONFIG_PARSERS.get(key)
        if parse is None:
            raise ValueError(f"unknown config key {key!r}")
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
        if key.startswith("tol."):
            tols[_tolerance_name(key[4:])] = parsed
        else:
            updates[key] = parsed
    return replace(cfg, **updates, tolerances=tuple(sorted(tols.items())))


@dataclass
class Case:
    id: str
    statement: str
    residual: float
    tolerance: float
    contracted: bool = True

    @property
    def status(self) -> str:
        if not self.contracted:
            return "report"
        return "pass" if self.residual <= self.tolerance else "fail"

    def as_dict(self) -> dict:
        return {**asdict(self), "status": self.status}


def _rng(cfg: RunConfig, tag: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(hash_tag(tag),))
    )


def hash_tag(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")


# -- suite: weights -----------------------------------------------------------

def _oracle_constant(parts: tuple[int, ...]) -> Fraction:
    # independent route: explicit product loops instead of factorial calls
    n = sum(parts)
    l = max(len(parts), 1)
    num = 1
    for i in range(1, l):
        num *= i
    for i in range(1, n + 1):
        num *= i
    den = 1
    for i in range(1, l - 1 + n + 1):
        den *= i
    return Fraction(num, den)


def _oracle_h(parts: tuple[int, ...]) -> Fraction:
    num = 1
    for p in parts:
        for i in range(1, p + 1):
            num *= i
    den = 1
    for i in range(1, sum(parts) + 1):
        den *= i
    return Fraction(num, den)


def suite_weights(cfg: RunConfig):
    cases = []
    bad = 0
    for diagram in pt.all_diagrams(6):
        parts = diagram.parts
        if pt.constant_c(diagram) != _oracle_constant(parts):
            bad += 1
        if pt.h_norm_sq(diagram) != _oracle_h(parts):
            bad += 1
        if pt.w_norm_sq(diagram) != _oracle_constant(parts) * _oracle_h(parts):
            bad += 1
    cases.append(
        Case("weights.oracle", "exact weights match the independent factorial oracle",
             float(bad), 0.0)
    )
    spot = abs(float(pt.constant_c(pt.YoungDiagram((2, 1)))) - 0.25)
    cases.append(Case("weights.spot", "constant of the (2,1) diagram equals 1/4", spot, 0.0))
    bound = 0
    for diagram in pt.all_diagrams(8):
        c = pt.constant_c(diagram)
        if not 0 < c <= 1:
            bound += 1
        tight = diagram.length() == 1 or diagram.weight() <= 1
        if tight != (c == 1):
            bound += 1
        if pt.w_norm_sq(diagram) > pt.h_norm_sq(diagram):
            bound += 1
    cases.append(
        Case("weights.bounds", "constants lie in (0,1] with equality exactly on rows",
             float(bound), 0.0)
    )
    table = [
        {
            "diagram": "(" + ",".join(str(p) for p in d.parts) + ")",
            "constant": str(pt.constant_c(d)),
            "constant_float": float(pt.constant_c(d)),
            "plain_norm_sq": str(pt.h_norm_sq(d)),
            "weighted_norm_sq": str(pt.w_norm_sq(d)),
        }
        for d in pt.all_diagrams(6)
    ]
    studies = [{
        "id": "weights.table",
        "statement": "weight table for all diagrams of weight at most six",
        "rows": table,
    }]
    return cases, studies


# -- suite: fock --------------------------------------------------------------

def _brute_multiset_count(n: int, d: int) -> int:
    from itertools import combinations_with_replacement

    return sum(1 for _ in combinations_with_replacement(range(d), n))


def suite_fock(cfg: RunConfig):
    cases = []
    mismatch = 0
    for d in range(1, 6):
        for n in range(7):
            count = len(pt.degree_keys(n, d))
            if count != math.comb(n + d - 1, n) or count != _brute_multiset_count(n, d):
                mismatch += 1
    cases.append(
        Case("fock.counts", "canonical key counts match brute-force multiset enumeration",
             float(mismatch), 0.0)
    )

    spec = fc.TruncationSpec(4, 3)
    worst = 0.0
    exact_bad = 0
    for key in spec.keys():
        rebuilt = fc.polarization(key.diagram, key.tuple.indices, spec, exact=True)
        expect = fc.FockVector.basis(spec, key, Fraction(1))
        if rebuilt != expect:
            exact_bad += 1
        approx = fc.polarization(key.diagram, key.tuple.indices, spec, exact=False)
        diff = approx - fc.FockVector.basis(spec, key, 1.0)
        worst = max(worst, diff.max_abs_coeff())
    cases.append(Case("fock.polarization.exact",
                      "rational polarization reproduces every basis key exactly",
                      float(exact_bad), 0.0))
    cases.append(Case("fock.polarization.float",
                      "floating polarization reproduces keys within tolerance",
                      worst, cfg.tol("polarization", 1e-10)))

    rng = _rng(cfg, "fock")
    spec10 = fc.TruncationSpec(10, 3)
    contract_bad = 0.0
    exp_bad = 0.0
    for _ in range(200):
        x = hw.random_evector(3, rng, scale=2.0 / math.sqrt(6))
        ev = fc.exponential_vector(x, spec10)
        w2 = float(ev.norm_sq(fc.GRAM_W).real)
        h2 = float(ev.norm_sq(fc.GRAM_H).real)
        contract_bad = max(contract_bad, w2 - h2)
        exp_bad = max(exp_bad, w2 - math.exp(x.norm_sq()) * (1 + 1e-12))
    cases.append(Case("fock.contractivity",
                      "weighted norm never exceeds the plain norm",
                      max(contract_bad, 0.0), cfg.tol("contractivity", 1e-12)))
    cases.append(Case("fock.coherent_bound",
                      "squared weighted norm of coherent vectors below exp of squared norm",
                      max(exp_bad, 0.0), 0.0))

    prod_bad = 0.0
    spec6 = fc.TruncationSpec(6, 3)
    for _ in range(20):
        x = hw.random_evector(3, rng)
        lhs = fc.symmetric_product(
            fc.tensor_power(x, 1, spec6), fc.tensor_power(x, 1, spec6)
        )
        rhs = fc.tensor_power(x, 2, spec6)
        prod_bad = max(prod_bad, (lhs - rhs).max_abs_coeff())
    cases.append(Case("fock.product_power",
                      "product of first powers reproduces the second tensor power",
                      prod_bad, cfg.tol("product", 1e-12)))

    hs_bad = 0.0
    for _ in range(20):
        x = hw.random_evector(3, rng)
        n = int(rng.integers(1, 5))
        tp = fc.tensor_power(x, n, spec6)
        for key in pt.degree_keys(n, 3):
            basis = fc.FockVector.basis(spec6, key, 1.0)
            via_inner = fc.inner(fc.GRAM_H, tp, basis)
            mono = fc.hs_polynomial_eval(basis, x)
            hs_bad = max(hs_bad, abs(via_inner - mono))
    cases.append(Case("fock.hs_pairing",
                      "plain pairing of tensor powers returns the key monomial",
                      hs_bad, cfg.tol("hs", 1e-10)))

    v = fc.polarization(pt.YoungDiagram((2, 1)), (1, 2), spec, exact=True)
    round_bad = 0 if fc.from_json(fc.to_json(v)).coeffs == v.coeffs else 1
    cases.append(Case("fock.serialization",
                      "rational vectors survive a JSON round trip bit exactly",
                      float(round_bad), 0.0))
    return cases, []


# -- suite: operators ---------------------------------------------------------

def suite_operators(cfg: RunConfig):
    cases = []
    spec = fc.TruncationSpec(6, 3)
    rng = _rng(cfg, "operators")

    worst = 0.0
    for _ in range(100):
        a = hw.random_evector(3, rng)
        x = hw.random_evector(3, rng)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        via_adj = ops.adjoint(fc.GRAM_H, ops.creation(a, m, spec)).apply(
            fc.tensor_power(x, n, spec)
        )
        direct = ops.annihilation_monomial(a, m, x, n, spec)
        worst = max(worst, (via_adj - direct).norm(fc.GRAM_W))
    cases.append(Case("operators.monomial_adjoint",
                      "plain-Gram adjoint of creation acts on monomials by the closed form",
                      worst, cfg.tol("annihilation", 1e-10)))

    e1 = fc.EVector.basis(1, 3)
    k11 = pt.BasisKey.make((1, 1), (1, 2))
    target = fc.FockVector.basis(spec, k11)
    h_val = ops.adjoint(fc.GRAM_H, ops.creation(e1, 1, spec)).apply(target)
    w_val = ops.adjoint(fc.GRAM_W, ops.creation(e1, 1, spec)).apply(target)
    k2 = pt.BasisKey.make((1,), (2,))
    witness = abs(h_val.coeffs.get(k2, 0) - 0.5) + abs(w_val.coeffs.get(k2, 0) - 1.0 / 6)
    cases.append(Case("operators.adjoint_witness",
                      "pinned witness: plain adjoint gives 1/2, weighted adjoint 1/6",
                      float(witness), cfg.tol("witness", 1e-12)))

    fd_worst = 0.0
    h = 1e-5
    for _ in range(10):
        a = hw.random_evector(3, rng)
        x = hw.random_evector(3, rng)
        n = int(rng.integers(2, 6))
        created = ops.creation(a, 1, spec).apply(fc.tensor_power(x, n - 1, spec))
        plus = fc.tensor_power(x + a.scale(h), n, spec)
        minus = fc.tensor_power(x + a.scale(-h), n, spec)
        fd = (plus - minus).scale(
            math.factorial(n - 1) / math.factorial(n) / (2 * h)
        )
        fd_worst = max(fd_worst, (created - fd).norm(fc.GRAM_W))
    cases.append(Case("operators.derivative_route",
                      "creation matches the central finite difference of shifted powers",
                      fd_worst, cfg.tol("finite_difference", 1e-7)))

    add_worst = 0.0
    for _ in range(20):
        a = hw.random_evector(3, rng, 0.7)
        b = hw.random_evector(3, rng, 0.7)
        combined = ops.exp_creation(a + b, spec)
        composed = ops.exp_creation(a, spec).compose(ops.exp_creation(b, spec))
        swapped = ops.exp_creation(b, spec).compose(ops.exp_creation(a, spec))
        add_worst = max(
            add_worst,
            combined.max_block_difference(composed),
            combined.max_block_difference(swapped),
        )
        for variant in ops.VARIANTS:
            comb = ops.exp_annihilation(a + b, spec, variant)
            comp = ops.exp_annihilation(a, spec, variant).compose(
                ops.exp_annihilation(b, spec, variant)
            )
            add_worst = max(add_worst, comb.max_block_difference(comp))
    cases.append(Case("operators.group_additivity",
                      "creation and annihilation exponentials compose additively",
                      add_worst, cfg.tol("group", 1e-10)))

    # own stream, so the draws of the other cases stay as they were
    power_rng = _rng(cfg, "operators.creation_power")
    power_worst = 0.0
    for _ in range(20):
        a = hw.random_evector(3, power_rng)
        first = ops.creation(a, 1, spec)
        iterated = first
        for m in range(2, 5):
            iterated = first.compose(iterated)
            power_worst = max(power_worst,
                              ops.creation(a, m, spec).max_block_difference(iterated))
    cases.append(Case("operators.creation_power",
                      "creation(a, m) equals the m-th power of creation(a, 1) for m <= 4",
                      power_worst, cfg.tol("group", 1e-10)))

    coh_worst = 0.0
    grow_worst = 0.0
    nabla_worst = 0.0
    for _ in range(20):
        a = hw.random_evector(3, rng, 0.8)
        x = hw.random_evector(3, rng, 0.8)
        ev = fc.exponential_vector(x, spec)
        lhs = ops.exp_creation(a, spec).apply(ev)
        rhs = fc.exponential_vector(x + a, spec)
        coh_worst = max(coh_worst, (lhs - rhs).norm(fc.GRAM_W))
        grow_worst = max(
            grow_worst,
            lhs.norm(fc.GRAM_W) ** 2 - math.exp((x + a).norm_sq()) * (1 + 1e-12),
        )
        for m in (1, 2):
            power = ops.creation(a, m, spec).apply(ev)
            nabla_worst = max(
                nabla_worst,
                power.norm(fc.GRAM_W) - a.norm() ** m * ev.norm(fc.GRAM_W),
            )
    cases.append(Case("operators.coherent_shift",
                      "creation exponential shifts coherent vectors exactly",
                      coh_worst, cfg.tol("coherent", 1e-10)))
    cases.append(Case("operators.coherent_growth",
                      "shifted coherent vectors stay below the coherent norm bound",
                      max(grow_worst, 0.0), 0.0))
    cases.append(Case("operators.power_bound",
                      "creation powers of coherent vectors obey the per-power bound",
                      max(nabla_worst, 0.0), cfg.tol("growth", 1e-10)))

    # counterexample to the squared-exponent operator bound, pinned as data:
    # one variable, unit shift of the unit coherent vector
    spec1 = fc.TruncationSpec(30, 1)
    e1 = fc.EVector.basis(1, 1)
    ratio = (
        fc.exponential_vector(e1.scale(2.0), spec1).norm(fc.GRAM_W) ** 2
        / fc.exponential_vector(e1, spec1).norm(fc.GRAM_W) ** 2
    )
    studies = [{
        "id": "operators.squared_exponent_bound",
        "statement": "the squared-exponential growth bound fails on superpositions and "
                     "even on coherent vectors; recorded witness ratio vs exp(1)",
        "witness_ratio": ratio,
        "claimed_bound": math.e,
        "violated": ratio > math.e,
    }]

    a = hw.random_evector(3, rng)
    op1 = ops.exp_creation(a, spec)
    op2 = ops.exp_creation(a, spec)
    cases.append(Case("operators.assembly_determinism",
                      "repeated assembly yields identical blocks",
                      op1.max_block_difference(op2), 0.0))
    return cases, studies


# -- suite: hardy -------------------------------------------------------------

def suite_hardy(cfg: RunConfig):
    cases = []
    spec = fc.TruncationSpec(6, 3)
    rng = _rng(cfg, "hardy")

    point_worst = {p: 0.0 for p in pc.PAIRINGS}
    for _ in range(20):
        a = hw.random_evector(3, rng, 0.7)
        x = hw.random_evector(3, rng, 0.7)
        for pairing in pc.PAIRINGS:
            f = hw.random_polynomial(spec, rng, 4, pairing)
            lhs = hw.evaluate(hw.shift(f, a), x)
            rhs = hw.evaluate(f, x + a)
            point_worst[pairing] = max(point_worst[pairing], abs(lhs - rhs))
    for pairing in pc.PAIRINGS:
        cases.append(Case(f"hardy.shift_pointwise.{pairing}",
                          f"shift agrees with substitution under the {pairing} readout",
                          point_worst[pairing], cfg.tol("pointwise", 1e-10)))

    kernel_worst = 0.0
    for _ in range(10):
        x = hw.random_evector(3, rng, 0.7)
        for pairing in (fc.GRAM_W, fc.GRAM_H):
            f = hw.random_polynomial(spec, rng, 4, pairing)
            kernel_worst = max(
                kernel_worst,
                abs(hw.evaluate(f, x) - hw.evaluate_kernel(f, x, pairing)),
            )
    cases.append(Case("hardy.kernel_route",
                      "direct evaluation matches the coherent-kernel pairing route",
                      kernel_worst, cfg.tol("kernel", 1e-10)))

    mult_worst = 0.0
    wide = fc.TruncationSpec(6 + cfg.margin, 3)
    for _ in range(20):
        a = hw.random_evector(3, rng, 0.5)
        x = hw.random_evector(3, rng, 0.5)
        f = hw.random_polynomial(wide, rng, 4)
        lhs = hw.evaluate(hw.multiply_exp(f, a), x)
        rhs = hw.evaluate(f, x) * np.exp(complex(x.inner(a)))
        mult_worst = max(mult_worst, abs(lhs - rhs))
    cases.append(Case("hardy.mult_pointwise",
                      "exp multiplication matches pointwise products inside the headroom",
                      mult_worst, cfg.tol("pointwise", 1e-10)))

    group_worst = 0.0
    for _ in range(50):
        a = hw.random_evector(3, rng, 0.6)
        b = hw.random_evector(3, rng, 0.6)
        f = hw.random_polynomial(spec, rng, 4)
        shift_two = hw.shift(hw.shift(f, a), b)
        shift_sum = hw.shift(f, a + b)
        group_worst = max(group_worst, hw.residual(shift_two, shift_sum))
        mult_two = hw.multiply_exp(hw.multiply_exp(f, a), b)
        mult_sum = hw.multiply_exp(f, a + b)
        group_worst = max(group_worst, hw.residual(mult_two, mult_sum))
    cases.append(Case("hardy.group_laws",
                      "shift and multiplication families are one-parameter groups",
                      group_worst, cfg.tol("group", 1e-10)))

    adj_worst = 0.0
    cre_worst = 0.0
    for _ in range(10):
        a = hw.random_evector(3, rng, 0.6)
        for pairing in (fc.GRAM_W, fc.GRAM_H):
            f = hw.random_polynomial(spec, rng, 4, pairing)
            adj_worst = max(
                adj_worst, hw.residual(hw.shift(f, a), hw.shift_via_adjoint(f, a))
            )
        ft = hw.random_polynomial(spec, rng, 4, pc.TAYLOR)
        cre_worst = max(
            cre_worst,
            hw.residual(hw.multiply_exp(ft, a), hw.multiply_via_creation(ft, a)),
        )
    cases.append(Case("hardy.shift_adjoint_route",
                      "shift equals the Gram-adjoint transport of the creation exponential",
                      adj_worst, cfg.tol("route", 1e-10)))
    cases.append(Case("hardy.mult_creation_route",
                      "multiplication equals the creation exponential on the Taylor readout",
                      cre_worst, cfg.tol("route", 1e-10)))

    cs_worst = 0.0
    for _ in range(20):
        x = hw.random_evector(3, rng, 0.8)
        f = hw.random_polynomial(spec, rng, 5, fc.GRAM_W)
        bound = fc.exponential_vector(x, spec).norm(fc.GRAM_W) * f.norm()
        cs_worst = max(cs_worst, abs(hw.evaluate(f, x)) - bound * (1 + 1e-12))
    cases.append(Case("hardy.evaluation_bound",
                      "point evaluations obey the Cauchy-Schwarz kernel bound",
                      max(cs_worst, 0.0), 0.0))

    slope_ok = 0.0
    a = hw.random_evector(3, rng, 0.7)
    f = hw.random_polynomial(spec, rng, 4)
    exact = hw.directional_derivative(f, a)
    errors = []
    for h in (1e-2, 1e-3, 1e-4):
        fd = hw.finite_difference_derivative(f, a, h)
        errors.append(hw.residual(fd, exact))
    order1 = math.log(errors[0] / errors[1]) / math.log(10)
    order2 = math.log(errors[1] / errors[2]) / math.log(10)
    slope_ok = min(order1, order2)
    cases.append(Case("hardy.generator_slope",
                      "finite differences of the shift converge to the derivative at order >= 1",
                      1.0 - min(slope_ok, 1.0), 0.05))

    leib_worst = 0.0
    for _ in range(20):
        a = hw.random_evector(3, rng, 0.7)
        b = hw.random_evector(3, rng, 0.7)
        f = hw.random_polynomial(spec, rng, 4)
        lhs = hw.directional_derivative(hw.generator_mult(f, b), a)
        rhs_c = (
            complex(a.inner(b)) * f.coefficients()
            + hw.generator_mult(hw.directional_derivative(f, a), b).coefficients()
        )
        leib_worst = max(
            leib_worst,
            pc.w_norm_of_c(lhs.coefficients() - rhs_c, f.pairing, spec),
        )
    cases.append(Case("hardy.leibniz",
                      "derivative of a linear multiple obeys the Leibniz rule",
                      leib_worst, cfg.tol("leibniz", 1e-10)))
    return cases, []


# -- suite: commutation -------------------------------------------------------

def suite_commutation(cfg: RunConfig):
    cases = []
    spec = fc.TruncationSpec(6, 3)
    rng = _rng(cfg, "commutation")

    worst = 0.0
    for _ in range(50):
        a = hw.random_evector(3, rng, 0.8)
        b = hw.random_evector(3, rng, 0.8)
        f = hw.random_polynomial(spec, rng, 4)
        worst = max(worst, hw.commutator_check(f, a, b))
    cases.append(Case("commutation.generators",
                      "derivative and coordinate multiplication commute to the pairing scalar",
                      worst, cfg.tol("commutator", 1e-10)))

    chi_worst = 0.0
    for _ in range(50):
        a = hw.random_evector(3, rng, 0.8)
        b = hw.random_evector(3, rng, 0.8)
        fw = hw.random_polynomial(spec, rng, 4)
        f = hc.f_transform_inverse(fw)
        lhs = hc.f_transform_inverse(
            hw.directional_derivative(hc.f_transform(hc.chi_shift_generator(f, b)), a)
        )
        rhs = hc.chi_shift_generator(
            hc.f_transform_inverse(hw.directional_derivative(hc.f_transform(f), a)), b
        )
        scalar = complex(a.inner(b))
        diff = lhs - rhs - f.scale(scalar)
        chi_worst = max(chi_worst, diff.norm())
    cases.append(Case("commutation.transported",
                      "the commutation relation survives transport to the other model",
                      chi_worst, cfg.tol("commutator", 1e-10)))

    weyl_worst = 0.0
    for _ in range(50):
        a = hw.random_evector(3, rng, 0.5)
        b = hw.random_evector(3, rng, 0.5)
        f = hw.random_polynomial(spec, rng, 4, scale=0.8)
        weyl_worst = max(
            weyl_worst, hw.weyl_group_commutation(f, a, b, margin=cfg.margin)
        )
    cases.append(Case("commutation.group_level",
                      "shift past multiplication produces exactly the exponential factor",
                      weyl_worst, cfg.tol("weyl_group", 1e-10)))
    return cases, []


# -- suite: gw ----------------------------------------------------------------

def suite_gw(cfg: RunConfig):
    cases = []
    spec = fc.TruncationSpec(6, 3)
    rng = _rng(cfg, "gw")

    moment_worst = 0.0
    nodes, weights = sg.hermite_rule(64)
    for r in (0.5, 1.0, 2.0):
        for k in range(1, 7):
            quad = sum(
                w * (2.0 * math.sqrt(r) * xi) ** (2 * k) for xi, w in zip(nodes, weights)
            ) / math.sqrt(math.pi)
            exact = sg.gaussian_moment(r, k)
            moment_worst = max(moment_worst, abs(quad - exact) / exact)
    cases.append(Case("gw.moments",
                      "kernel moments match quadrature to relative precision",
                      moment_worst, cfg.tol("moment", 1e-8)))

    quad_worst = semi_worst = shift_worst = 0.0
    for r in (0.1, 1.0):
        for _ in range(10):
            a = hw.random_evector(3, rng, 0.8)
            f = hw.random_polynomial(spec, rng, 4)
            quad_worst = max(
                quad_worst,
                hw.residual(sg.gw_mult(f, a, r), sg.gw_mult_oracle(f, a, r)),
            )
            shift_worst = max(
                shift_worst,
                hw.residual(sg.gw_shift(f, a, r), sg.gw_shift_quadrature(f, a, r)),
            )
            two = sg.gw_mult(sg.gw_mult(f, a, r), a, 0.4)
            one = sg.gw_mult(f, a, r + 0.4)
            semi_worst = max(semi_worst, hw.residual(two, one))
            two_s = sg.gw_shift(sg.gw_shift(f, a, r), a, 0.4)
            one_s = sg.gw_shift(f, a, r + 0.4)
            semi_worst = max(semi_worst, hw.residual(two_s, one_s))
    cases.append(Case("gw.quadrature_oracle",
                      "quadrature semigroup matches the closed exponential series",
                      quad_worst, cfg.tol("gw", 1e-8)))
    cases.append(Case("gw.shift_routes",
                      "moment expansion and quadrature of the shift semigroup agree",
                      shift_worst, cfg.tol("gw", 1e-8)))
    cases.append(Case("gw.semigroup",
                      "flowing twice equals flowing once for the combined time",
                      semi_worst, cfg.tol("gw", 1e-8)))

    heat = sg.gw_shift(
        hw.HardyWFunction(fc.FockVector.basis(spec, pt.BasisKey.make((2,), (1,)))),
        fc.EVector.basis(1, 3),
        0.25,
    )
    drift = abs(heat.fock.coeffs.get(pt.BasisKey.vacuum(), 0) - 0.5)
    cases.append(Case("gw.heat_spot",
                      "heat flow of a squared coordinate gains twice the time",
                      float(drift), cfg.tol("gw", 1e-12)))

    a = hw.random_evector(3, rng, 0.8)
    f = hw.random_polynomial(spec, rng, 4)
    gen = hw.directional_derivative(f, a, 2)
    slopes = []
    for h in (1e-3, 1e-4, 1e-5):
        flow = sg.gw_shift(f, a, h)
        slope = hw.HardyWFunction.from_coefficients(
            (flow.coefficients() - f.coefficients()) / h, spec, f.pairing
        )
        slopes.append(hw.residual(slope, gen))
    order = math.log(slopes[0] / slopes[1]) / math.log(10)
    cases.append(Case("gw.generator_slope",
                      "the flow derivative at zero time is the squared generator",
                      1.0 - min(order, 1.0), 0.05))

    chi_worst = 0.0
    recover_worst = 0.0
    for _ in range(5):
        a = hw.random_evector(3, rng, 0.8)
        fw = hw.random_polynomial(spec, rng, 4)
        f = hc.f_transform_inverse(fw)
        for which in (sg.GW_SHIFT, sg.GW_MULT):
            two = sg.gw_chi(sg.gw_chi(f, a, 0.3, which), a, 0.5, which)
            one = sg.gw_chi(f, a, 0.8, which)
            chi_worst = max(chi_worst, (two - one).norm())
        tiny = sg.gw_chi(f, a, 1e-8, sg.GW_SHIFT)
        recover_worst = max(recover_worst, (tiny - f).norm())
    cases.append(Case("gw.transported",
                      "both transported semigroups satisfy the flow law",
                      chi_worst, cfg.tol("gw", 1e-8)))
    cases.append(Case("gw.zero_time",
                      "vanishing time recovers the function on the other model",
                      recover_worst, cfg.tol("gw_zero", 1e-6)))
    return cases, []


# -- suite: heisenberg --------------------------------------------------------

def suite_heisenberg(cfg: RunConfig):
    cases = []
    studies = []
    spec = fc.TruncationSpec(6, 3)
    rng = _rng(cfg, "heisenberg")

    units = {"1": hei.QUAT_ONE, "i": hei.QUAT_I, "j": hei.QUAT_J, "k": hei.QUAT_K}
    signs = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
    }
    table_bad = 0
    for (lname, rname), (sign, out) in signs.items():
        got = units[lname] * units[rname]
        want = units[out] if sign == 1 else -units[out]
        if not got.isclose(want, tol=0.0):
            table_bad += 1
    cases.append(Case("heisenberg.quaternion_table",
                      "all sixteen unit products match the structure constants exactly",
                      float(table_bad), 0.0))

    def rquat(scale=0.7, real=False):
        return hei.QuaternionVector(
            hw.random_evector(3, rng, scale, real), hw.random_evector(3, rng, scale, real)
        )

    ip_bad = 0.0
    for _ in range(50):
        p = rquat()
        q = rquat()
        ip_bad = max(ip_bad, abs(hei.eh_inner(p, p).imag_j()))
        pr, qr = rquat(real=True), rquat(real=True)
        ip_bad = max(ip_bad, abs(hei.eh_im(pr, qr) + hei.eh_im(qr, pr)))
    cases.append(Case("heisenberg.inner_product",
                      "the quaternion pairing has vanishing diagonal and antisymmetric j-part",
                      ip_bad, cfg.tol("quat", 1e-12)))

    def relem(scale=0.6):
        return hei.HeisenbergElement(
            hw.random_evector(3, rng, scale),
            hw.random_evector(3, rng, scale),
            complex(rng.standard_normal(), rng.standard_normal()) * 0.3,
        )

    group_bad = 0.0
    iso_bad = 0.0
    for _ in range(50):
        x, y, z = relem(), relem(), relem()
        left = hei.heis_mul(hei.heis_mul(x, y), z)
        right = hei.heis_mul(x, hei.heis_mul(y, z))
        group_bad = max(
            group_bad,
            abs(left.t - right.t),
            max(abs(u - v) for u, v in zip(left.a.coords, right.a.coords)),
        )
        ident = hei.heis_mul(x, hei.heis_inv(x))
        group_bad = max(
            group_bad, abs(ident.t), max(abs(c) for c in ident.a.coords)
        )
        g_prod = hei.g_iso(hei.heis_mul(x, y))
        g_comp = hei.aux_mul(hei.g_iso(x), hei.g_iso(y))
        iso_bad = max(iso_bad, abs(g_prod[0] - g_comp[0]))
    cases.append(Case("heisenberg.group_axioms",
                      "associativity and inverses hold on random triples",
                      group_bad, cfg.tol("group", 1e-12)))
    cases.append(Case("heisenberg.central_extension",
                      "the map into the central extension is a homomorphism",
                      iso_bad, cfg.tol("group", 1e-12)))

    weyl_worst = 0.0
    homo_worst = 0.0
    displayed_worst = 0.0
    complex_weyl = 0.0
    for _ in range(100):
        f = hw.random_polynomial(spec, rng, 3, scale=0.7)
        p, q = rquat(0.4, real=True), rquat(0.4, real=True)
        weyl_worst = max(
            weyl_worst, hei.weyl_relation_residual(p, q, f, margin=cfg.margin)
        )
        x, y = relem(0.5), relem(0.5)
        homo_worst = max(
            homo_worst, hei.ws_homomorphism_residual(x, y, f, margin=cfg.margin)
        )
        displayed_worst = max(
            displayed_worst,
            hei.ws_homomorphism_residual(
                x, y, f, margin=cfg.margin, form=hei.ws_rep_displayed
            ),
        )
        pc_ = rquat(0.5)
        qc_ = rquat(0.5)
        complex_weyl = max(
            complex_weyl, hei.weyl_relation_residual(pc_, qc_, f, margin=cfg.margin)
        )
    cases.append(Case("heisenberg.weyl_relation",
                      "the Weyl commutation relation holds for real parameters",
                      weyl_worst, cfg.tol("weyl", 1e-8)))
    cases.append(Case("heisenberg.representation",
                      "the representation multiplies like the group",
                      homo_worst, cfg.tol("weyl", 1e-8)))
    studies.append({
        "id": "heisenberg.displayed_form",
        "statement": "residual of the dressed operator assignment (recorded, no contract)",
        "residual": displayed_worst,
    })
    studies.append({
        "id": "heisenberg.complex_weyl",
        "statement": "Weyl relation residual for complex parameters (recorded, no contract)",
        "residual": complex_weyl,
    })

    agree_worst = 0.0
    scalar_worst = 0.0
    for _ in range(20):
        x = relem(0.5)
        fw = hw.random_polynomial(spec, rng, 4)
        f = hc.f_transform_inverse(fw)
        agree_worst = max(agree_worst, hei.ws_chi_agreement(x, f, margin=cfg.margin))
        central = hei.HeisenbergElement(
            fc.EVector.zero(3), fc.EVector.zero(3), complex(0.3, -0.2)
        )
        scaled = hei.ws_rep(central, "chi").apply(f)
        scalar_worst = max(
            scalar_worst, (scaled - f.scale(np.exp(complex(0.3, -0.2)))).norm()
        )
    cases.append(Case("heisenberg.model_conjugation",
                      "the transported route matches the stepwise route on the other model",
                      agree_worst, cfg.tol("conjugation", 1e-10)))
    cases.append(Case("heisenberg.central_character",
                      "purely central elements act by the exponential scalar",
                      scalar_worst, cfg.tol("conjugation", 1e-10)))

    probe = hei.orbit_rank_probe(fc.TruncationSpec(3, 2), 24, cfg.seed)
    studies.append({
        "id": "heisenberg.orbit_rank",
        "statement": "finite-rank shadow of irreducibility (heuristic, no contract)",
        **probe,
    })
    return cases, studies


# -- suite: haar --------------------------------------------------------------

def suite_haar(cfg: RunConfig):
    cases = []
    studies = []
    worst_z = 0.0
    for m in range(1, 7):
        report = uh.haar_moment_report(m, cfg.samples, cfg.seed + m, cfg.workers)
        for moment in report["moments"]:
            worst_z = max(worst_z, abs(moment["z"]))
    cases.append(Case("haar.moments",
                      "entry and trace moments match the exact values within 4 sigma",
                      worst_z, 4.0))

    inv_z = 0.0
    for m in (2, 3):
        report = uh.invariance_report(m, cfg.samples, cfg.seed + 10 + m, cfg.workers)
        for side in report["sides"].values():
            for moment in side:
                inv_z = max(inv_z, abs(moment["z"]))
    cases.append(Case("haar.invariance",
                      "left and right translates keep the tracked moments within 4 sigma",
                      inv_z, 4.0))

    rng = _rng(cfg, "haar.livsic")
    defect = 0.0
    branch_total = 0
    for m in (1, 2, 3):
        batch = uh.haar_batch(m + 1, 10000, rng)
        projected, branches = uh.livsic_project_batch(batch)
        defect = max(defect, uh.unitarity_defect(projected))
        branch_total += branches
    cases.append(Case("haar.livsic_unitarity",
                      "projected matrices stay unitary",
                      defect, cfg.tol("unitarity", 1e-10)))
    studies.append({
        "id": "haar.livsic_branches",
        "statement": "near-singular branch events over thirty thousand projections",
        "count": branch_total,
    })

    push_z = 0.0
    for m in (1, 2, 3):
        report = uh.pushforward_consistency(m, cfg.samples, cfg.seed + 20 + m, cfg.workers)
        for moment in report["moments"]:
            push_z = max(push_z, abs(moment["z"]))
    cases.append(Case("haar.pushforward",
                      "projected moments match direct sampling at the lower size within 4 sigma",
                      push_z, 4.0))

    rng0 = _rng(cfg, "haar.chain")
    chain_bad = 0.0
    for _ in range(20):
        v = uh.embed_stabilized(uh.haar_sample(4, rng0), 6)
        for k in (1, 2, 3):
            direct = uh.livsic_project(v.level(k + 1))
            chain_bad = max(chain_bad, float(np.abs(v.level(k) - direct).max()))
    cases.append(Case("haar.chain_consistency",
                      "stabilised sequences satisfy the projection compatibility",
                      chain_bad, cfg.tol("chain", 1e-10)))

    rng1 = _rng(cfg, "haar.action")
    act_bad = 0.0
    for _ in range(10):
        g = uh.haar_sample(3, rng1)
        emb = uh.embed_stabilized(g, 5)
        acted = uh.right_action(emb, g, g, 3)
        act_bad = max(act_bad, float(np.abs(acted.level(3) - g).max()))
    cases.append(Case("haar.action_spot",
                      "acting with the embedding pair reproduces the matrix",
                      act_bad, cfg.tol("chain", 1e-10)))

    cases.append(_reproducibility_case(cfg))
    return cases, studies


def _reproducibility_case(cfg: RunConfig) -> Case:
    """Means, standard errors and diagnostics at one worker against two or more."""
    (one, one_diag), (many, many_diag) = (
        uh.sample_moments(3, 40000, cfg.seed, workers=w) for w in (1, max(cfg.workers, 2))
    )
    gaps = [abs(getattr(one[name], attr) - getattr(many[name], attr))
            for name in uh.MOMENT_NAMES for attr in ("mean", "stderr")]
    gaps += [abs(one_diag[key] - many_diag[key]) for key in one_diag]
    return Case("haar.reproducibility",
                "estimates are bitwise identical for any worker count", float(max(gaps)), 0.0)


# -- suite: ftransform --------------------------------------------------------

def suite_ftransform(cfg: RunConfig):
    cases = []
    studies = []
    spec = FTRANSFORM_SPEC
    rng = _rng(cfg, "ftransform")

    iso_worst = 0.0
    for _ in range(100):
        fw = hw.random_polynomial(spec, rng, spec.max_degree)
        f = hc.f_transform_inverse(fw)
        iso_worst = max(iso_worst, abs(hc.f_transform(f).norm() - f.norm()))
        psi = fw.fock
        round_trip = hc.phi_map_adjoint(hc.phi_map(psi))
        iso_worst = max(iso_worst, (round_trip - psi).norm(fc.GRAM_W))
    cases.append(Case("ftransform.isometry",
                      "the transform preserves norms and the basis change squares to one",
                      iso_worst, cfg.tol("isometry", 1e-12)))

    mult_worst = 0.0
    shift_worst = 0.0
    variant = cfg.variant
    pairing = cfg.readout()
    for _ in range(50):
        a = hw.random_evector(spec.dim, rng, 0.8)
        fw = hw.random_polynomial(spec, rng, spec.max_degree)
        f = hc.f_transform_inverse(fw)
        lhs = hw.shift(hc.f_transform(f, pairing), a)
        rhs = hc.f_transform(hc.mult_group_chi(f, a, variant), pairing)
        mult_worst = max(mult_worst, hw.residual(lhs, rhs))
        fw3 = hw.random_polynomial(spec, rng, spec.max_degree - 3)
        f3 = hc.f_transform_inverse(fw3)
        lhs2 = hw.multiply_exp(hc.f_transform(f3, pc.TAYLOR), a)
        rhs2 = hc.f_transform(hc.shift_group_chi(f3, a), pc.TAYLOR)
        shift_worst = max(shift_worst, hw.residual(lhs2, rhs2))
    cases.append(Case("ftransform.intertwine_mult",
                      f"multiplicative group transports to the shift (variant {variant}, "
                      f"readout {pairing})",
                      mult_worst, cfg.tol("intertwine", 1e-10)))
    cases.append(Case("ftransform.intertwine_shift",
                      "shift group transports to exp multiplication (Taylor readout)",
                      shift_worst, cfg.tol("intertwine", 1e-10)))

    gen_worst = 0.0
    for _ in range(20):
        a = hw.random_evector(spec.dim, rng, 0.8)
        fw = hw.random_polynomial(spec, rng, spec.max_degree - 1)
        f = hc.f_transform_inverse(fw)
        via_sandwich = hc.chi_mult_generator(f, a, variant)
        via_transform = hc.f_transform_inverse(
            hw.directional_derivative(hc.f_transform(f, pairing), a).with_pairing(
                pc.TAYLOR
            )
        )
        gen_worst = max(gen_worst, (via_sandwich - via_transform).norm())
    cases.append(Case("ftransform.generator_route",
                      "the conjugated annihilation generator equals the transported derivative",
                      gen_worst, cfg.tol("intertwine", 1e-10)))

    # Monte Carlo closed forms at level one
    x = fc.EVector(tuple([0.6 - 0.35j] + [0.0] * (spec.dim - 1)))
    mc_z = 0.0
    mc_samples = min(cfg.samples, 100000)
    for k in range(3):
        key = pt.BasisKey.vacuum() if k == 0 else pt.BasisKey.make((k,), (1,))
        f = hc.HardyChiFunction.basis(spec, key)
        est = hc.mc_f_transform(f, x, 1, mc_samples, cfg.seed + 40 + k, workers=cfg.workers)
        mc_z = max(mc_z, est.z_against(hc.closed_form_level_one(key, x)))
        if k:
            taylor = est.taylor_terms[k]
            mc_z = max(mc_z, taylor.z_against(x.coords[0] ** k))
    cases.append(Case("ftransform.mc_closed_forms",
                      "level-one estimates reproduce the phase-integral closed forms within 4 sigma",
                      mc_z, 4.0))

    halving = []
    prev = None
    base = max(cfg.samples // 16, 2000)
    f1 = hc.HardyChiFunction.constant(spec)
    for step in range(4):
        count = base * (2**step)
        est = hc.mc_f_transform(f1, x, 1, count, cfg.seed + 50, workers=cfg.workers)
        if prev is not None:
            halving.append(est.stderr / prev)
        prev = est.stderr
    halving_worst = max(abs(r - 1 / math.sqrt(2)) for r in halving)
    cases.append(Case("ftransform.stderr_halving",
                      "standard errors shrink by the square-root law across doublings",
                      halving_worst, 0.1 / math.sqrt(2)))

    ortho = hc.mc_pair_integral(
        pt.BasisKey.make((2,), (1,)),
        pt.BasisKey.make((1, 1), (1, 2)),
        2,
        mc_samples,
        cfg.seed + 60,
        workers=cfg.workers,
    )
    cases.append(Case("ftransform.mc_orthogonality",
                      "distinct equal-degree basis functions are orthogonal within 4 sigma",
                      ortho.z_against(0), 4.0))

    for key in (pt.BasisKey.make((1,), (1,)), pt.BasisKey.make((2,), (1,))):
        rows = hc.norm_convergence_study(
            key, cfg.levels, min(cfg.samples, 50000), cfg.seed + 70, workers=cfg.workers
        )
        studies.append({
            "id": f"ftransform.norm_study.{key.label()}",
            "statement": "finite-level squared norms against the limiting weight "
                         "(report only; the finite-level values decay with the level)",
            "rows": rows,
        })
    return cases, studies


SUITE_RUNNERS = {
    "weights": suite_weights,
    "fock": suite_fock,
    "operators": suite_operators,
    "hardy": suite_hardy,
    "commutation": suite_commutation,
    "gw": suite_gw,
    "heisenberg": suite_heisenberg,
    "haar": suite_haar,
    "ftransform": suite_ftransform,
}


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Execute one named suite and assemble its report payload."""
    cases, studies = SUITE_RUNNERS[name](cfg)
    return {
        "suite": name,
        "config": cfg.report_fields(),
        "config_hash": cfg.digest(),
        "resolved": {"pairing": cfg.readout(), "variant": cfg.variant},
        "cases": [case.as_dict() for case in cases],
        "studies": studies,
        "passed": all(case.status != "fail" for case in cases),
    }


def write_json(payload: dict, out) -> None:
    """Indented, key-sorted JSON to the path ``out``, or to stdout when it is empty."""
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=1)
    if out:
        Path(out).write_text(text)
    else:
        print(text)


def write_csv(header: list, rows, out) -> None:
    """CSV rows under ``header`` to the path ``out``, or to stdout when it is empty."""
    with open(out, "w", newline="") if out else nullcontext(sys.stdout) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_report(report: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report['suite']}.json"
    write_json(report, path)
    return path


NORM_STUDY_COLUMNS = ["level", "empirical", "stderr", "limit_value", "samples"]


def _norm_study_row(row: dict) -> list:
    return [row["level"], repr(row["empirical"]), repr(row["stderr"]),
            repr(row["limit_value"]), row["samples"]]


def write_norm_study_csv(report: dict, out_dir: Path) -> None:
    """One convergence CSV per studied key, one row per sampling level."""
    for index, study in enumerate(report.get("studies", [])):
        if "rows" not in study:
            continue
        key = study["id"].split(".")[-1]
        write_csv(
            ["key", *NORM_STUDY_COLUMNS],
            ([key, *_norm_study_row(row)] for row in study["rows"]),
            out_dir / f"norm_study_{index}.csv",
        )


def write_summary_csv(reports: list[dict], out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "summary.csv"
    write_csv(
        ["suite", "case", "status", "residual", "tolerance"],
        ([report["suite"], case["id"], case["status"],
          repr(float(case["residual"])), repr(case["tolerance"])]
         for report in reports for case in report["cases"]),
        path,
    )
    return path


# -- other subcommands ---------------------------------------------------------

def cmd_dump_weights(args) -> int:
    rows = []
    for diagram in pt.all_diagrams(args.max_weight):
        rows.append([
            "(" + ",".join(str(p) for p in diagram.parts) + ")",
            str(pt.constant_c(diagram)), repr(float(pt.constant_c(diagram))),
            str(pt.h_norm_sq(diagram)), repr(float(pt.h_norm_sq(diagram))),
            str(pt.w_norm_sq(diagram)), repr(float(pt.w_norm_sq(diagram))),
        ])
    write_csv([
        "diagram", "constant", "constant_float",
        "plain_norm_sq", "plain_norm_sq_float",
        "weighted_norm_sq", "weighted_norm_sq_float",
    ], rows, args.out)
    return 0


def function_to_payload(f: hw.HardyWFunction) -> dict:
    return {"pairing": f.pairing, "fock": json.loads(fc.to_json(f.fock))}


class InputError(ValueError):
    """A malformed input file or argument; ``main`` reports it as one error line."""


def _parse_input(source: str, parse, *args):
    """``parse(*args)``, with a ``ValueError`` or an ``OSError`` (an unreadable
    file) turned into an ``InputError`` naming ``source``."""
    try:
        return parse(*args)
    except (ValueError, OSError) as exc:
        raise InputError(f"{source}: {exc}") from exc


def _read_payload(path: str, parse, *args):
    """``parse`` applied to the JSON document in ``path``, as an input."""
    return _parse_input(path, lambda: parse(json.loads(Path(path).read_text()), *args))


def _fock_field(payload, what: str) -> str:
    """The ``fock`` vector of a function payload, as JSON text for ``from_json``."""
    if not isinstance(payload, dict) or "fock" not in payload:
        raise ValueError(f"{what} payload must be a JSON object with a 'fock' field")
    return json.dumps(payload["fock"])


def function_from_payload(payload: dict) -> hw.HardyWFunction:
    fock = fc.from_json(_fock_field(payload, "function"))
    return hw.HardyWFunction(fock, payload.get("pairing", pc.TAYLOR))


def chi_to_payload(f: hc.HardyChiFunction) -> dict:
    return {"kind": "chi", "fock": json.loads(f.to_json())}


def chi_from_payload(payload: dict) -> hc.HardyChiFunction:
    return hc.HardyChiFunction.from_json(_fock_field(payload, "chi function"))


def _parse_points(payload: dict, dim: int) -> list[fc.EVector]:
    if not isinstance(payload, dict) or "points" not in payload:
        raise ValueError("points payload must be a JSON object with a 'points' field")
    points = []
    for row in payload["points"]:
        coords = [complex(re, im) for re, im in row]
        if len(coords) != dim:
            raise ValueError("point dimension mismatch")
        points.append(fc.EVector(tuple(coords)))
    return points


def cmd_eval(args) -> int:
    f = _read_payload(args.function, function_from_payload)
    points = _read_payload(args.points, _parse_points, f.spec.dim)
    values = [hw.evaluate(f, x) for x in points]
    payload = {
        "pairing": f.pairing,
        "values": [[v.real, v.imag] for v in values],
    }
    write_json(payload, args.out)
    return 0


def _require_positive(counts: dict) -> None:
    """Reject a count below 1 as an input fault naming its source."""
    for source, value in counts.items():
        if value < 1:
            raise InputError(f"{source}: must be >= 1, got {value}")


def cmd_haar_test(args) -> int:
    _require_positive({"--m": args.m, "--samples": args.samples, "--workers": args.workers})
    report = uh.haar_moment_report(args.m, args.samples, args.seed, args.workers)
    report["pushforward"] = uh.pushforward_consistency(
        args.m, args.samples, args.seed, args.workers
    )
    write_json(report, args.out)
    moments = report["moments"] + report["pushforward"]["moments"]
    return 0 if all(abs(m["z"]) <= 4 for m in moments) else 1


def cmd_ftransform(args) -> int:
    """Monte Carlo transform per level against that level's exact value.

    ``point_value_exact`` is the w-readout value of the transform; a key of
    diagram length l takes it at level l.  Exits 1 when some |z| exceeds 4.
    """
    f = _read_payload(args.function, chi_from_payload)
    points = _read_payload(args.points, _parse_points, f.spec.dim)
    levels = _parse_input("--levels", _parse_levels, args.levels)
    _require_positive({"--samples": args.samples, "--workers": args.workers})
    if args.norm_study:
        key = _parse_input("--norm-study-key", pt.BasisKey.from_label, args.norm_study_key)
        if key.max_index() > min(levels):
            raise InputError(f"--norm-study-key: {key.label()} needs level >= {key.max_index()}")
    records = []
    worst = 0.0
    for x in points:
        needed = max(
            f.max_index(),
            max((i + 1 for i, c in enumerate(x.coords) if c != 0), default=1),
        )
        value = hw.evaluate(hc.f_transform(f, fc.GRAM_W), x)
        row = {"point_value_exact": [value.real, value.imag], "levels": []}
        for m in levels:
            if m < needed:
                row["levels"].append({"level": m, "skipped": "level below used indices"})
                continue
            est = hc.mc_f_transform(f, x, m, args.samples, args.seed, workers=args.workers)
            exact = hc.level_transform_exact(f, x, m)
            entry = est.as_dict()
            entry["exact_level_value"] = [exact.real, exact.imag]
            entry["z_vs_exact"] = est.z_against(exact)
            worst = max(worst, abs(entry["z_vs_exact"]))
            row["levels"].append(entry)
        records.append(row)
    payload = {"samples": args.samples, "seed": args.seed, "records": records}
    write_json(payload, args.out)
    if args.norm_study:
        rows = hc.norm_convergence_study(
            key, levels, args.samples, args.seed, workers=args.workers
        )
        write_csv(NORM_STUDY_COLUMNS, map(_norm_study_row, rows), args.norm_study)
    return 0 if worst <= 4 else 1


def _parse_direction(text: str, dim: int) -> fc.EVector:
    parts = [complex(chunk) for chunk in text.split(",")]
    if len(parts) != dim:
        raise ValueError("direction dimension mismatch")
    return fc.EVector(tuple(parts))


def _parse_r_schedule(text: str) -> list[float]:
    schedule = [float(v) for v in text.split(",")]
    if not all(0 < r < math.inf for r in schedule):
        raise ValueError(f"times must be positive and finite, got {text!r}")
    return schedule


def cmd_gw(args) -> int:
    _require_positive({"--nodes": args.nodes})
    f = _read_payload(args.function, function_from_payload)
    a = _parse_input("--direction", _parse_direction, args.direction, f.spec.dim)
    schedule = _parse_input("--r-schedule", _parse_r_schedule, args.r_schedule)
    rows = []
    for r in schedule:
        quad = sg.gw_mult(f, a, r, args.nodes)
        oracle = sg.gw_mult_oracle(f, a, r)
        shift_exact = sg.gw_shift(f, a, r)
        shift_quad = sg.gw_shift_quadrature(f, a, r, args.nodes)
        rows.append({
            "r": r,
            "mult_quadrature_vs_oracle": hw.residual(quad, oracle),
            "shift_expansion_vs_quadrature": hw.residual(shift_exact, shift_quad),
        })
    payload = {"nodes": args.nodes, "rows": rows}
    write_json(payload, args.out)
    return 0


def cmd_heisenberg(args) -> int:
    cfg = replace(_parse_input(str(args.config), load_config, args.config), seed=args.seed)
    report = run_suite("heisenberg", cfg)
    write_json(report, args.out)
    return 0 if report["passed"] else 1


def cmd_run(args) -> int:
    cfg = _parse_input(str(args.config), load_config, args.config)
    overrides = {
        name: getattr(args, name)
        for name in ("seed", "samples", "variant", "workers", "out")
        if getattr(args, name) is not None
    }
    if args.levels is not None:
        overrides["levels"] = _parse_input("--levels", _parse_levels, args.levels)
    if args.tol:
        tols = dict(cfg.tolerances)
        tols.update(_parse_input("--tol", _parse_tol, item) for item in args.tol)
        overrides["tolerances"] = tuple(sorted(tols.items()))
    cfg = replace(cfg, **overrides)
    _require_positive({"samples": cfg.samples, "workers": cfg.workers})

    names = list(SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    out_dir = Path(cfg.out)
    reports = []
    failed = []
    for name in names:
        report = run_suite(name, cfg)
        reports.append(report)
        path = write_report(report, out_dir)
        if name == "ftransform":
            write_norm_study_csv(report, out_dir)
        for case in report["cases"]:
            if case["status"] == "fail":
                failed.append(f"{name}:{case['id']}")
        print(f"{name}: {'ok' if report['passed'] else 'FAIL'} ({path})")
    write_summary_csv(reports, out_dir)
    if failed:
        print("failing cases: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab", description="verification suites for the truncated Fock/Hardy laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dump-weights", help="emit the combinatorial weight table as CSV")
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump_weights)

    p = sub.add_parser("eval", help="evaluate a serialized function on points")
    p.add_argument("--function", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("haar-test", help="moment checks of the Haar sampler")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_haar_test)

    p = sub.add_parser("ftransform", help="exact vs Monte Carlo transform comparison")
    p.add_argument("--function", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--levels", default="1,2,4,8")
    p.add_argument("--samples", type=int, default=50000)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--norm-study", help="CSV path for the norm convergence table")
    p.add_argument("--norm-study-key", default="λ=[1];ι=[1]")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ftransform)

    p = sub.add_parser("gw", help="semigroup comparison table")
    p.add_argument("--function", required=True)
    p.add_argument("--direction", required=True, help="comma-separated complex coordinates")
    p.add_argument("--r-schedule", default="0.1,1.0")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("heisenberg", help="run the Heisenberg/Weyl suite")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--out")
    p.set_defaults(func=cmd_heisenberg)

    p = sub.add_parser("run", help="run verification suites")
    p.add_argument("suite", choices=list(SUITE_RUNNERS) + ["all"])
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--levels")
    p.add_argument("--variant", choices=ops.VARIANTS)
    p.add_argument("--workers", type=int)
    p.add_argument("--tol", action="append", help="name=value tolerance override")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"focklab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
