"""Verification suites: the contracted cases, the run configuration, the runner.

``CASES`` declares every contracted case once, in report order: its
statement, the tolerance name that ``--tol`` and ``tol.<name>`` override (or
``None`` for a fixed tolerance), and the default.  A suite returns the
residual of each of its cases by id, plus study rows; ``run_suite`` alone
turns them into ``Case`` records.

Every suite draws its randomness from the configured seed and reduces Monte
Carlo partial sums in a fixed order, so identical configurations give
identical residuals for any worker count.  A run passes when every
contracted case does; study rows (finite-level norm tables, recorded
residuals without a pass contract) never affect it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

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

# case id -> (statement, tolerance name or None, default tolerance), in report
# order; a statement may name the run's {variant} and {readout}
CASES = {
    "weights.oracle": ("exact weights match the independent factorial oracle", None, 0.0),
    "weights.spot": ("constant of the (2,1) diagram equals 1/4", None, 0.0),
    "weights.bounds": (
        "constants lie in (0,1] with equality exactly on rows", None, 0.0),
    "fock.counts": (
        "canonical key counts match brute-force multiset enumeration", None, 0.0),
    "fock.polarization.exact": (
        "rational polarization reproduces every basis key exactly", None, 0.0),
    "fock.polarization.float": (
        "floating polarization reproduces keys within tolerance", "polarization", 1e-10),
    "fock.contractivity": (
        "weighted norm never exceeds the plain norm", "contractivity", 1e-12),
    "fock.coherent_bound": (
        "squared weighted norm of coherent vectors below exp of squared norm", None, 0.0),
    "fock.product_power": (
        "product of first powers reproduces the second tensor power", "product", 1e-12),
    "fock.hs_pairing": (
        "plain pairing of tensor powers returns the key monomial", "hs", 1e-10),
    "fock.serialization": (
        "rational vectors survive a JSON round trip bit exactly", None, 0.0),
    "operators.monomial_adjoint": (
        "plain-Gram adjoint of creation acts on monomials by the closed form",
        "annihilation", 1e-10),
    "operators.adjoint_witness": (
        "pinned witness: plain adjoint gives 1/2, weighted adjoint 1/6", "witness", 1e-12),
    "operators.derivative_route": (
        "creation matches the central finite difference of shifted powers",
        "finite_difference", 1e-7),
    "operators.group_additivity": (
        "creation and annihilation exponentials compose additively", "group", 1e-10),
    "operators.creation_power": (
        "creation(a, m) equals the m-th power of creation(a, 1) for m <= 4", "group", 1e-10),
    "operators.coherent_shift": (
        "creation exponential shifts coherent vectors exactly", "coherent", 1e-10),
    "operators.coherent_growth": (
        "shifted coherent vectors stay below the coherent norm bound", None, 0.0),
    "operators.power_bound": (
        "creation powers of coherent vectors obey the per-power bound", "growth", 1e-10),
    "operators.assembly_determinism": ("repeated assembly yields identical blocks", None, 0.0),
    "hardy.shift_pointwise.w": (
        "shift agrees with substitution under the w readout", "pointwise", 1e-10),
    "hardy.shift_pointwise.h": (
        "shift agrees with substitution under the h readout", "pointwise", 1e-10),
    "hardy.shift_pointwise.taylor": (
        "shift agrees with substitution under the taylor readout", "pointwise", 1e-10),
    "hardy.kernel_route": (
        "direct evaluation matches the coherent-kernel pairing route", "kernel", 1e-10),
    "hardy.mult_pointwise": (
        "exp multiplication matches pointwise products inside the headroom",
        "pointwise", 1e-10),
    "hardy.group_laws": (
        "shift and multiplication families are one-parameter groups", "group", 1e-10),
    "hardy.shift_adjoint_route": (
        "shift equals the Gram-adjoint transport of the creation exponential", "route", 1e-10),
    "hardy.mult_creation_route": (
        "multiplication equals the creation exponential on the Taylor readout", "route", 1e-10),
    "hardy.evaluation_bound": (
        "point evaluations obey the Cauchy-Schwarz kernel bound", None, 0.0),
    "hardy.generator_slope": (
        "finite differences of the shift converge to the derivative at order >= 1", None, 0.05),
    "hardy.leibniz": (
        "derivative of a linear multiple obeys the Leibniz rule", "leibniz", 1e-10),
    "commutation.generators": (
        "derivative and coordinate multiplication commute to the pairing scalar",
        "commutator", 1e-10),
    "commutation.transported": (
        "the commutation relation survives transport to the other model", "commutator", 1e-10),
    "commutation.group_level": (
        "shift past multiplication produces exactly the exponential factor",
        "weyl_group", 1e-10),
    "gw.moments": ("kernel moments match quadrature to relative precision", "moment", 1e-8),
    "gw.quadrature_oracle": (
        "quadrature semigroup matches the closed exponential series", "gw", 1e-8),
    "gw.shift_routes": (
        "moment expansion and quadrature of the shift semigroup agree", "gw", 1e-8),
    "gw.semigroup": ("flowing twice equals flowing once for the combined time", "gw", 1e-8),
    "gw.heat_spot": ("heat flow of a squared coordinate gains twice the time", "gw", 1e-12),
    "gw.generator_slope": (
        "the flow derivative at zero time is the squared generator", None, 0.05),
    "gw.transported": ("both transported semigroups satisfy the flow law", "gw", 1e-8),
    "gw.zero_time": (
        "vanishing time recovers the function on the other model", "gw_zero", 1e-6),
    "heisenberg.quaternion_table": (
        "all sixteen unit products match the structure constants exactly", None, 0.0),
    "heisenberg.inner_product": (
        "the quaternion pairing has vanishing diagonal and antisymmetric j-part",
        "quat", 1e-12),
    "heisenberg.group_axioms": (
        "associativity and inverses hold on random triples", "group", 1e-12),
    "heisenberg.central_extension": (
        "the map into the central extension is a homomorphism", "group", 1e-12),
    "heisenberg.weyl_relation": (
        "the Weyl commutation relation holds for real parameters", "weyl", 1e-8),
    "heisenberg.representation": (
        "the representation multiplies like the group", "weyl", 1e-8),
    "heisenberg.model_conjugation": (
        "the transported route matches the stepwise route on the other model",
        "conjugation", 1e-10),
    "heisenberg.central_character": (
        "purely central elements act by the exponential scalar", "conjugation", 1e-10),
    "haar.moments": (
        "entry and trace moments match the exact values within 4 sigma", None, 4.0),
    "haar.invariance": (
        "left and right translates keep the tracked moments within 4 sigma", None, 4.0),
    "haar.livsic_unitarity": ("projected matrices stay unitary", "unitarity", 1e-10),
    "haar.pushforward": (
        "projected moments match direct sampling at the lower size within 4 sigma", None, 4.0),
    "haar.chain_consistency": (
        "stabilised sequences satisfy the projection compatibility", "chain", 1e-10),
    "haar.action_spot": (
        "acting with the embedding pair reproduces the matrix", "chain", 1e-10),
    "haar.reproducibility": (
        "estimates are bitwise identical for any worker count", None, 0.0),
    "ftransform.isometry": (
        "the transform preserves norms and the basis change squares to one",
        "isometry", 1e-12),
    "ftransform.intertwine_mult": (
        "multiplicative group transports to the shift (variant {variant}, readout {readout})",
        "intertwine", 1e-10),
    "ftransform.intertwine_shift": (
        "shift group transports to exp multiplication (Taylor readout)", "intertwine", 1e-10),
    "ftransform.generator_route": (
        "the conjugated annihilation generator equals the transported derivative",
        "intertwine", 1e-10),
    "ftransform.mc_closed_forms": (
        "level-one estimates reproduce the phase-integral closed forms within 4 sigma",
        None, 4.0),
    "ftransform.stderr_halving": (
        "standard errors shrink by the square-root law across doublings",
        None, 0.1 / math.sqrt(2)),
    "ftransform.mc_orthogonality": (
        "distinct equal-degree basis functions are orthogonal within 4 sigma", None, 4.0),
}

# the names ``--tol`` and ``tol.<name>`` accept
TOLERANCE_NAMES = frozenset(name for _, name, _ in CASES.values() if name is not None)


def _tolerance_name(name: str) -> str:
    if name not in TOLERANCE_NAMES:
        raise ValueError(f"unknown tolerance {name!r}")
    return name


def check_levels(levels: tuple[int, ...]) -> tuple[int, ...]:
    """The sampling levels of a run: at least one, each >= 1."""
    if not levels or min(levels) < 1:
        raise ValueError(f"levels must be one or more integers >= 1, got {levels}")
    return levels


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

    def __post_init__(self):
        for name, least in (("seed", 0), ("samples", 1), ("margin", 0), ("workers", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        check_levels(self.levels)
        if self.variant not in ops.VARIANTS:
            raise ValueError(f"variant must be one of {ops.VARIANTS}, got {self.variant!r}")
        # one spelling per set of overrides: sorted, the last of a name wins
        tolerances = tuple(sorted(dict(self.tolerances).items()))
        for name, value in tolerances:
            _tolerance_name(name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"tolerance {name!r} must be finite and >= 0, got {value}")
        object.__setattr__(self, "tolerances", tolerances)

    def tol(self, name: str, default: float) -> float:
        return dict(self.tolerances).get(_tolerance_name(name), default)

    def readout(self) -> str:
        return ops.readout(self.variant)

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


@dataclass
class Case:
    id: str
    statement: str
    residual: float
    tolerance: float

    @property
    def status(self) -> str:
        return "pass" if self.residual <= self.tolerance else "fail"

    def as_dict(self) -> dict:
        return {**asdict(self), "status": self.status}


def _rng(cfg: RunConfig, tag: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(hash_tag(tag),))
    )


def hash_tag(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")


def _worst(residuals: dict, case_id: str, *values) -> None:
    """Fold ``values`` into the worst residual of ``case_id`` so far (0.0 at first)."""
    residuals[case_id] = max(residuals.get(case_id, 0.0), *values)


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
    res = {}
    bad = 0
    for diagram in pt.all_diagrams(6):
        parts = diagram.parts
        if pt.constant_c(diagram) != _oracle_constant(parts):
            bad += 1
        if pt.h_norm_sq(diagram) != _oracle_h(parts):
            bad += 1
        if pt.w_norm_sq(diagram) != _oracle_constant(parts) * _oracle_h(parts):
            bad += 1
    res["weights.oracle"] = float(bad)
    res["weights.spot"] = abs(float(pt.constant_c(pt.YoungDiagram((2, 1)))) - 0.25)
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
    res["weights.bounds"] = float(bound)
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
    return res, studies


# -- suite: fock --------------------------------------------------------------

def _brute_multiset_count(n: int, d: int) -> int:
    from itertools import combinations_with_replacement

    return sum(1 for _ in combinations_with_replacement(range(d), n))


def suite_fock(cfg: RunConfig):
    res = {}
    mismatch = 0
    for d in range(1, 6):
        for n in range(7):
            count = len(pt.degree_keys(n, d))
            if count != math.comb(n + d - 1, n) or count != _brute_multiset_count(n, d):
                mismatch += 1
    res["fock.counts"] = float(mismatch)

    spec = fc.TruncationSpec(4, 3)
    exact_bad = 0
    for key in spec.keys():
        rebuilt = fc.polarization(key.diagram, key.tuple.indices, spec, exact=True)
        expect = fc.FockVector.basis(spec, key, Fraction(1))
        if rebuilt != expect:
            exact_bad += 1
        approx = fc.polarization(key.diagram, key.tuple.indices, spec, exact=False)
        diff = approx - fc.FockVector.basis(spec, key, 1.0)
        _worst(res, "fock.polarization.float", diff.max_abs_coeff())
    res["fock.polarization.exact"] = float(exact_bad)

    rng = _rng(cfg, "fock")
    spec10 = fc.TruncationSpec(10, 3)
    for _ in range(200):
        x = hw.random_evector(3, rng, scale=2.0 / math.sqrt(6))
        ev = fc.exponential_vector(x, spec10)
        w2 = float(ev.norm_sq(fc.GRAM_W).real)
        h2 = float(ev.norm_sq(fc.GRAM_H).real)
        _worst(res, "fock.contractivity", w2 - h2)
        _worst(res, "fock.coherent_bound", w2 - math.exp(x.norm_sq()) * (1 + 1e-12))

    spec6 = fc.TruncationSpec(6, 3)
    for _ in range(20):
        x = hw.random_evector(3, rng)
        lhs = fc.symmetric_product(
            fc.tensor_power(x, 1, spec6), fc.tensor_power(x, 1, spec6)
        )
        rhs = fc.tensor_power(x, 2, spec6)
        _worst(res, "fock.product_power", (lhs - rhs).max_abs_coeff())

    for _ in range(20):
        x = hw.random_evector(3, rng)
        n = int(rng.integers(1, 5))
        tp = fc.tensor_power(x, n, spec6)
        for key in pt.degree_keys(n, 3):
            basis = fc.FockVector.basis(spec6, key, 1.0)
            via_inner = fc.inner(fc.GRAM_H, tp, basis)
            mono = fc.hs_polynomial_eval(basis, x)
            _worst(res, "fock.hs_pairing", abs(via_inner - mono))

    v = fc.polarization(pt.YoungDiagram((2, 1)), (1, 2), spec, exact=True)
    res["fock.serialization"] = 0.0 if fc.from_json(fc.to_json(v)).coeffs == v.coeffs else 1.0
    return res, []


# -- suite: operators ---------------------------------------------------------

def suite_operators(cfg: RunConfig):
    res = {}
    spec = fc.TruncationSpec(6, 3)
    rng = _rng(cfg, "operators")

    for _ in range(100):
        a = hw.random_evector(3, rng)
        x = hw.random_evector(3, rng)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        via_adj = ops.adjoint(fc.GRAM_H, ops.creation(a, m, spec)).apply(
            fc.tensor_power(x, n, spec)
        )
        direct = ops.annihilation_monomial(a, m, x, n, spec)
        _worst(res, "operators.monomial_adjoint", (via_adj - direct).norm(fc.GRAM_W))

    e1 = fc.EVector.basis(1, 3)
    k11 = pt.BasisKey.make((1, 1), (1, 2))
    target = fc.FockVector.basis(spec, k11)
    h_val = ops.adjoint(fc.GRAM_H, ops.creation(e1, 1, spec)).apply(target)
    w_val = ops.adjoint(fc.GRAM_W, ops.creation(e1, 1, spec)).apply(target)
    k2 = pt.BasisKey.make((1,), (2,))
    witness = abs(h_val.coeffs.get(k2, 0) - 0.5) + abs(w_val.coeffs.get(k2, 0) - 1.0 / 6)
    res["operators.adjoint_witness"] = float(witness)

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
        _worst(res, "operators.derivative_route", (created - fd).norm(fc.GRAM_W))

    for _ in range(20):
        a = hw.random_evector(3, rng, 0.7)
        b = hw.random_evector(3, rng, 0.7)
        combined = ops.exp_creation(a + b, spec)
        composed = ops.exp_creation(a, spec).compose(ops.exp_creation(b, spec))
        swapped = ops.exp_creation(b, spec).compose(ops.exp_creation(a, spec))
        _worst(res, "operators.group_additivity",
               combined.max_block_difference(composed),
               combined.max_block_difference(swapped))
        for variant in ops.VARIANTS:
            comb = ops.exp_annihilation(a + b, spec, variant)
            comp = ops.exp_annihilation(a, spec, variant).compose(
                ops.exp_annihilation(b, spec, variant)
            )
            _worst(res, "operators.group_additivity", comb.max_block_difference(comp))

    # own stream, so the draws of the other cases stay as they were
    power_rng = _rng(cfg, "operators.creation_power")
    for _ in range(20):
        a = hw.random_evector(3, power_rng)
        first = ops.creation(a, 1, spec)
        iterated = first
        for m in range(2, 5):
            iterated = first.compose(iterated)
            _worst(res, "operators.creation_power",
                   ops.creation(a, m, spec).max_block_difference(iterated))

    for _ in range(20):
        a = hw.random_evector(3, rng, 0.8)
        x = hw.random_evector(3, rng, 0.8)
        ev = fc.exponential_vector(x, spec)
        lhs = ops.exp_creation(a, spec).apply(ev)
        rhs = fc.exponential_vector(x + a, spec)
        _worst(res, "operators.coherent_shift", (lhs - rhs).norm(fc.GRAM_W))
        _worst(res, "operators.coherent_growth",
               lhs.norm(fc.GRAM_W) ** 2 - math.exp((x + a).norm_sq()) * (1 + 1e-12))
        for m in (1, 2):
            power = ops.creation(a, m, spec).apply(ev)
            _worst(res, "operators.power_bound",
                   power.norm(fc.GRAM_W) - a.norm() ** m * ev.norm(fc.GRAM_W))

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
    res["operators.assembly_determinism"] = op1.max_block_difference(op2)
    return res, studies


# -- suite: hardy -------------------------------------------------------------

def suite_hardy(cfg: RunConfig):
    res = {}
    spec = fc.TruncationSpec(6, 3)
    rng = _rng(cfg, "hardy")

    for _ in range(20):
        a = hw.random_evector(3, rng, 0.7)
        x = hw.random_evector(3, rng, 0.7)
        for pairing in pc.PAIRINGS:
            f = hw.random_polynomial(spec, rng, 4, pairing)
            lhs = hw.evaluate(hw.shift(f, a), x)
            rhs = hw.evaluate(f, x + a)
            _worst(res, f"hardy.shift_pointwise.{pairing}", abs(lhs - rhs))

    for _ in range(10):
        x = hw.random_evector(3, rng, 0.7)
        for pairing in (fc.GRAM_W, fc.GRAM_H):
            f = hw.random_polynomial(spec, rng, 4, pairing)
            _worst(res, "hardy.kernel_route",
                   abs(hw.evaluate(f, x) - hw.evaluate_kernel(f, x, pairing)))

    wide = fc.TruncationSpec(6 + cfg.margin, 3)
    for _ in range(20):
        a = hw.random_evector(3, rng, 0.5)
        x = hw.random_evector(3, rng, 0.5)
        f = hw.random_polynomial(wide, rng, 4)
        lhs = hw.evaluate(hw.multiply_exp(f, a), x)
        rhs = hw.evaluate(f, x) * np.exp(complex(x.inner(a)))
        _worst(res, "hardy.mult_pointwise", abs(lhs - rhs))

    for _ in range(50):
        a = hw.random_evector(3, rng, 0.6)
        b = hw.random_evector(3, rng, 0.6)
        f = hw.random_polynomial(spec, rng, 4)
        shift_two = hw.shift(hw.shift(f, a), b)
        shift_sum = hw.shift(f, a + b)
        _worst(res, "hardy.group_laws", hw.residual(shift_two, shift_sum))
        mult_two = hw.multiply_exp(hw.multiply_exp(f, a), b)
        mult_sum = hw.multiply_exp(f, a + b)
        _worst(res, "hardy.group_laws", hw.residual(mult_two, mult_sum))

    for _ in range(10):
        a = hw.random_evector(3, rng, 0.6)
        for pairing in (fc.GRAM_W, fc.GRAM_H):
            f = hw.random_polynomial(spec, rng, 4, pairing)
            _worst(res, "hardy.shift_adjoint_route",
                   hw.residual(hw.shift(f, a), hw.shift_via_adjoint(f, a)))
        ft = hw.random_polynomial(spec, rng, 4, pc.TAYLOR)
        _worst(res, "hardy.mult_creation_route",
               hw.residual(hw.multiply_exp(ft, a), hw.multiply_via_creation(ft, a)))

    for _ in range(20):
        x = hw.random_evector(3, rng, 0.8)
        f = hw.random_polynomial(spec, rng, 5, fc.GRAM_W)
        bound = fc.exponential_vector(x, spec).norm(fc.GRAM_W) * f.norm()
        _worst(res, "hardy.evaluation_bound", abs(hw.evaluate(f, x)) - bound * (1 + 1e-12))

    a = hw.random_evector(3, rng, 0.7)
    f = hw.random_polynomial(spec, rng, 4)
    exact = hw.directional_derivative(f, a)
    errors = []
    for h in (1e-2, 1e-3, 1e-4):
        fd = hw.finite_difference_derivative(f, a, h)
        errors.append(hw.residual(fd, exact))
    order1 = math.log(errors[0] / errors[1]) / math.log(10)
    order2 = math.log(errors[1] / errors[2]) / math.log(10)
    res["hardy.generator_slope"] = 1.0 - min(order1, order2, 1.0)

    for _ in range(20):
        a = hw.random_evector(3, rng, 0.7)
        b = hw.random_evector(3, rng, 0.7)
        f = hw.random_polynomial(spec, rng, 4)
        lhs = hw.directional_derivative(hw.generator_mult(f, b), a)
        rhs_c = (
            complex(a.inner(b)) * f.coefficients()
            + hw.generator_mult(hw.directional_derivative(f, a), b).coefficients()
        )
        _worst(res, "hardy.leibniz",
               pc.w_norm_of_c(lhs.coefficients() - rhs_c, f.pairing, spec))
    return res, []


# -- suite: commutation -------------------------------------------------------

def suite_commutation(cfg: RunConfig):
    res = {}
    spec = fc.TruncationSpec(6, 3)
    rng = _rng(cfg, "commutation")

    for _ in range(50):
        a = hw.random_evector(3, rng, 0.8)
        b = hw.random_evector(3, rng, 0.8)
        f = hw.random_polynomial(spec, rng, 4)
        _worst(res, "commutation.generators", hw.commutator_check(f, a, b))

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
        _worst(res, "commutation.transported", diff.norm())

    for _ in range(50):
        a = hw.random_evector(3, rng, 0.5)
        b = hw.random_evector(3, rng, 0.5)
        f = hw.random_polynomial(spec, rng, 4, scale=0.8)
        _worst(res, "commutation.group_level",
               hw.weyl_group_commutation(f, a, b, margin=cfg.margin))
    return res, []


# -- suite: gw ----------------------------------------------------------------

def suite_gw(cfg: RunConfig):
    res = {}
    spec = fc.TruncationSpec(6, 3)
    rng = _rng(cfg, "gw")

    nodes, weights = sg.hermite_rule(64)
    for r in (0.5, 1.0, 2.0):
        for k in range(1, 7):
            quad = sum(
                w * (2.0 * math.sqrt(r) * xi) ** (2 * k) for xi, w in zip(nodes, weights)
            ) / math.sqrt(math.pi)
            exact = sg.gaussian_moment(r, k)
            _worst(res, "gw.moments", abs(quad - exact) / exact)

    for r in (0.1, 1.0):
        for _ in range(10):
            a = hw.random_evector(3, rng, 0.8)
            f = hw.random_polynomial(spec, rng, 4)
            _worst(res, "gw.quadrature_oracle",
                   hw.residual(sg.gw_mult(f, a, r), sg.gw_mult_oracle(f, a, r)))
            _worst(res, "gw.shift_routes",
                   hw.residual(sg.gw_shift(f, a, r), sg.gw_shift_quadrature(f, a, r)))
            two = sg.gw_mult(sg.gw_mult(f, a, r), a, 0.4)
            one = sg.gw_mult(f, a, r + 0.4)
            _worst(res, "gw.semigroup", hw.residual(two, one))
            two_s = sg.gw_shift(sg.gw_shift(f, a, r), a, 0.4)
            one_s = sg.gw_shift(f, a, r + 0.4)
            _worst(res, "gw.semigroup", hw.residual(two_s, one_s))

    heat = sg.gw_shift(
        hw.HardyWFunction(fc.FockVector.basis(spec, pt.BasisKey.make((2,), (1,)))),
        fc.EVector.basis(1, 3),
        0.25,
    )
    res["gw.heat_spot"] = float(abs(heat.fock.coeffs.get(pt.BasisKey.vacuum(), 0) - 0.5))

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
    res["gw.generator_slope"] = 1.0 - min(order, 1.0)

    for _ in range(5):
        a = hw.random_evector(3, rng, 0.8)
        fw = hw.random_polynomial(spec, rng, 4)
        f = hc.f_transform_inverse(fw)
        for which in (sg.GW_SHIFT, sg.GW_MULT):
            two = sg.gw_chi(sg.gw_chi(f, a, 0.3, which), a, 0.5, which)
            one = sg.gw_chi(f, a, 0.8, which)
            _worst(res, "gw.transported", (two - one).norm())
        tiny = sg.gw_chi(f, a, 1e-8, sg.GW_SHIFT)
        _worst(res, "gw.zero_time", (tiny - f).norm())
    return res, []


# -- suite: heisenberg --------------------------------------------------------

def suite_heisenberg(cfg: RunConfig):
    res = {}
    recorded = {}
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
    res["heisenberg.quaternion_table"] = float(table_bad)

    def rquat(scale=0.7, real=False):
        return hei.QuaternionVector(
            hw.random_evector(3, rng, scale, real), hw.random_evector(3, rng, scale, real)
        )

    for _ in range(50):
        p = rquat()
        q = rquat()
        _worst(res, "heisenberg.inner_product", abs(hei.eh_inner(p, p).imag_j()))
        pr, qr = rquat(real=True), rquat(real=True)
        _worst(res, "heisenberg.inner_product", abs(hei.eh_im(pr, qr) + hei.eh_im(qr, pr)))

    def relem(scale=0.6):
        return hei.HeisenbergElement(
            hw.random_evector(3, rng, scale),
            hw.random_evector(3, rng, scale),
            complex(rng.standard_normal(), rng.standard_normal()) * 0.3,
        )

    for _ in range(50):
        x, y, z = relem(), relem(), relem()
        left = hei.heis_mul(hei.heis_mul(x, y), z)
        right = hei.heis_mul(x, hei.heis_mul(y, z))
        _worst(res, "heisenberg.group_axioms", abs(left.t - right.t),
               max(abs(u - v) for u, v in zip(left.a.coords, right.a.coords)))
        ident = hei.heis_mul(x, hei.heis_inv(x))
        _worst(res, "heisenberg.group_axioms",
               abs(ident.t), max(abs(c) for c in ident.a.coords))
        g_prod = hei.g_iso(hei.heis_mul(x, y))
        g_comp = hei.aux_mul(hei.g_iso(x), hei.g_iso(y))
        _worst(res, "heisenberg.central_extension", abs(g_prod[0] - g_comp[0]))

    for _ in range(100):
        f = hw.random_polynomial(spec, rng, 3, scale=0.7)
        p, q = rquat(0.4, real=True), rquat(0.4, real=True)
        _worst(res, "heisenberg.weyl_relation",
               hei.weyl_relation_residual(p, q, f, margin=cfg.margin))
        x, y = relem(0.5), relem(0.5)
        _worst(res, "heisenberg.representation",
               hei.ws_homomorphism_residual(x, y, f, margin=cfg.margin))
        _worst(recorded, "heisenberg.displayed_form", hei.ws_homomorphism_residual(
            x, y, f, margin=cfg.margin, form=hei.ws_rep_displayed))
        pc_ = rquat(0.5)
        qc_ = rquat(0.5)
        _worst(recorded, "heisenberg.complex_weyl",
               hei.weyl_relation_residual(pc_, qc_, f, margin=cfg.margin))
    studies = [{
        "id": "heisenberg.displayed_form",
        "statement": "residual of the dressed operator assignment (recorded, no contract)",
        "residual": recorded["heisenberg.displayed_form"],
    }, {
        "id": "heisenberg.complex_weyl",
        "statement": "Weyl relation residual for complex parameters (recorded, no contract)",
        "residual": recorded["heisenberg.complex_weyl"],
    }]

    for _ in range(20):
        x = relem(0.5)
        fw = hw.random_polynomial(spec, rng, 4)
        f = hc.f_transform_inverse(fw)
        _worst(res, "heisenberg.model_conjugation", hei.ws_chi_agreement(x, f))
        central = hei.HeisenbergElement(
            fc.EVector.zero(3), fc.EVector.zero(3), complex(0.3, -0.2)
        )
        scaled = hei.ws_rep(central, "chi").apply(f)
        _worst(res, "heisenberg.central_character",
               (scaled - f.scale(np.exp(complex(0.3, -0.2)))).norm())

    probe = hei.orbit_rank_probe(fc.TruncationSpec(3, 2), 24, cfg.seed)
    studies.append({
        "id": "heisenberg.orbit_rank",
        "statement": "finite-rank shadow of irreducibility (heuristic, no contract)",
        **probe,
    })
    return res, studies


# -- suite: haar --------------------------------------------------------------

def suite_haar(cfg: RunConfig):
    res = {}
    for m in range(1, 7):
        report = uh.haar_moment_report(m, cfg.samples, cfg.seed + m, cfg.workers)
        for moment in report["moments"]:
            _worst(res, "haar.moments", abs(moment["z"]))

    for m in (2, 3):
        report = uh.invariance_report(m, cfg.samples, cfg.seed + 10 + m, cfg.workers)
        for side in report["sides"].values():
            for moment in side:
                _worst(res, "haar.invariance", abs(moment["z"]))

    rng = _rng(cfg, "haar.livsic")
    branch_total = 0
    for m in (1, 2, 3):
        batch = uh.haar_batch(m + 1, 10000, rng)
        projected, branches = uh.livsic_project_batch(batch)
        _worst(res, "haar.livsic_unitarity", uh.unitarity_defect(projected))
        branch_total += branches
    studies = [{
        "id": "haar.livsic_branches",
        "statement": "near-singular branch events over thirty thousand projections",
        "count": branch_total,
    }]

    for m in (1, 2, 3):
        report = uh.pushforward_consistency(m, cfg.samples, cfg.seed + 20 + m, cfg.workers)
        for moment in report["moments"]:
            _worst(res, "haar.pushforward", abs(moment["z"]))

    rng0 = _rng(cfg, "haar.chain")
    for _ in range(20):
        v = uh.embed_stabilized(uh.haar_sample(4, rng0))
        for k in range(1, 6):
            direct = uh.livsic_project_batch(v.level(k + 1)[None])[0][0]
            _worst(res, "haar.chain_consistency", float(np.abs(v.level(k) - direct).max()))

    rng1 = _rng(cfg, "haar.action")
    for _ in range(10):
        g = uh.haar_sample(3, rng1)
        emb = uh.embed_stabilized(g)
        acted = uh.right_action(emb, g, g, 3)
        _worst(res, "haar.action_spot", float(np.abs(acted.level(3) - g).max()))

    res["haar.reproducibility"] = _reproducibility_residual(cfg)
    return res, studies


def _reproducibility_residual(cfg: RunConfig) -> float:
    """Worst gap in means, standard errors and diagnostics, one worker against two or more."""
    (one, one_diag), (many, many_diag) = (
        uh.sample_moments(3, 40000, cfg.seed, workers=w) for w in (1, max(cfg.workers, 2))
    )
    gaps = [abs(getattr(one[name], attr) - getattr(many[name], attr))
            for name in uh.MOMENT_NAMES for attr in ("mean", "stderr")]
    gaps += [abs(one_diag[key] - many_diag[key]) for key in one_diag]
    return float(max(gaps))


# -- suite: ftransform --------------------------------------------------------

def suite_ftransform(cfg: RunConfig):
    res = {}
    studies = []
    spec = FTRANSFORM_SPEC
    rng = _rng(cfg, "ftransform")

    for _ in range(100):
        fw = hw.random_polynomial(spec, rng, spec.max_degree)
        f = hc.f_transform_inverse(fw)
        _worst(res, "ftransform.isometry", abs(hc.f_transform(f).norm() - f.norm()))
        psi = fw.fock
        round_trip = hc.phi_map_adjoint(hc.phi_map(psi))
        _worst(res, "ftransform.isometry", (round_trip - psi).norm(fc.GRAM_W))

    variant = cfg.variant
    pairing = cfg.readout()
    for _ in range(50):
        a = hw.random_evector(spec.dim, rng, 0.8)
        fw = hw.random_polynomial(spec, rng, spec.max_degree)
        f = hc.f_transform_inverse(fw)
        lhs = hw.shift(hc.f_transform(f, pairing), a)
        rhs = hc.f_transform(hc.mult_group_chi(f, a, variant), pairing)
        _worst(res, "ftransform.intertwine_mult", hw.residual(lhs, rhs))
        fw3 = hw.random_polynomial(spec, rng, spec.max_degree - 3)
        f3 = hc.f_transform_inverse(fw3)
        lhs2 = hw.multiply_exp(hc.f_transform(f3, pc.TAYLOR), a)
        rhs2 = hc.f_transform(hc.shift_group_chi(f3, a), pc.TAYLOR)
        _worst(res, "ftransform.intertwine_shift", hw.residual(lhs2, rhs2))

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
        _worst(res, "ftransform.generator_route", (via_sandwich - via_transform).norm())

    # Monte Carlo closed forms at level one
    x = fc.EVector(tuple([0.6 - 0.35j] + [0.0] * (spec.dim - 1)))
    mc_samples = min(cfg.samples, 100000)
    for k in range(3):
        key = pt.BasisKey.vacuum() if k == 0 else pt.BasisKey.make((k,), (1,))
        f = hc.HardyChiFunction.basis(spec, key)
        est = hc.mc_f_transform(f, x, 1, mc_samples, cfg.seed + 40 + k, workers=cfg.workers)
        _worst(res, "ftransform.mc_closed_forms", est.z_against(hc.closed_form_level_one(key, x)))
        if k:
            taylor = est.taylor_terms[k]
            _worst(res, "ftransform.mc_closed_forms", taylor.z_against(x.coords[0] ** k))

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
    res["ftransform.stderr_halving"] = max(abs(r - 1 / math.sqrt(2)) for r in halving)

    ortho = hc.mc_pair_integral(
        pt.BasisKey.make((2,), (1,)),
        pt.BasisKey.make((1, 1), (1, 2)),
        2,
        mc_samples,
        cfg.seed + 60,
        workers=cfg.workers,
    )
    res["ftransform.mc_orthogonality"] = ortho.z_against(0)

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
    return res, studies


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


def declared_case(case_id: str, residual: float, cfg: RunConfig) -> Case:
    """The ``CASES`` entry ``case_id`` at ``residual``, under the run's tolerances."""
    statement, name, default = CASES[case_id]
    tolerance = default if name is None else cfg.tol(name, default)
    statement = statement.format(variant=cfg.variant, readout=cfg.readout())
    return Case(case_id, statement, residual, tolerance)


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Execute one named suite and assemble its report payload.

    Raises ``RuntimeError`` when the suite's residuals are not exactly the
    cases ``CASES`` declares for it.
    """
    residuals, studies = SUITE_RUNNERS[name](cfg)
    declared = [case_id for case_id in CASES if case_id.split(".", 1)[0] == name]
    missing = sorted(set(declared) - set(residuals))
    undeclared = sorted(set(residuals) - set(declared))
    if missing or undeclared:
        raise RuntimeError(
            f"suite {name!r}: missing cases {missing}, undeclared cases {undeclared}"
        )
    cases = [declared_case(case_id, residuals[case_id], cfg) for case_id in declared]
    return {
        "suite": name,
        "config": cfg.report_fields(),
        "config_hash": cfg.digest(),
        "resolved": {"pairing": cfg.readout(), "variant": cfg.variant},
        "cases": [case.as_dict() for case in cases],
        "studies": studies,
        "passed": all(case.status == "pass" for case in cases),
    }
