"""Hardy space over virtual unitaries: exact coefficient model and MC model.

The exact model stores coefficients over the product-of-first-row-entries
basis functions; the squared basis norms coincide with the weighted Fock
weights, so the basis change to the Fock side is a key-wise conjugation.
The Monte Carlo model evaluates the same basis functions on Haar samples at
a finite level m and estimates the integral transform.  At level m the first
row of a Haar unitary is uniform on the unit sphere of C^m, so
the integral of |u^alpha|^2 is (m-1)! alpha! / (m-1+n)! with n = |alpha|, and
distinct monomials are orthogonal (Rudin 1980, section 1.4); ``w_norm_sq`` of
a diagram is this value at m equal to the diagram length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import polycalc as pc
from .fock_core import GRAM_W, EVector, FockVector, TruncationSpec
from .fock_core import norm_sq as gram_norm_sq
from .hardy_w import HardyWFunction
from .operators import adjoint, creation, exp_annihilation, exp_creation, readout
from .partitions import BasisKey, w_norm_sq
from .unitary_haar import estimate, haar_batch, z_score


class HardyChiFunction(FockVector):
    """Finite combination of the basis functions over virtual unitaries.

    Its coefficients live on the same canonical keys as the Fock side; the
    type tags the model, so the two are never added to one another.
    """

    @classmethod
    def constant(cls, spec: TruncationSpec, value=1.0) -> "HardyChiFunction":
        return cls.vacuum(spec, value)

    def norm_sq(self, kind: str = GRAM_W) -> float:
        """Sum of |coefficient|^2 times the Gram weight, computed apart from
        ``fock_core.inner`` so that ``ftransform.isometry`` compares two routes."""
        return float(
            sum(abs(v) ** 2 * float(gram_norm_sq(kind, k.diagram)) for k, v in self.coeffs.items())
        )

    def norm(self, kind: str = GRAM_W) -> float:
        return math.sqrt(self.norm_sq(kind))

    def max_index(self) -> int:
        return max((k.max_index() for k in self.coeffs), default=0)


# -- basis change and transform ----------------------------------------------

def phi_map(psi: FockVector) -> HardyChiFunction:
    """Conjugate-linear basis change from the Fock side; an exact isometry."""
    return HardyChiFunction(psi.spec, psi.array.astype(complex, copy=False).conj())


def phi_map_adjoint(f: HardyChiFunction) -> FockVector:
    """Adjoint basis change; composing the two gives the identity."""
    return FockVector(f.spec, f.array.astype(complex, copy=False).conj())


def f_transform(f: HardyChiFunction, pairing: str = pc.TAYLOR) -> HardyWFunction:
    """Linear transform onto the entire-function side.

    The Fock vector of the image is the adjoint basis change of f, so the
    norms agree exactly; the pairing tag only selects the readout used by
    downstream function operations.
    """
    return HardyWFunction(phi_map_adjoint(f), pairing)


def f_transform_inverse(g: HardyWFunction) -> HardyChiFunction:
    return phi_map(g.fock)


# -- transported operator groups ----------------------------------------------

def _transport(f: HardyChiFunction, op) -> HardyChiFunction:
    """phi_map(op(phi_map_adjoint(f))): a Fock operator carried over."""
    return phi_map(op.apply(phi_map_adjoint(f)))


def mult_group_chi(f: HardyChiFunction, a: EVector, variant: str) -> HardyChiFunction:
    """Multiplicative group element realised through the annihilation exponential.

    The annihilation variant is a run parameter; the transform intertwines
    this operator with the coefficient shift whose readout matches the
    variant ("w_adjoint" with the weighted readout, "monomial" with the
    plain one).
    """
    return _transport(f, exp_annihilation(a, f.spec, variant))


def shift_group_chi(f: HardyChiFunction, a: EVector) -> HardyChiFunction:
    """Shift group element realised through the creation exponential."""
    return _transport(f, exp_creation(a, f.spec))


def chi_shift_generator(f: HardyChiFunction, a: EVector) -> HardyChiFunction:
    """Generator of the transported shift group (creation conjugated over)."""
    return _transport(f, creation(a, 1, f.spec))


def chi_mult_generator(f: HardyChiFunction, a: EVector, variant: str) -> HardyChiFunction:
    """Generator of the transported multiplicative group (adjoint conjugated)."""
    return _transport(f, adjoint(readout(variant), creation(a, 1, f.spec)))


# -- Monte Carlo estimators ---------------------------------------------------

def _eval_keys_on_rows(rows: np.ndarray, items) -> np.ndarray:
    """Sum of coeff * product of first-row powers, per sample."""
    total = np.zeros(rows.shape[0], dtype=complex)
    for key, coeff in items:
        term = np.full(rows.shape[0], complex(coeff))
        for part, index in zip(key.diagram.parts, key.tuple.indices):
            term = term * rows[:, index - 1] ** part
        total += term
    return total


@dataclass
class MCEstimate:
    """Monte Carlo estimate with its standard error."""

    estimate: complex
    stderr: float
    samples: int

    def z_against(self, target: complex) -> float:
        return z_score(self.estimate, complex(target), self.stderr)


def _transform_kernel(rng, count, level, items, x_coords, degrees):
    """Values of exp(conj(phi_x)) f under "full" and of each Taylor term under its degree."""
    # row 0 as one contiguous copy: through the strided stack, rows @ xbar may
    # round differently (by ~1e-15), so the estimate would depend on the layout
    rows = np.ascontiguousarray(haar_batch(level, count, rng)[:, 0, :])
    xbar = np.array([complex(v).conjugate() for v in x_coords])
    width = min(rows.shape[1], xbar.size)
    phi_x = rows[:, :width] @ xbar[:width]
    weight = np.exp(phi_x.conj())
    f_vals = _eval_keys_on_rows(rows, items)
    values = {"full": weight * f_vals}
    for n in degrees:
        part = [(k, c) for k, c in items if k.degree() == n]
        values[n] = (phi_x.conj() ** n) * _eval_keys_on_rows(rows, part)
    return values, None


@dataclass
class TransformEstimate(MCEstimate):
    """MC record of the integral transform at one evaluation point and level."""

    level: int
    taylor_terms: dict

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "estimate": [self.estimate.real, self.estimate.imag],
            "stderr": self.stderr,
            "samples": self.samples,
            "taylor_terms": {
                str(n): {
                    "estimate": [e.estimate.real, e.estimate.imag],
                    "stderr": e.stderr,
                }
                for n, e in sorted(self.taylor_terms.items())
            },
        }


def _check_level(level: int) -> None:
    if level < 1:
        raise ValueError(f"sampling level {level}: unitary size must be >= 1")


def mc_f_transform(
    f: HardyChiFunction,
    x: EVector,
    level: int,
    samples: int,
    seed: int,
    workers: int = 1,
) -> TransformEstimate:
    """Monte Carlo estimate of the transform integral at level ``level``.

    Estimates the Haar integral of exp(conj(phi_x)) * f together with the
    per-degree moment integrals of conj(phi_x)^n * f_n (the Taylor-term
    estimators).  Requires every index in f and x to stay within the level.
    """
    _check_level(level)
    if f.max_index() > level:
        raise ValueError("function uses an index beyond the sampling level")
    if any(v != 0 for v in x.coords[level:]):
        raise ValueError("evaluation point uses an index beyond the sampling level")
    items = tuple(sorted(f.coeffs.items(), key=lambda kv: kv[0].label()))
    degrees = tuple(sorted(f.degrees()))
    params = (level, items, tuple(x.coords), degrees)
    means, _ = estimate(_transform_kernel, params, samples, seed, workers)
    terms = {name: MCEstimate(complex(mean), stderr, samples)
             for name, (mean, stderr) in means.items()}
    full = terms.pop("full")
    return TransformEstimate(full.estimate, full.stderr, samples, level, terms)


def norm_convergence_study(
    key: BasisKey,
    levels: tuple[int, ...],
    samples: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Empirical squared norms of one basis function across sampling levels.

    Each value is the pair integral of the key with itself, exactly
    (m-1)! alpha! / (m-1+n)! at level m; ``limit_value`` is the weight
    ``w_norm_sq``, that value at m equal to the diagram length.  Report-only.
    Every level is checked before any is sampled.
    """
    for m in levels:
        _check_level(m)
    if any(key.max_index() > m for m in levels):
        raise ValueError(f"key {key.label()} needs level >= {key.max_index()}")
    limit = float(w_norm_sq(key.diagram))
    rows = []
    for m in levels:
        est = mc_pair_integral(key, key, m, samples, seed, workers)
        rows.append(
            {
                "level": int(m),
                "empirical": est.estimate.real,
                "stderr": est.stderr,
                "limit_value": limit,
                "samples": samples,
            }
        )
    return rows


def _pair_kernel(rng, count, level, key1, key2):
    rows = np.ascontiguousarray(haar_batch(level, count, rng)[:, 0, :])
    left = _eval_keys_on_rows(rows, ((key1, 1.0),))
    right = _eval_keys_on_rows(rows, ((key2, 1.0),))
    return {"pair": left * right.conj()}, None


def mc_pair_integral(
    key1: BasisKey,
    key2: BasisKey,
    level: int,
    samples: int,
    seed: int,
    workers: int = 1,
) -> MCEstimate:
    """Haar integral of one basis function against the conjugate of another."""
    _check_level(level)
    means, _ = estimate(_pair_kernel, (level, key1, key2), samples, seed, workers)
    mean, stderr = means["pair"]
    return MCEstimate(complex(mean), stderr, samples)


def level_transform_exact(f: HardyChiFunction, x: EVector, level: int) -> complex:
    """Exact level-m transform: the sum of c_alpha x^alpha (m-1)! / (m-1+|alpha|)!.

    Built from integer factorials of m alone, apart from the weight code
    that ``f_transform`` reads out.
    """
    if f.max_index() > level:
        raise ValueError("function uses an index beyond the level")
    total = 0j
    for key, value in f.coeffs.items():
        mono = math.prod(x.coords[i - 1] ** p for p, i in zip(key.diagram.parts, key.tuple.indices))
        factor = Fraction(math.factorial(level - 1), math.factorial(level - 1 + key.degree()))
        total += value * mono * float(factor)
    return total


def closed_form_level_one(key: BasisKey, x: EVector) -> complex:
    """Exact level-1 transform of a single-index basis function.

    For the basis function u -> u^k (first coordinate only) the phase
    integral collapses to x_1^k / k!.
    """
    if key.max_index() > 1:
        raise ValueError("closed form only covers first-coordinate keys")
    k = key.degree()
    return complex(x.coords[0] ** k / math.factorial(k))
