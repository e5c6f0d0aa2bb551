"""Gauss-Weierstrass semigroups on both Hardy models.

The heat-type semigroup along a direction a integrates the one-parameter
multiplicative (or shift) group against the Gaussian kernel of variance 2r.
On polynomials both semigroups admit finite closed forms (the exponential of
r times the squared generator), so Gauss-Hermite quadrature can be pinned
against an exact oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import polycalc as pc
from .fock_core import EVector
from .hardy_chi import HardyChiFunction, f_transform, f_transform_inverse
from .hardy_w import HardyWFunction

GW_SHIFT = "shift"
GW_MULT = "mult"
DEFAULT_NODES = 64


def gaussian_kernel(r: float, tau: float) -> float:
    """Density (4 pi r)^(-1/2) exp(-tau^2 / 4r); integrates to 1, variance 2r."""
    return math.exp(-(tau**2) / (4.0 * r)) / math.sqrt(4.0 * math.pi * r)


def gaussian_moment(r: float, k: int) -> float:
    """Even kernel moment: integral of tau^(2k) equals 2 (2k-1)!/(k-1)! r^k."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    factor = Fraction(2 * math.factorial(2 * k - 1), math.factorial(k - 1))
    return float(factor) * r**k


def gaussian_raw_moment(r: float, power: int) -> float:
    """Kernel moment of any order; odd powers vanish by symmetry."""
    if power < 0:
        raise ValueError("power must be >= 0")
    if power == 0:
        return 1.0
    if power % 2:
        return 0.0
    return gaussian_moment(r, power // 2)


@lru_cache(maxsize=None)
def hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes/weights for the standard weight exp(-v^2)."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return x, w


def _node_columns(f: HardyWFunction, a: EVector, r: float, nodes: int):
    """The coefficients of f repeated once per Gauss-Hermite node, the
    direction a * 2 sqrt(r) x_i of node i in column i, and the weights
    w_i / sqrt(pi) that contract the columns back into one function."""
    if r <= 0:
        raise ValueError("time parameter must be positive")
    x, w = hermite_rule(nodes)
    c = np.repeat(f.coefficients()[:, None], nodes, axis=1)
    directions = np.outer(np.asarray(a.coords, dtype=complex), 2.0 * math.sqrt(r) * x)
    return c, directions, w / math.sqrt(math.pi)


def gw_mult(
    f: HardyWFunction, a: EVector, r: float, nodes: int = DEFAULT_NODES
) -> HardyWFunction:
    """Kernel average of the multiplicative group, by Gauss-Hermite quadrature.

    Substituting tau = 2 sqrt(r) v turns the integrand into a polynomial in v
    times exp(-v^2), so the rule is exact once the node count covers the
    degree; symmetric nodes kill the odd terms automatically.  All nodes
    flow at once, one coefficient column each.
    """
    c, directions, weights = _node_columns(f, a, r, nodes)
    out, overflow = pc.apply_exp_mult(c, directions, f.spec)
    overflow = f.overflow or overflow
    return HardyWFunction.from_coefficients(out @ weights, f.spec, f.pairing, overflow)


def _gw_series(f: HardyWFunction, r: float, step) -> HardyWFunction:
    """Sum of r^k / k! G^(2k) f on dense coefficients, where ``step`` applies
    the generator G once and returns (coefficients, overflowed)."""
    if r <= 0:
        raise ValueError("time parameter must be positive")
    term = f.coefficients()
    out = term.copy()
    overflow = f.overflow
    for k in range(1, f.spec.max_degree // 2 + 1):
        term, first = step(term)
        term, second = step(term)
        overflow = overflow or first or second
        term = term * (r / k)
        if not term.any():
            break
        out += term
    return HardyWFunction.from_coefficients(out, f.spec, f.pairing, overflow)


def gw_mult_oracle(f: HardyWFunction, a: EVector, r: float) -> HardyWFunction:
    """Closed form exp(r * (<.|a>)^2) applied as a finite series on polynomials."""
    return _gw_series(f, r, lambda c: pc.apply_mult_linear(c, a, f.spec))


def gw_shift(f: HardyWFunction, a: EVector, r: float) -> HardyWFunction:
    """Heat flow of the shift group: sum of r^k (derivative along a)^(2k) / k!.

    Exact on polynomials since the derivative is nilpotent.
    """
    return _gw_series(f, r, lambda c: (pc.apply_derivative(c, a, f.spec), False))


def gw_shift_quadrature(
    f: HardyWFunction, a: EVector, r: float, nodes: int = DEFAULT_NODES
) -> HardyWFunction:
    """Quadrature route for the shift semigroup (cross-check of ``gw_shift``)."""
    c, directions, weights = _node_columns(f, a, r, nodes)
    out = pc.apply_shift(c, directions, f.spec)
    return HardyWFunction.from_coefficients(out @ weights, f.spec, f.pairing, f.overflow)


def gw_chi(
    f: HardyChiFunction,
    a: EVector,
    r: float,
    which: str,
    nodes: int = DEFAULT_NODES,
) -> HardyChiFunction:
    """Semigroups carried to the other Hardy model by transform conjugation.

    ``which="shift"`` conjugates the multiplicative-side semigroup (generated
    by the squared transported shift generator); ``which="mult"`` conjugates
    the shift-side semigroup (generated by the squared transported coordinate
    multiplication).
    """
    g = f_transform(f)
    if which == GW_SHIFT:
        out = gw_mult(g, a, r, nodes)
    elif which == GW_MULT:
        out = gw_shift(g, a, r)
    else:
        raise ValueError(f"unknown semigroup selector {which!r}")
    return f_transform_inverse(out)
