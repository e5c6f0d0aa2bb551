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
from .fock_core import EVector, layout
from .hardy_chi import HardyChiFunction, f_transform, f_transform_inverse
from .hardy_w import HardyWFunction

GW_SHIFT = "shift"
GW_MULT = "mult"
DEFAULT_NODES = 64


def gaussian_moment(r: float, k: int) -> float:
    """Even kernel moment: integral of tau^(2k) equals 2 (2k-1)!/(k-1)! r^k."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    factor = Fraction(2 * math.factorial(2 * k - 1), math.factorial(k - 1))
    return float(factor) * r**k


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
    out = pc.apply_exp_mult(c, directions, f.spec)
    return HardyWFunction.from_coefficients(out @ weights, f.spec, f.pairing)


def _gw_series(c: np.ndarray, r: float, weights, neighbour, power, rows) -> np.ndarray:
    """Sum of r^k / k! G^(2k) c, up to the first zero term, for the generator
    G that ``polycalc._gather`` applies with ``weights``, ``neighbour`` and
    ``power``; G^j c lies on the rows ``rows[j - 1]``.  The terms share one
    padded buffer: each half step reads only rows that the one before it
    wrote."""
    if r <= 0:
        raise ValueError("time parameter must be positive")
    term, out = pc._padded(c), c.copy()
    for k in range(1, len(rows) // 2 + 1):
        half, span = rows[2 * k - 2], rows[2 * k - 1]
        term[half] = pc._gather(term, weights, neighbour, half, power)
        new = pc._gather(term, weights, neighbour, span, power) * (r / k)
        if not new.any():
            break
        term[span] = new
        out[span] += new[:, 0]
    return out


def gw_mult_oracle(f: HardyWFunction, a: EVector, r: float) -> HardyWFunction:
    """Closed form exp(r * (<.|a>)^2) applied as a finite series on polynomials.

    The generator multiplies by <x|a>, so G^j c has degree >= j.
    """
    rows = layout(f.spec)
    spans = [slice(rows.offsets[j], rows.size) for j in range(1, f.spec.max_degree + 1)]
    out = _gw_series(f.coefficients(), r, pc._direction(a).conj(), rows.down, None, spans)
    return HardyWFunction.from_coefficients(out, f.spec, f.pairing)


def gw_shift(f: HardyWFunction, a: EVector, r: float) -> HardyWFunction:
    """Heat flow of the shift group: sum of r^k (derivative along a)^(2k) / k!.

    Exact on polynomials since the derivative is nilpotent: G^j c has degree
    <= top - j, for the top degree of c.
    """
    c, rows = f.coefficients(), layout(f.spec)
    top = int(rows.degree[c != 0].max(initial=0))
    spans = [slice(0, rows.offsets[top - j + 1]) for j in range(1, top + 1)]
    out = _gw_series(c, r, pc._direction(a), rows.up, rows.exponents + 1, spans)
    return HardyWFunction.from_coefficients(out, f.spec, f.pairing)


def gw_shift_quadrature(
    f: HardyWFunction, a: EVector, r: float, nodes: int = DEFAULT_NODES
) -> HardyWFunction:
    """Quadrature route for the shift semigroup (cross-check of ``gw_shift``)."""
    c, directions, weights = _node_columns(f, a, r, nodes)
    out = pc.apply_shift(c, directions, f.spec)
    return HardyWFunction.from_coefficients(out @ weights, f.spec, f.pairing)


def gw_chi(f: HardyChiFunction, a: EVector, r: float, which: str) -> HardyChiFunction:
    """Semigroups carried to the other Hardy model by transform conjugation.

    ``which="shift"`` conjugates the multiplicative-side semigroup (generated
    by the squared transported shift generator); ``which="mult"`` conjugates
    the shift-side semigroup (generated by the squared transported coordinate
    multiplication).
    """
    g = f_transform(f)
    if which == GW_SHIFT:
        out = gw_mult(g, a, r)
    elif which == GW_MULT:
        out = gw_shift(g, a, r)
    else:
        raise ValueError(f"unknown semigroup selector {which!r}")
    return f_transform_inverse(out)
