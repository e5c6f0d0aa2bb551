"""Exact values that the Monte Carlo checks of the benchmark compare against.

Every value here is computed from a closed form, never by calling focklab,
so a check compares the program's estimate with an independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

# A Monte Carlo check makes 50 comparisons, and a set of benchmark runs makes
# about 50 000.  Over 15 000 comparisons (300 checks) the largest |z| was
# 4.5, with three above 4 where a normal tail predicts one.  Seven standard
# errors leaves room for that heavier tail and still catches a 5 % bias in
# E|u11|^2 at m = 6 with 16384 samples.
Z_BOUND = 7.0
# Below this gap an estimate counts as exact, whatever its standard error:
# degenerate moments (|u11|^2 = 1 at m = 1) have a standard error at roundoff.
ABS_TOL = 1e-12


def abs_u11_moment(m: int, k: int) -> Fraction:
    """E|u11|^(2k) over Haar U(m): |u11|^2 ~ Beta(1, m-1), so 1/C(m+k-1, k)."""
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    return Fraction(1, math.comb(m + k - 1, k))


def abs_trace_moment(m: int, k: int) -> Fraction:
    """E|tr U|^(2k) over Haar U(m) for k <= m: k! (Diaconis & Shahshahani 1994)."""
    if not 0 <= k <= m:
        raise ValueError("the closed form k! needs 0 <= k <= m")
    return Fraction(math.factorial(k))


def haar_moment(name: str, m: int) -> float:
    """Exact value of one moment that focklab.unitary_haar tracks, by name."""
    if name == "abs_u11_sq":
        return float(abs_u11_moment(m, 1))
    if name == "abs_u11_quad":
        return float(abs_u11_moment(m, 2))
    if name == "abs_trace_sq":
        return float(abs_trace_moment(m, 1))
    if name in ("re_u11", "im_u11"):
        return 0.0
    raise ValueError(f"no oracle for moment {name!r}")


def level_one_transform(k: int, x1: complex) -> complex:
    """Level-one transform of u -> u^k at x: E[exp(conj(u) x1) u^k] = x1^k / k!."""
    return complex(x1) ** k / math.factorial(k)


def level_one_taylor(k: int, x1: complex) -> complex:
    """Degree-k Taylor-term integral at level one: E[(conj(u) x1)^k u^k] = x1^k."""
    return complex(x1) ** k


def z_score(estimate: complex, stderr: float, exact: complex) -> float:
    """Distance of an estimate from its exact value in standard errors."""
    gap = abs(complex(estimate) - complex(exact))
    if gap <= ABS_TOL:
        return 0.0
    return gap / stderr if stderr > 0 else math.inf
