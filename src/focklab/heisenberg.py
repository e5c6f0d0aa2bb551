"""Quaternions, the complexified Heisenberg group, and its Weyl representation.

Quaternions are stored as pairs of complex numbers alpha + beta j.  The
group elements are upper-triangular triples X(a, b, t) with the cocycle
<a|b'> in the central coordinate.  Every operator is one
``FlowOperator(shift, mult, scale)``: scale times (multiply by exp<x|mult>)
after (shift by shift), with its parameters from one of three maps:

- ``weyl(p)``: (b, a, exp(<a|b>/2)) for p = a + b j;
- ``ws_rep(x)``: (a, b, exp(t)) for x = X(a, b, t), a representation of the
  group law, for complex vectors included; ``ws_rep(x, "chi")`` carries it
  to the other model by the transform;
- ``ws_rep_displayed(x)``: (b, a, exp(t + <a|b>/2)), the dressed form, which
  is not one; suites report its residual alongside the working form.

One operator is exact on the truncated space and takes no margin; only a
composed residual, where a shift follows a multiplication, takes one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polycalc as pc
from .fock_core import EVector, TruncationSpec, layout
from .hardy_chi import HardyChiFunction, f_transform, f_transform_inverse, shift_group_chi
from .hardy_w import HardyWFunction, shift


# -- quaternions ---------------------------------------------------------------

@dataclass(frozen=True)
class Quaternion:
    """Quaternion alpha + beta j as an ordered pair of complex numbers."""

    alpha: complex
    beta: complex = 0j

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        # j z = conj(z) j for complex z, hence the conjugations below
        a, b = complex(self.alpha), complex(self.beta)
        c, d = complex(other.alpha), complex(other.beta)
        return Quaternion(a * c - b * d.conjugate(), a * d + b * c.conjugate())

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.alpha + other.alpha, self.beta + other.beta)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.alpha - other.alpha, self.beta - other.beta)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.alpha, -self.beta)

    def imag_j(self) -> complex:
        """The j-component (second complex coordinate)."""
        return complex(self.beta)

    def as_reals(self) -> tuple[float, float, float, float]:
        a, b = complex(self.alpha), complex(self.beta)
        return (a.real, a.imag, b.real, b.imag)

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (
            abs(self.alpha - other.alpha) <= tol and abs(self.beta - other.beta) <= tol
        )


QUAT_ONE = Quaternion(1)
QUAT_I = Quaternion(1j)
QUAT_J = Quaternion(0, 1)
QUAT_K = Quaternion(0, 1j)


@dataclass(frozen=True)
class QuaternionVector:
    """Pair p = a + b j of one-particle vectors."""

    a: EVector
    b: EVector

    def __add__(self, other: "QuaternionVector") -> "QuaternionVector":
        return QuaternionVector(self.a + other.a, self.b + other.b)


def eh_inner(p: QuaternionVector, q: QuaternionVector) -> Quaternion:
    """Quaternion-valued pairing <a+bj | a'+b'j>; its j-part is antisymmetric
    on real vectors and vanishes on the diagonal."""
    if p.a.dim != q.a.dim:
        raise ValueError("dimension mismatch")
    alpha = p.a.inner(q.a) + p.b.inner(q.b)
    beta = q.a.inner(p.b) - p.a.inner(q.b)
    return Quaternion(complex(alpha), complex(beta))


def eh_im(p: QuaternionVector, q: QuaternionVector) -> complex:
    return eh_inner(p, q).imag_j()


# -- the group -----------------------------------------------------------------

@dataclass(frozen=True)
class HeisenbergElement:
    """Upper-triangular triple X(a, b, t)."""

    a: EVector
    b: EVector
    t: complex = 0j

    @classmethod
    def identity(cls, dim: int) -> "HeisenbergElement":
        return cls(EVector.zero(dim), EVector.zero(dim), 0j)


def heis_mul(x: HeisenbergElement, y: HeisenbergElement) -> HeisenbergElement:
    return HeisenbergElement(
        x.a + y.a, x.b + y.b, x.t + y.t + complex(x.a.inner(y.b))
    )


def heis_inv(x: HeisenbergElement) -> HeisenbergElement:
    return HeisenbergElement(
        x.a.scale(-1), x.b.scale(-1), -x.t + complex(x.a.inner(x.b))
    )


def g_iso(x: HeisenbergElement) -> tuple[complex, QuaternionVector]:
    """Map into the auxiliary central extension of the quaternion vectors."""
    return (
        complex(x.t) - 0.5 * complex(x.a.inner(x.b)),
        QuaternionVector(x.a, x.b),
    )


def aux_mul(
    s: tuple[complex, QuaternionVector], u: tuple[complex, QuaternionVector]
) -> tuple[complex, QuaternionVector]:
    """Product (t, p)(t', p') = (t + t' - Im<p|p'>/2, p + p')."""
    t1, p1 = s
    t2, p2 = u
    return (t1 + t2 - 0.5 * eh_im(p1, p2), p1 + p2)


# -- operators on the entire-function side --------------------------------------

@dataclass(frozen=True)
class FlowOperator:
    """scale times (multiply by exp<x|mult>) after (shift by shift), as the
    (kind, vector) flow ``steps()`` of ``polycalc``.  Composing operators
    concatenates their steps, so compositions stay on one dense array."""

    shift: EVector
    mult: EVector
    scale: complex

    def steps(self) -> list:
        return [("shift", self.shift), ("mult", self.mult), ("scale", self.scale)]

    def apply(self, f: HardyWFunction) -> HardyWFunction:
        c = pc._wide_flow(f.coefficients(), f.spec, 0, self.steps())
        return HardyWFunction.from_coefficients(c, f.spec, f.pairing)


@dataclass(frozen=True)
class _Transported:
    """An operator carried to the other model by the transform."""

    op: FlowOperator

    def apply(self, f: HardyChiFunction) -> HardyChiFunction:
        return f_transform_inverse(self.op.apply(f_transform(f)))


def weyl(p: QuaternionVector) -> FlowOperator:
    """exp(<a|b>/2) times (multiply by exp<x|a>) after (shift by b)."""
    return FlowOperator(p.b, p.a, np.exp(0.5 * complex(p.a.inner(p.b))))


def weyl_relation_residual(
    p: QuaternionVector, q: QuaternionVector, f: HardyWFunction, margin: int = 16
) -> float:
    """Residual of W(p+q) = exp(-Im<p|q>/2) W(p) W(q) on f (weighted norm).

    The whole two-operator composition runs inside an enlarged workspace and
    the residual is measured back on the original one, so dropped tails do
    not contaminate the compared degrees.  Exact for real vectors; complex
    vectors pick up a genuine conjugation factor, so suites draw real
    parameters by default and only record the complex behaviour.
    """
    rhs = weyl(q).steps() + weyl(p).steps() + [("scale", np.exp(-0.5 * eh_im(p, q)))]
    lhs = weyl(p + q).steps()
    return pc._wide_residual(f.coefficients(), f.spec, margin, lhs, rhs, f.pairing)


def ws_rep(x: HeisenbergElement, model: str = "w"):
    """Group representation X(a,b,t) -> exp(t) M_b T_a on the chosen model.

    The cross term produced by commuting the shift past the multiplication is
    exp(<a|b'>), exactly the central cocycle of the group, so the
    representation property holds for complex parameters as well.  On the
    other model the same operator is conjugated by the transform.
    """
    if model not in ("w", "chi"):
        raise ValueError(f"unknown model {model!r}")
    op = FlowOperator(x.a, x.b, np.exp(complex(x.t)))
    return op if model == "w" else _Transported(op)


def ws_rep_displayed(x: HeisenbergElement) -> FlowOperator:
    """Dressed variant exp(t + <a|b>/2) M_a T_b, kept for the record.

    Not a representation of this group law: composing two of these against
    the composed element leaves a factor that no choice of real parameters
    removes.  Suites report its residual without a pass contract.
    """
    scale = np.exp(complex(x.t) + 0.5 * complex(x.a.inner(x.b)))
    return FlowOperator(x.b, x.a, scale)


def ws_homomorphism_residual(
    x: HeisenbergElement,
    y: HeisenbergElement,
    f: HardyWFunction,
    margin: int = 16,
    form=ws_rep,
) -> float:
    """Residual of W(xy) f = W(x) W(y) f, measured on the original workspace.

    ``form`` maps an element to its ``FlowOperator``; the default is the
    working representation, ``ws_rep_displayed`` gives the dressed variant.
    """
    rhs = form(y).steps() + form(x).steps()
    lhs = form(heis_mul(x, y)).steps()
    return pc._wide_residual(f.coefficients(), f.spec, margin, lhs, rhs, f.pairing)


def ws_chi_agreement(x: HeisenbergElement, f: HardyChiFunction) -> float:
    """Distance between the transported route and the stepwise direct route.

    Route one conjugates the whole operator by the transform; route two
    composes the individually transported shift and multiplication (the
    matrix-level creation exponential for the multiplication part).
    """
    route1 = ws_rep(x, "chi").apply(f)
    shifted = f_transform_inverse(shift(f_transform(f), x.a))
    route2 = shift_group_chi(shifted, x.b).scale(np.exp(complex(x.t)))
    return (route1 - route2).norm()


def orbit_rank_probe(spec: TruncationSpec, count: int, seed: int) -> dict:
    """Heuristic irreducibility shadow: rank of the orbit of the constant.

    Applies ``count`` random group elements to the constant function and
    reports the numerical rank of the stacked coefficient vectors against the
    dimension of the truncated space.  A full-rank outcome is only a finite
    hint, never a proof; the report carries both numbers.
    """
    rng = np.random.default_rng(seed)
    size = layout(spec).size
    rows = []
    ones = HardyWFunction.from_coefficients(
        np.eye(size, dtype=complex)[0], spec, pc.TAYLOR
    )
    for _ in range(count):
        a = EVector(tuple(rng.standard_normal(spec.dim) * 0.7))
        b = EVector(tuple(rng.standard_normal(spec.dim) * 0.7))
        t = complex(rng.standard_normal() * 0.3)
        image = ws_rep(HeisenbergElement(a, b, t), "w").apply(ones)
        rows.append(image.coefficients())
    matrix = np.vstack(rows)
    rank = int(np.linalg.matrix_rank(matrix, tol=1e-10))
    return {"rank": rank, "dimension": size, "orbit_size": count}
