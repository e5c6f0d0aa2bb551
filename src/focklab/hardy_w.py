"""Hardy space of entire functions attached to the weighted Fock space.

A function is stored as its Fock coefficient vector together with a pairing
tag saying how coefficients are read out as monomial coefficients:

  * ``"w"`` / ``"h"``  -- the coherent-kernel readout against the weighted or
    plain Gram: f(x) = <coherent(x) | psi> under that inner product;
  * ``"taylor"``       -- the homogeneous-polynomial readout: the degree-n
    part of f is the Hilbert-Schmidt polynomial of the degree-n component.

The two readouts of one vector differ per degree by a factorial, and several
classical identities single out one of them:  shift realised on coefficients
equals the Gram-adjoint transport of the creation exponential precisely for
the ``"w"``/``"h"`` readouts, while multiplication by exp<x|a> equals the
creation exponential itself precisely for ``"taylor"``.  Tests pin each
identity to its readout.  The norm of a function is always the weighted norm
of its Fock vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import polycalc as pc
from .fock_core import (
    EVector,
    FockVector,
    TruncationSpec,
    exponential_vector,
    inner,
    layout,
)
from .operators import GRAM_H, GRAM_W, adjoint, exp_creation

PAIRINGS = pc.PAIRINGS


@dataclass
class HardyWFunction:
    """Entire function represented by a Fock vector and a readout tag."""

    fock: FockVector
    pairing: str = pc.TAYLOR

    def __post_init__(self):
        if self.pairing not in PAIRINGS:
            raise ValueError(f"unknown pairing {self.pairing!r}")

    @property
    def spec(self) -> TruncationSpec:
        return self.fock.spec

    def norm(self) -> float:
        return self.fock.norm(GRAM_W)

    def coefficients(self) -> np.ndarray:
        return pc.psi_to_c(self.fock, self.pairing)

    @classmethod
    def from_coefficients(cls, c: np.ndarray, spec: TruncationSpec,
                          pairing: str) -> "HardyWFunction":
        return cls(pc.c_to_psi(c, pairing, spec), pairing)

    def with_pairing(self, pairing: str) -> "HardyWFunction":
        """Same Fock vector, different readout (a different function)."""
        return replace(self, pairing=pairing)


def evaluate(f: HardyWFunction, x: EVector) -> complex:
    """Pointwise value of f at x under the function's own readout."""
    return pc.evaluate_c(f.coefficients(), x, f.spec)


def evaluate_kernel(f: HardyWFunction, x: EVector, kind: str) -> complex:
    """Independent evaluation route: pair the coherent vector of x against psi.

    For ``kind`` equal to the function's pairing tag this agrees with
    ``evaluate``; it is kept separate so tests can cross-check the two paths.
    """
    value = inner(kind, exponential_vector(x, f.spec), f.fock)
    return complex(value)


def shift(f: HardyWFunction, a: EVector) -> HardyWFunction:
    """The function x -> f(x + a); exact, degree never increases."""
    c = pc.apply_shift(f.coefficients(), a, f.spec)
    return HardyWFunction.from_coefficients(c, f.spec, f.pairing)


def shift_via_adjoint(f: HardyWFunction, a: EVector) -> HardyWFunction:
    """Shift computed as Gram-adjoint transport of the creation exponential.

    Valid for the ``"w"`` and ``"h"`` readouts, where it coincides with
    ``shift``; used as the independent operator-level route.
    """
    if f.pairing not in (GRAM_W, GRAM_H):
        raise ValueError("adjoint transport requires the 'w' or 'h' readout")
    op = adjoint(f.pairing, exp_creation(a, f.spec))
    return HardyWFunction(op.apply(f.fock), f.pairing)


def multiply_exp(f: HardyWFunction, a: EVector) -> HardyWFunction:
    """The function x -> f(x) * exp(<x|a>), truncated at the degree cap."""
    c = pc.apply_exp_mult(f.coefficients(), a, f.spec)
    return HardyWFunction.from_coefficients(c, f.spec, f.pairing)


def multiply_via_creation(f: HardyWFunction, a: EVector) -> HardyWFunction:
    """Multiplication route through the creation exponential operator.

    Coincides with ``multiply_exp`` for the ``"taylor"`` readout, including
    the mass dropped at the cap; kept as the independent matrix-level route.
    """
    return HardyWFunction(exp_creation(a, f.spec).apply(f.fock), f.pairing)


def directional_derivative(
    f: HardyWFunction, a: EVector, order: int = 1
) -> HardyWFunction:
    """Derivative along a, iterated ``order`` times; exact on polynomials."""
    c = f.coefficients()
    for _ in range(order):
        c = pc.apply_derivative(c, a, f.spec)
    return HardyWFunction.from_coefficients(c, f.spec, f.pairing)


def generator_mult(f: HardyWFunction, a: EVector) -> HardyWFunction:
    """Multiplication by the linear form <x|a>; degree rises by one."""
    c = pc.apply_mult_linear(f.coefficients(), a, f.spec)
    return HardyWFunction.from_coefficients(c, f.spec, f.pairing)


def residual(f: HardyWFunction, g: HardyWFunction) -> float:
    """Weighted-norm distance between two functions with equal readouts."""
    if f.pairing != g.pairing:
        raise ValueError("cannot compare functions with different readouts")
    return (f.fock - g.fock).norm(GRAM_W)


def commutator_check(f: HardyWFunction, a: EVector, b: EVector) -> float:
    """Residual of (derivative_a mult_b - mult_b derivative_a - <a|b>) on f.

    The identity is stated on function coefficients, so the residual is
    assembled there and then measured in the weighted norm.
    """
    if max(f.fock.degrees(), default=0) > f.spec.max_degree - 1:
        raise ValueError("degree too close to the cap for the commutator")
    lhs = directional_derivative(generator_mult(f, b), a)
    rhs = generator_mult(directional_derivative(f, a), b)
    scalar = complex(a.inner(b))
    diff = lhs.coefficients() - rhs.coefficients() - scalar * f.coefficients()
    return pc.w_norm_of_c(diff, f.pairing, f.spec)


def weyl_group_commutation(
    f: HardyWFunction, a: EVector, b: EVector, margin: int = 16
) -> float:
    """Residual of shift-after-multiply vs exp<a|b> multiply-after-shift.

    Both sides are computed inside an enlarged workspace so that the mass
    dropped beyond the cap cannot contaminate the compared degrees; the
    residual is measured on the original workspace in the weighted norm.
    """
    lhs = [("mult", b), ("shift", a)]
    rhs = [("shift", a), ("mult", b), ("scale", np.exp(complex(a.inner(b))))]
    return pc._wide_residual(f.coefficients(), f.spec, margin, lhs, rhs, f.pairing)


def finite_difference_derivative(
    f: HardyWFunction, a: EVector, h: float
) -> HardyWFunction:
    """(f(x + h a) - f(x)) / h, the one-sided slope toward the generator."""
    shifted = shift(f, a.scale(h))
    return HardyWFunction.from_coefficients(
        (shifted.coefficients() - f.coefficients()) / h, f.spec, f.pairing
    )


def random_polynomial(
    spec: TruncationSpec,
    rng: np.random.Generator,
    max_degree: int | None = None,
    pairing: str = pc.TAYLOR,
    scale: float = 1.0,
) -> HardyWFunction:
    """Dense random polynomial with complex Gaussian coefficients."""
    cap = spec.max_degree if max_degree is None else max_degree
    c = np.zeros(layout(spec).size, dtype=complex)
    count = int((layout(spec).degree <= cap).sum())  # rows run by degree
    c[:count] = scale * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    return HardyWFunction.from_coefficients(c, spec, pairing)


def random_evector(
    dim: int, rng: np.random.Generator, scale: float = 1.0, real: bool = False
) -> EVector:
    re = rng.standard_normal(dim)
    if real:
        vec = scale * re
        return EVector(tuple(float(v) for v in vec))
    im = rng.standard_normal(dim)
    vec = scale * (re + 1j * im) / math.sqrt(2.0)
    return EVector(tuple(complex(v) for v in vec))
