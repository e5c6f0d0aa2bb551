"""Dense coefficient calculus behind the Hardy-space function operations.

A function on the one-particle space is held as a dense vector of monomial
coefficients over the canonical key order.  Three "dressings" translate a
Fock vector into monomial coefficients:

  taylor : c = conj(psi)                       (homogeneous polynomial reading)
  h      : c = conj(psi) / degree!             (coherent-kernel reading, plain Gram)
  w      : c = conj(psi) * C / degree!         (coherent-kernel reading, weighted Gram)

Shifts, multiplications and derivatives are literal polynomial operations
on the coefficients; they are realised as exponential flows of their
(nilpotent or degree-raising) generators, which keeps every identity exact
up to roundoff inside the truncation.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .fock_core import GRAM_W, EVector, FockVector, TruncationSpec, layout
from .partitions import constant_c

TAYLOR = "taylor"
PAIRING_W = "w"
PAIRING_H = "h"
PAIRINGS = (PAIRING_W, PAIRING_H, TAYLOR)


class CoeffTable:
    """Flow tables and readout dressings for one truncation workspace.

    Rows are those of ``fock_core.layout(spec)``.  The flow tables come from
    exponent vectors alone; the dressings need the diagram of each row and are
    built on first use, so the deep workspaces that only run flows stay small.
    """

    def __init__(self, spec: TruncationSpec):
        self.spec = spec
        rows = layout(spec)
        self.exponents, self.degree = rows.exponents, rows.degree
        size, d = rows.size, spec.dim
        # neighbour tables: row of key +/- e_k, or ``size`` (the row of an
        # appended zero) when outside, so that the kernels are plain gathers.
        # Rows are looked up as opaque byte strings, sorted once.
        def as_bytes(rows):
            return np.ascontiguousarray(rows).view(f"V{8 * d}").ravel()

        order = np.argsort(as_bytes(self.exponents))
        known = as_bytes(self.exponents)[order]
        self.up, self.down = np.empty((2, size, d), dtype=np.intp)
        for k in range(d):
            for neighbour, sign in ((self.up, 1), (self.down, -1)):
                wanted = as_bytes(self.exponents + sign * np.eye(d, dtype=np.int64)[k])
                at = np.minimum(np.searchsorted(known, wanted), size - 1)
                neighbour[:, k] = np.where(known[at] == wanted, order[at], size)
        self.top = np.flatnonzero(self.degree == spec.max_degree)

    def size(self) -> int:
        return len(self.degree)

    @cached_property
    def dress(self) -> dict:
        factorials = np.array([math.factorial(int(n)) for n in self.degree], dtype=float)
        cvals = np.array([float(constant_c(d)) for d in layout(self.spec).diagrams])
        return {
            TAYLOR: np.ones(self.size()),
            PAIRING_H: 1.0 / factorials,
            PAIRING_W: cvals / factorials,
        }


@lru_cache(maxsize=64)
def table(spec: TruncationSpec) -> CoeffTable:
    return CoeffTable(spec)


def psi_to_c(v: FockVector, pairing: str) -> np.ndarray:
    """Monomial coefficients of the function read out of a Fock vector."""
    return v.array.astype(complex, copy=False).conj() * table(v.spec).dress[pairing]


def c_to_psi(c: np.ndarray, pairing: str, spec: TruncationSpec) -> FockVector:
    return FockVector(spec, (c / table(spec).dress[pairing]).conjugate())


def w_norm_of_c(c: np.ndarray, pairing: str, spec: TruncationSpec) -> float:
    """Weighted norm of the Fock vector represented by the coefficients."""
    psi = c / table(spec).dress[pairing]
    return float(np.sqrt(np.sum(np.abs(psi) ** 2 * layout(spec).gram(GRAM_W))))


# -- generators --------------------------------------------------------------
#
# The kernels take coefficients of shape (size,) or (size, n) and a direction
# that is an EVector or a (dim, n) array, one direction per column.


def _direction(a) -> np.ndarray:
    return np.asarray(a.coords if isinstance(a, EVector) else a, dtype=complex)


def _gather(c: np.ndarray, weights: np.ndarray, neighbour: np.ndarray, power=None):
    """Sum over k of weights[k] (times power[:, k]) times c at neighbour[:, k]."""
    flat = c.reshape(len(c), -1)
    padded = np.concatenate([flat, np.zeros_like(flat[:1])])
    columns = weights.reshape(len(weights), -1)
    out = np.zeros((len(c), max(flat.shape[1], columns.shape[1])), dtype=complex)
    for k in np.flatnonzero(columns.any(axis=1)):
        factor = columns[k] if power is None else columns[k] * power[:, k : k + 1]
        out += factor * np.take(padded, neighbour[:, k], axis=0)
    return out[:, 0] if c.ndim == weights.ndim == 1 else out


def apply_mult_linear(c: np.ndarray, a, spec: TruncationSpec):
    """Multiply by the linear form <x|a>; returns (result, overflowed).

    ``overflowed`` says that some column has mass at the top degree and a
    nonzero direction, so part of its product falls outside the workspace.
    """
    tab = table(spec)
    weights = _direction(a).conj()
    live = weights.reshape(len(weights), -1).any(axis=0)
    overflow = bool((c.reshape(len(c), -1)[tab.top].any(axis=0) & live).any())
    return _gather(c, weights, tab.down), overflow


def apply_derivative(c: np.ndarray, a, spec: TruncationSpec) -> np.ndarray:
    """Directional derivative along a of the polynomial with coefficients c."""
    tab = table(spec)
    # the source key x^(e + e_k) of key e carries the exponent e_k + 1
    return _gather(c, _direction(a), tab.up, tab.exponents + 1)


def apply_shift(c: np.ndarray, a, spec: TruncationSpec) -> np.ndarray:
    """Substitute x -> x + a; exact because the derivative flow is nilpotent."""
    out = c.copy()
    term = c
    for m in range(1, spec.max_degree + 1):
        term = apply_derivative(term, a, spec) / m
        if not term.any():
            break
        out = out + term
    return out


def apply_exp_mult(c: np.ndarray, a, spec: TruncationSpec):
    """Multiply by exp(<x|a>), truncated at the cap; returns (result, overflowed)."""
    out = c.copy()
    term = c
    overflow = False
    for m in range(1, spec.max_degree + 1):
        term, over = apply_mult_linear(term, a, spec)
        term = term / m
        overflow = overflow or over
        if not term.any():
            break
        out = out + term
    else:
        # cap reached with mass still flowing upward
        probe, over = apply_mult_linear(term, a, spec)
        overflow = overflow or over or bool(probe.any())
    return out, overflow


def evaluate_c(c: np.ndarray, x: EVector, spec: TruncationSpec) -> complex:
    """Value of the polynomial with monomial coefficients c at the point x."""
    monomials = np.prod(np.asarray(x.coords, dtype=complex) ** layout(spec).exponents, axis=1)
    return complex(c @ monomials)


# Every workspace lists its keys by degree first, so the keys of a workspace
# are the first rows of any deeper one of the same dimension.

def lift(c: np.ndarray, src: TruncationSpec, dst: TruncationSpec) -> np.ndarray:
    """Re-index coefficients into a larger workspace of the same dimension."""
    if src.dim != dst.dim or dst.max_degree < src.max_degree:
        raise ValueError("target workspace must extend the source")
    out = np.zeros((layout(dst).size,) + c.shape[1:], dtype=complex)
    out[: len(c)] = c
    return out


def restrict(c: np.ndarray, src: TruncationSpec, dst: TruncationSpec) -> np.ndarray:
    """Project coefficients onto a smaller workspace of the same dimension."""
    if src.dim != dst.dim or dst.max_degree > src.max_degree:
        raise ValueError("target workspace must be contained in the source")
    return c[: layout(dst).size].astype(complex)


def _wide_flow(c, spec: TruncationSpec, margin: int, steps):
    """Run (kind, vector) steps on c in a workspace ``margin`` degrees deeper.

    Kinds: "shift" (x -> x + v), "mult" (times exp<x|v>), "scale" (times the
    number v, on the coefficients: on the Fock vector it would be conjugated).
    A shift after a multiplication brings the tail that the
    multiplication dropped at the cap down to spec, so such steps run again
    two degrees shallower; if the two runs differ on spec by more than 1e-12
    relative, the steps run once more with twice the margin.  Returns
    (coefficients on spec, overflowed).
    """
    depth = spec.max_degree + margin
    out, overflow = _flow_at(c, spec, depth, steps)
    kinds = [kind for kind, _ in steps]
    if margin and "mult" in kinds and "shift" in kinds[kinds.index("mult") :]:
        probe, _ = _flow_at(c, spec, depth - 2, steps)
        if np.linalg.norm(out - probe) > 1e-12 * np.linalg.norm(out):
            out, overflow = _flow_at(c, spec, depth + margin, steps)
    return out, overflow


def _wide_residual(c, spec: TruncationSpec, margin: int, lhs, rhs, pairing: str) -> float:
    """Weighted norm of the difference of two step lists applied to c."""
    left, _ = _wide_flow(c, spec, margin, lhs)
    right, _ = _wide_flow(c, spec, margin, rhs)
    return w_norm_of_c(left - right, pairing, spec)


def _flow_at(c, spec: TruncationSpec, depth: int, steps):
    wide = TruncationSpec(max(depth, spec.max_degree), spec.dim)
    c, overflow = lift(c, spec, wide), False
    for kind, vec in steps:
        if kind == "mult":
            c, over = apply_exp_mult(c, vec, wide)
            overflow = overflow or over
        elif kind == "shift":
            c = apply_shift(c, vec, wide)
        elif kind == "scale":
            c = c * complex(vec)
        else:
            raise ValueError(f"unknown flow step {kind!r}")
    return restrict(c, wide, spec), overflow
