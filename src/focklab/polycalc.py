"""Dense coefficient calculus behind the Hardy-space function operations.

A function on the one-particle space is held as a dense vector of monomial
coefficients over the rows of ``fock_core.layout(spec)``, whose neighbour
tables the gathers read.  Three "dressings", cached per workspace, translate a
Fock vector into monomial coefficients:

  taylor : c = conj(psi)                       (homogeneous polynomial reading)
  h      : c = conj(psi) / degree!             (coherent-kernel reading, plain Gram)
  w      : c = conj(psi) * C / degree!         (coherent-kernel reading, weighted Gram)

Shifts, multiplications and derivatives are literal polynomial operations
on the coefficients, exact up to roundoff inside the truncation, by two
routes that the suites check against each other.  The public kernels sum the
exponential series of the generator by neighbour gathers, term m on the rows
of the degrees it can reach; single operations and the quadrature run on
them, and the heat series oracles of ``semigroups`` on their gathers.  The step lists of ``_wide_flow`` (the Weyl operators
and their residuals) run on fibres, one small triangular matrix per
coordinate, with the state kept in the fibre order of the last axis, in three
segments: the shifts and scales before the first multiplication and the
multiplications and scales after the last shift run on the base workspace,
and only the span between them runs in the deeper one.  Every kernel returns
the coefficient array alone and drops what a product pushes past the cap; the
deep span guards against that loss with its margin and tail probe, and
building a vector beyond the cap raises ``TruncationOverflowError``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fock_core import GRAM_W, EVector, FockVector, TruncationSpec, layout
from .partitions import constant_c

TAYLOR = "taylor"
PAIRING_W = "w"
PAIRING_H = "h"
PAIRINGS = (PAIRING_W, PAIRING_H, TAYLOR)


@lru_cache(maxsize=None)
def _dress(spec: TruncationSpec) -> dict:
    """The factor each readout puts on each row of ``layout(spec)``."""
    rows = layout(spec)
    factorials = np.array([math.factorial(int(n)) for n in rows.degree], dtype=float)
    cvals = np.array([float(constant_c(d)) for d in rows.diagrams])
    return {TAYLOR: np.ones(rows.size), PAIRING_H: 1.0 / factorials, PAIRING_W: cvals / factorials}


def psi_to_c(v: FockVector, pairing: str) -> np.ndarray:
    """Monomial coefficients of the function read out of a Fock vector."""
    return v.array.astype(complex, copy=False).conj() * _dress(v.spec)[pairing]


def c_to_psi(c: np.ndarray, pairing: str, spec: TruncationSpec) -> FockVector:
    return FockVector(spec, (c / _dress(spec)[pairing]).conjugate())


def w_norm_of_c(c: np.ndarray, pairing: str, spec: TruncationSpec) -> float:
    """Weighted norm of the Fock vector represented by the coefficients."""
    psi = c / _dress(spec)[pairing]
    return float(np.sqrt(np.sum(np.abs(psi) ** 2 * layout(spec).gram(GRAM_W))))


# -- generators --------------------------------------------------------------
#
# The kernels take coefficients of shape (size,) or (size, n) and a direction
# that is an EVector or a (dim, n) array, one direction per column.


def _direction(a) -> np.ndarray:
    return np.asarray(a.coords if isinstance(a, EVector) else a, dtype=complex)


def _gather(padded: np.ndarray, weights: np.ndarray, neighbour: np.ndarray, rows: slice,
            power=None) -> np.ndarray:
    """Sum over k of weights[k] (times power[rows, k]) times ``padded`` at
    neighbour[rows, k]; ``padded`` is (size + 1, n) with a zero last row."""
    # (1, n) factors: an (n,) one times a single row runs another numpy loop,
    # whose complex products can differ in the last bit
    factors = weights.reshape(len(weights), 1, -1)
    if power is not None:
        factors = [factor * power[rows, k : k + 1] for k, factor in enumerate(factors)]
    taken = np.take(padded, neighbour[rows].T, axis=0)  # (dim, rows, n)
    out = factors[0] * taken[0]
    out += 0.0  # the -0 of a zero product becomes the +0 of a sum from zero
    for factor, part in zip(factors[1:], taken[1:]):
        out += factor * part
    return out


def _padded(c: np.ndarray, width: int = 1) -> np.ndarray:
    """c as (size + 1, at least ``width``) columns, with a zero last row."""
    flat = c.reshape(len(c), -1)
    out = np.zeros((len(c) + 1, max(flat.shape[1], width)), dtype=complex)
    out[:-1] = flat
    return out


def _single(c: np.ndarray, weights: np.ndarray, neighbour: np.ndarray, power=None):
    out = _gather(_padded(c), weights, neighbour, slice(None), power)
    return out[:, 0] if c.ndim == weights.ndim == 1 else out


def apply_mult_linear(c: np.ndarray, a, spec: TruncationSpec) -> np.ndarray:
    """Multiply by the linear form <x|a>; the top degree's product is dropped."""
    return _single(c, _direction(a).conj(), layout(spec).down)


def apply_derivative(c: np.ndarray, a, spec: TruncationSpec) -> np.ndarray:
    """Directional derivative along a of the polynomial with coefficients c."""
    rows = layout(spec)
    # the source key x^(e + e_k) of key e carries the exponent e_k + 1
    return _single(c, _direction(a), rows.up, rows.exponents + 1)


def _series(c: np.ndarray, weights: np.ndarray, neighbour: np.ndarray, power, spans):
    """Sum of G^m c / m! for the gather G, term m on the rows spans[m - 1]
    alone, up to the first zero term.  The terms share one padded buffer:
    term m reads only rows that term m - 1 was written to."""
    term = _padded(c, weights.shape[-1] if weights.ndim > 1 else 1)
    out = term[:-1].copy()
    for m, span in enumerate(spans, 1):
        new = _gather(term, weights, neighbour, span, power) / m
        if not new.any():
            break
        term[span] = new
        out[span] += new
    return out[:, 0] if c.ndim == weights.ndim == 1 else out


def apply_shift(c: np.ndarray, a, spec: TruncationSpec) -> np.ndarray:
    """Substitute x -> x + a; exact because the derivative flow is nilpotent.
    Term m has degree <= top - m, for the top degree of c."""
    rows = layout(spec)
    top = int(rows.degree[c.reshape(len(c), -1).any(axis=1)].max(initial=0))
    spans = [slice(0, rows.offsets[top - m + 1]) for m in range(1, top + 1)]
    return _series(c, _direction(a), rows.up, rows.exponents + 1, spans)


def apply_exp_mult(c: np.ndarray, a, spec: TruncationSpec) -> np.ndarray:
    """Multiply by exp(<x|a>), truncated at the cap.  Term m has degree >= m."""
    rows = layout(spec)
    spans = [slice(rows.offsets[m], rows.size) for m in range(1, spec.max_degree + 1)]
    return _series(c, _direction(a).conj(), rows.down, None, spans)


def evaluate_c(c: np.ndarray, x: EVector, spec: TruncationSpec) -> complex:
    """Value of the polynomial with monomial coefficients c at the point x."""
    monomials = np.prod(np.asarray(x.coords, dtype=complex) ** layout(spec).exponents, axis=1)
    return complex(c @ monomials)


def _wide_flow(c, spec: TruncationSpec, margin: int, steps):
    """Run (kind, vector) steps on c in a workspace ``margin`` degrees deeper.

    Kinds: "shift" (x -> x + v), "mult" (times exp<x|v>), "scale" (times the
    number v, on the coefficients: on the Fock vector it would be conjugated).
    The steps run on fibres, not on the gather series that the Weyl routes
    are checked against, in three segments.  The lead, before the first
    multiplication, shifts and scales: it never raises degree, so it runs on
    spec.  The trail, after the last shift, multiplies and scales: it never
    lowers degree, so the rows of spec need only the rows of spec, and it runs
    on spec too.  Only the span between them runs ``margin`` degrees deeper,
    for a shift after a multiplication brings the tail that the
    multiplication dropped at the cap down to spec.  The span after its first
    multiplication runs again two degrees shallower, from the state after it
    cut to the shallower rows: a multiplication only raises degree, so a
    shallower run reaches that cut.  If the two runs, each finished by the
    trail, differ on spec by more than 1e-12 relative, the span runs once
    more with twice the margin.  At margin 0, and for a list with no shift
    after a multiplication, every step runs on spec.  Returns the
    coefficients on spec.
    """
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    top = spec.max_degree
    kinds = [kind for kind, _ in steps]
    first = kinds.index("mult") if "mult" in kinds else len(kinds)
    last = len(kinds) - kinds[::-1].index("shift") if "shift" in kinds else 0
    if not margin or first >= last:
        return _flow_at(c, spec, top, steps)
    lead, span, trail = steps[:first], steps[first:last], steps[last:]
    c = _flow_at(c, spec, top, lead)
    depth = top + margin
    # the state on every row of the workspace after the first multiplication
    state = _flow_at(c, spec, depth, span[:1], layout(TruncationSpec(depth, spec.dim)).size)
    out = _flow_at(_flow_at(state, spec, depth, span[1:], len(c)), spec, top, trail)
    shallow = TruncationSpec(max(depth - 2, top), spec.dim)
    probe = _flow_at(state[: layout(shallow).size], spec, shallow.max_degree, span[1:], len(c))
    if np.linalg.norm(out - _flow_at(probe, spec, top, trail)) > 1e-12 * np.linalg.norm(out):
        out = _flow_at(_flow_at(c, spec, depth + margin, span), spec, top, trail)
    return out


def _wide_residual(c, spec: TruncationSpec, margin: int, lhs, rhs, pairing: str) -> float:
    """Weighted norm of the difference of two step lists applied to c."""
    return w_norm_of_c(_wide_flow(c, spec, margin, lhs) - _wide_flow(c, spec, margin, rhs),
                       pairing, spec)


# -- fibre flows --------------------------------------------------------------
#
# A shift and a multiplication by exp<x|a> factor into commuting
# one-coordinate flows.  Along axis k the rows that agree in every exponent
# but e_k form a fibre, and a one-coordinate flow maps every fibre by the same
# triangular matrix.  The flow state stays in the fibre order of the axis it
# last acted on, so each axis step is one gather through a move table and one
# matrix product.


@lru_cache(maxsize=None)
def _fibre_table(spec: TruncationSpec, k: int) -> np.ndarray:
    """The (fibres, max_degree + 1) table of the rows along axis k, by e_k.

    A fibre whose other exponents sum to s has max_degree - s + 1 rows; its
    other cells, the pad cells, hold ``size``.  Every axis has the same
    number of fibres.
    """
    rows = layout(spec)
    radix = spec.max_degree + 1
    # fibre id from the other exponents read as the digits of one number
    key = np.delete(rows.exponents, k, axis=1) @ radix ** np.arange(spec.dim - 1)
    _, fibre = np.unique(key, return_inverse=True)
    # int32 halves the largest caches of the deep workspaces
    table = np.full((fibre.max() + 1, radix), rows.size, dtype=np.int32)
    table[fibre, rows.exponents[:, k]] = np.arange(rows.size)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _move_table(spec: TruncationSpec, source: int | None, target: int | None) -> np.ndarray:
    """Where each cell of layout ``target`` sits in the state of layout ``source``.

    A layout is the fibre order of an axis (the cells of ``_fibre_table``,
    fibre by fibre) or, for None, the row order.  Every state has one slot
    per fibre cell and a last slot that stays zero, which pad cells read.
    int32 like the fibre tables, which halves the cache, although
    ``np.take`` widens it on each step.
    """
    size, cells = layout(spec).size, _fibre_table(spec, 0).size
    where = np.arange(size + 1)
    if source is not None:
        where[_fibre_table(spec, source).ravel()] = np.arange(cells)
    where[size] = cells
    rows = np.arange(size) if target is None else _fibre_table(spec, target).ravel()
    table = where[rows].astype(np.int32)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _fibre_matrices(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|i - j|, and the shift and multiplication matrices at direction 1:
    C(j, i) above the diagonal and 1/(i - j)! below it."""
    cells = np.arange(depth + 1)
    gap = np.abs(np.subtract.outer(cells, cells))
    shift = np.array([[math.comb(j, i) for j in cells] for i in cells], dtype=float)
    factorials = np.array([float(math.factorial(m)) for m in cells])
    return gap, shift, np.tri(depth + 1) / factorials[gap]


def _flow_at(c, spec: TruncationSpec, depth: int, steps, rows: int | None = None):
    """Run the steps of ``_wide_flow`` on the (size,) coefficients c at ``depth``.

    A step acts on the fibres of one axis at a time: a shift by b maps the
    cells of a fibre by C(j, i) b^(j-i), a multiplication by exp<x|a> by
    conj(a)^(i-j) / (i-j)!.  Cells past the cap are never read again, so the
    product is truncated at the cap as the gather series truncates it.
    Returns the coefficients on the first ``rows`` rows (default len(c)).
    """
    wide = TruncationSpec(max(depth, spec.max_degree), spec.dim)
    gap, shift, mult = _fibre_matrices(wide.max_degree)
    fibres, radix = _fibre_table(wide, 0).shape
    x = np.zeros(fibres * radix + 1, dtype=complex)  # the last cell stays zero
    x[: len(c)] = c
    cells = x[:-1].reshape(fibres, radix)
    gathered = np.empty_like(cells)
    axis = None  # the layout x is in; None is the row order
    for kind, vec in steps:
        if kind == "scale":
            x *= complex(vec)
            continue
        if kind not in ("shift", "mult"):
            raise ValueError(f"unknown flow step {kind!r}")
        z = _direction(vec)
        if kind == "mult":
            z = z.conj()
        unit = shift if kind == "shift" else mult
        for k in np.flatnonzero(z):
            matrix = unit * (z[k] ** np.arange(radix))[gap]
            # "clip" lets take write straight into out; every index is in range
            np.take(x, _move_table(wide, axis, k), out=gathered.reshape(-1), mode="clip")
            np.matmul(gathered, matrix.T, out=cells)
            axis = k
    return np.take(x, _move_table(wide, axis, None)[: rows or len(c)])
