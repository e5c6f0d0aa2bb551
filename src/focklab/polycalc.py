"""Dense coefficient calculus behind the Hardy-space function operations.

A function on the one-particle space is held as a dense vector of monomial
coefficients over the canonical key order.  Three "dressings" translate a
Fock vector into monomial coefficients:

  taylor : c = conj(psi)                       (homogeneous polynomial reading)
  h      : c = conj(psi) / degree!             (coherent-kernel reading, plain Gram)
  w      : c = conj(psi) * C / degree!         (coherent-kernel reading, weighted Gram)

Shifts, multiplications and derivatives are literal polynomial operations
on the coefficients, exact up to roundoff inside the truncation, by two
routes that the suites check against each other.  The public kernels sum the
exponential series of the generator by neighbour gathers; single operations,
the series oracles and the quadrature run on them.  The step lists of
``_wide_flow`` (the Weyl operators and their residuals) run on fibres, one
small triangular matrix per coordinate.  Every kernel returns the coefficient
array alone and drops what a product pushes past the cap; the wide flows
guard against that loss with their margin and tail probe, and building a
vector beyond the cap raises ``TruncationOverflowError``.
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
    """Gather tables and readout dressings for one truncation workspace.

    Rows are those of ``fock_core.layout(spec)``.  The neighbour tables come
    from exponent vectors alone; the dressings need the diagram of each row
    and are built on first use.  The deep workspaces of ``_wide_flow`` run on
    ``_fibre_table`` and build neither.
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


def apply_mult_linear(c: np.ndarray, a, spec: TruncationSpec) -> np.ndarray:
    """Multiply by the linear form <x|a>; the top degree's product is dropped."""
    return _gather(c, _direction(a).conj(), table(spec).down)


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


def apply_exp_mult(c: np.ndarray, a, spec: TruncationSpec) -> np.ndarray:
    """Multiply by exp(<x|a>), truncated at the cap."""
    out = c.copy()
    term = c
    for m in range(1, spec.max_degree + 1):
        term = apply_mult_linear(term, a, spec) / m
        if not term.any():
            break
        out = out + term
    return out


def evaluate_c(c: np.ndarray, x: EVector, spec: TruncationSpec) -> complex:
    """Value of the polynomial with monomial coefficients c at the point x."""
    monomials = np.prod(np.asarray(x.coords, dtype=complex) ** layout(spec).exponents, axis=1)
    return complex(c @ monomials)


def _wide_flow(c, spec: TruncationSpec, margin: int, steps):
    """Run (kind, vector) steps on c in a workspace ``margin`` degrees deeper.

    Kinds: "shift" (x -> x + v), "mult" (times exp<x|v>), "scale" (times the
    number v, on the coefficients: on the Fock vector it would be conjugated).
    The steps run on fibres, not on the gather series that the Weyl routes
    are checked against.  A shift after a multiplication brings the tail
    that the multiplication dropped at the cap down to spec, so such steps
    run again two degrees shallower; if the two runs differ on spec by more
    than 1e-12 relative, the steps run once more with twice the margin.
    Returns the coefficients on spec.
    """
    depth = spec.max_degree + margin
    out = _flow_at(c, spec, depth, steps)
    kinds = [kind for kind, _ in steps]
    if margin and "mult" in kinds and "shift" in kinds[kinds.index("mult") :]:
        probe = _flow_at(c, spec, depth - 2, steps)
        if np.linalg.norm(out - probe) > 1e-12 * np.linalg.norm(out):
            out = _flow_at(c, spec, depth + margin, steps)
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
# triangular matrix: one gather, one matrix product and one scatter.


@lru_cache(maxsize=None)
def _fibre_table(spec: TruncationSpec, k: int) -> np.ndarray:
    """The (fibres, max_degree + 1) table of the rows along axis k, by e_k.

    A fibre whose other exponents sum to s has max_degree - s + 1 rows; its
    other cells hold ``size``, the row of an appended zero, so the mass that a
    multiplication pushes past the cap falls there and is dropped.
    """
    rows = layout(spec)
    radix = spec.max_degree + 1
    # fibre id from the other exponents read as the digits of one number
    key = np.delete(rows.exponents, k, axis=1) @ radix ** np.arange(spec.dim - 1)
    _, fibre = np.unique(key, return_inverse=True)
    # int32 halves the largest cache of the deep workspaces, at the cost of
    # numpy widening the index on every gather and scatter
    table = np.full((fibre.max() + 1, radix), rows.size, dtype=np.int32)
    table[fibre, rows.exponents[:, k]] = np.arange(rows.size)
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


def _flow_at(c, spec: TruncationSpec, depth: int, steps):
    """Run the steps of ``_wide_flow`` on the (size,) coefficients c at ``depth``.

    A step acts on the fibres of one axis at a time: a shift by b maps the
    cells of a fibre by C(j, i) b^(j-i), a multiplication by exp<x|a> by
    conj(a)^(i-j) / (i-j)!.  Cells past the cap are the zero row, so the
    product is truncated at the cap as the gather series truncates it.
    Returns the coefficients on spec.
    """
    wide = TruncationSpec(max(depth, spec.max_degree), spec.dim)
    gap, shift, mult = _fibre_matrices(wide.max_degree)
    size = layout(wide).size
    x = np.zeros(size + 1, dtype=complex)  # the last row is the zero row
    x[: len(c)] = c
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
            matrix = unit * (z[k] ** np.arange(len(unit)))[gap]
            pad = _fibre_table(wide, k)
            x[pad] = x[pad] @ matrix.T
            x[size] = 0
    return x[: len(c)]
