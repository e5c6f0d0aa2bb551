"""Truncated model of the weighted symmetric Fock space.

A vector is one dense array over the rows of its workspace's ``layout``.
Two inner products are carried side by side: the plain symmetric-tensor Gram
("h") and the weighted Gram ("w") obtained by rescaling each basis norm with
the diagram's weight constant.  Coefficients are complex, or ``Fraction``
for exact combinatorial checks.  Keys appear only at the boundaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from types import MappingProxyType

import numpy as np

from .partitions import (
    BasisKey,
    YoungDiagram,
    enumerate_keys,
    h_norm_sq,
    w_norm_sq,
)

GRAM_W = "w"
GRAM_H = "h"


class TruncationOverflowError(ValueError):
    """A construction would exceed the degree cap of the workspace."""


@dataclass(frozen=True)
class TruncationSpec:
    """Finite workspace: degrees 0..max_degree over coordinates 1..dim."""

    max_degree: int
    dim: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def keys(self) -> tuple[BasisKey, ...]:
        return enumerate_keys(self.max_degree, self.dim)

    def contains(self, key: BasisKey) -> bool:
        return key.degree() <= self.max_degree and key.max_index() <= self.dim


def norm_sq(kind: str, diagram: YoungDiagram) -> Fraction:
    """Squared Gram weight of a basis tensor under the chosen inner product."""
    if kind == GRAM_W:
        return w_norm_sq(diagram)
    if kind == GRAM_H:
        return h_norm_sq(diagram)
    raise ValueError(f"unknown inner product kind {kind!r}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Layout:
    """The rows of one workspace, in ``enumerate_keys`` order: by degree, so
    they are the first rows of any deeper workspace of the same dimension.

    Every lookup of a row goes through ``find``.  Exponents, degrees, keys, the
    sorted rows, the neighbour tables ``up`` and ``down``, row diagrams and Gram
    weights are built on first use; everything cached is read-only.
    """

    def __init__(self, spec: TruncationSpec):
        self.spec = spec
        # rows below degree n: the monomials of degree < n in dim variables
        self.offsets = tuple(math.comb(n - 1 + spec.dim, spec.dim)
                             for n in range(spec.max_degree + 2))
        self.size = self.offsets[-1]

    def rows(self, n: int) -> slice:
        """Rows of the degree-n keys; empty outside 0..max_degree."""
        if not 0 <= n <= self.spec.max_degree:
            return slice(0, 0)
        return slice(self.offsets[n], self.offsets[n + 1])

    @cached_property
    def exponents(self) -> np.ndarray:
        """Each degree block in descending lexicographic order, built one
        variable at a time: the degree-n rows of j + 1 variables are e_0 = n - s
        beside each row of degree s <= n of the last j, in that table's order."""
        top = self.spec.max_degree
        table = np.arange(top + 1, dtype=np.int64)[:, None]
        for j in range(1, self.spec.dim):
            counts = np.array([math.comb(n + j, j) for n in range(top + 1)])
            degree = np.repeat(np.arange(top + 1), counts)
            rest = table[np.arange(degree.size) - np.repeat(np.cumsum(counts) - counts, counts)]
            table = np.column_stack([degree - rest.sum(axis=1), rest])
        return _read_only(table)

    @cached_property
    def degree(self) -> np.ndarray:
        return _read_only(self.exponents.sum(axis=1))

    @cached_property
    def keys(self) -> tuple[BasisKey, ...]:
        return enumerate_keys(self.spec.max_degree, self.spec.dim)

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows as opaque byte strings, sorted, and the row of each."""
        known = self.exponents.view(f"V{8 * self.spec.dim}").ravel()
        order = np.argsort(known)
        return known[order], order

    def find(self, exponents) -> np.ndarray:
        """The row of each exponent vector along the last axis, keeping the
        leading shape; ``size`` (the row of an appended zero) for a vector
        that is not a row: one with a negative entry or past the cap."""
        exponents = np.asarray(exponents, dtype=np.int64)
        if exponents.shape[-1:] != (self.spec.dim,):
            raise ValueError(f"exponent vectors of shape {exponents.shape} do not fit {self.spec}")
        known, order = self._sorted
        wanted = np.ascontiguousarray(exponents).view(known.dtype).ravel()
        at = np.minimum(np.searchsorted(known, wanted), self.size - 1)
        return np.where(known[at] == wanted, order[at], self.size).reshape(exponents.shape[:-1])

    def _neighbours(self, sign: int) -> np.ndarray:
        """Column k holds the row of each row's exponents plus sign * e_k."""
        steps = sign * np.eye(self.spec.dim, dtype=np.int64)
        # one axis at a time: a search over all axes at once builds slower
        return _read_only(np.stack([self.find(self.exponents + step) for step in steps], axis=1))

    @cached_property
    def up(self) -> np.ndarray:
        return self._neighbours(1)

    @cached_property
    def down(self) -> np.ndarray:
        return self._neighbours(-1)

    @cached_property
    def diagrams(self) -> tuple[YoungDiagram, ...]:
        """The diagram of each row: its nonzero exponents, largest first."""
        parts = [tuple(p for p in row if p) for row in (-np.sort(-self.exponents)).tolist()]
        made = {p: YoungDiagram(p) for p in set(parts)}
        return tuple(made[p] for p in parts)

    @lru_cache(maxsize=None)
    def gram(self, kind: str, exact: bool = False) -> np.ndarray:
        """Gram weight of each row, as floats or as ``Fraction``s."""
        weights = [norm_sq(kind, diagram) for diagram in self.diagrams]
        return _read_only(np.array(weights, dtype=object if exact else float))


@lru_cache(maxsize=None)
def layout(spec: TruncationSpec) -> Layout:
    return Layout(spec)


def _conj(z):
    return z.conjugate() if hasattr(z, "conjugate") else z


def _exact(values) -> bool:
    return any(isinstance(v, Fraction) for v in values)


class EVector:
    """Coordinate vector of the one-particle space (first slot linear)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(coords)

    @classmethod
    def zero(cls, dim: int) -> "EVector":
        return cls((0.0,) * dim)

    @classmethod
    def basis(cls, index: int, dim: int, value=1.0) -> "EVector":
        if not 1 <= index <= dim:
            raise ValueError(f"basis index {index} out of range 1..{dim}")
        return cls(tuple(value if k == index - 1 else 0.0 for k in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def inner(self, other: "EVector"):
        """Pairing sum_k x_k * conj(y_k); linear in self, conjugated in other."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return sum(x * _conj(y) for x, y in zip(self.coords, other.coords))

    def norm_sq(self) -> float:
        return sum(abs(x) ** 2 for x in self.coords)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __add__(self, other: "EVector") -> "EVector":
        return EVector(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "EVector") -> "EVector":
        return EVector(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def scale(self, s) -> "EVector":
        return EVector(tuple(s * x for x in self.coords))

    def __repr__(self):
        return f"EVector({self.coords!r})"


@dataclass(eq=False, init=False)
class FockVector:
    """Element of the truncated symmetric algebra as one read-only array.

    ``array`` runs over the rows of ``layout(spec)``.  The constructor takes
    ``coeffs`` as a map from basis keys to coefficients or as that array.
    The array is complex, or of object dtype holding ``Fraction``s (and ints)
    for exact checks; an object array that picks up anything else is stored
    as complex.  Subclasses tag the model a vector belongs to: arithmetic
    keeps the type of its operands and refuses to mix two models.
    """

    spec: TruncationSpec
    array: np.ndarray

    def __init__(self, spec: TruncationSpec, coeffs=None):
        rows, array = layout(spec), coeffs
        if not isinstance(array, np.ndarray):
            coeffs = coeffs or {}
            for key in coeffs:
                if not spec.contains(key):
                    raise TruncationOverflowError(f"key {key.label()} outside {spec}")
            exponents = np.array([key.exponents(spec.dim) for key in coeffs], dtype=np.int64)
            array = np.zeros(rows.size, dtype=object if _exact(coeffs.values()) else complex)
            array[rows.find(exponents.reshape(-1, spec.dim))] = list(coeffs.values())
        if array.shape != (rows.size,):
            raise ValueError(f"array of shape {array.shape} does not fit {spec}")
        if array.dtype != complex and not (
            array.dtype == object and all(isinstance(v, (Fraction, int)) for v in array)
        ):
            array = array.astype(complex)
        self.spec, self.array = spec, _read_only(array)

    @classmethod
    def vacuum(cls, spec: TruncationSpec, value=1.0) -> "FockVector":
        return cls(spec, {BasisKey.vacuum(): value})

    @classmethod
    def zero(cls, spec: TruncationSpec) -> "FockVector":
        return cls(spec, np.zeros(layout(spec).size, dtype=complex))

    @classmethod
    def basis(cls, spec: TruncationSpec, key: BasisKey, value=1.0) -> "FockVector":
        return cls(spec, {key: value})

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only map from the keys of the nonzero rows to their values."""
        keys = layout(self.spec).keys
        rows = np.flatnonzero(self.array)
        return MappingProxyType(dict(zip((keys[i] for i in rows), self.array[rows].tolist())))

    def degrees(self) -> set[int]:
        return set(layout(self.spec).degree[np.flatnonzero(self.array)].tolist())

    def degree_component(self, n: int) -> "FockVector":
        rows = layout(self.spec).rows(n)
        out = np.zeros_like(self.array)
        out[rows] = self.array[rows]
        return type(self)(self.spec, out)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def __add__(self, other: "FockVector") -> "FockVector":
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        if self.spec != other.spec:
            raise ValueError("spec mismatch")
        return type(self)(self.spec, self.array + other.array)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, s) -> "FockVector":
        return type(self)(self.spec, self.array * s)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.spec == other.spec and bool(np.array_equal(self.array, other.array))

    def norm_sq(self, kind: str):
        return inner(kind, self, self)

    def norm(self, kind: str) -> float:
        return math.sqrt(float(self.norm_sq(kind).real))

    def max_abs_coeff(self):
        return max(np.abs(self.array).tolist(), default=0.0)

    def to_json(self) -> str:
        """Serialize to JSON; rational coefficients round-trip bit exactly."""
        payload = {
            "spec": {"max_degree": self.spec.max_degree, "dim": self.spec.dim},
            "coeffs": {k.label(): _encode_number(c) for k, c in sorted(
                self.coeffs.items(), key=lambda item: item[0].label()
            )},
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "FockVector":
        """Inverse of ``to_json``; a malformed payload raises one ``ValueError``."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"vector payload must be a JSON object, got {payload!r}")
        spec, coeffs = payload.get("spec"), payload.get("coeffs")
        # JSON numbers decode to int or float; true and false to bool
        if not (isinstance(spec, dict)
                and {type(spec.get("max_degree")), type(spec.get("dim"))} == {int}):
            raise ValueError(f"'spec' must hold integer 'max_degree' and 'dim', got {spec!r}")
        if not isinstance(coeffs, dict):
            raise ValueError(f"'coeffs' must map key labels to [re, im] pairs, got {coeffs!r}")
        return cls(
            TruncationSpec(spec["max_degree"], spec["dim"]),
            {BasisKey.from_label(label): _decode_number(label, pair)
             for label, pair in coeffs.items()},
        )


def inner(kind: str, psi: FockVector, phi: FockVector):
    """Inner product; linear in the first argument, conjugated in the second.
    A ``Fraction`` when both vectors are exact."""
    if psi.spec != phi.spec:
        raise ValueError("spec mismatch")
    exact = psi.array.dtype == phi.array.dtype == object
    weights = layout(psi.spec).gram(kind, exact)
    if exact:
        return np.dot(psi.array * np.conjugate(phi.array), weights)
    a, b = psi.array.astype(complex, copy=False), phi.array.astype(complex, copy=False)
    return complex(np.dot(a * b.conj(), weights))


def tensor_power(x: EVector, n: int, spec: TruncationSpec) -> FockVector:
    """n-fold tensor power of x, expanded over canonical keys.

    The coefficient on key (diagram, indices) is (n!/diagram!) times the
    monomial in the coordinates of x selected by the key.
    """
    if n > spec.max_degree:
        raise TruncationOverflowError(f"degree {n} exceeds cap {spec.max_degree}")
    return FockVector(spec, power_coefficients(x, spec, n, n))


@lru_cache(maxsize=None)
def _power_table(lo: int, hi: int, dim: int, live: tuple[int, ...]) -> tuple:
    """The rows of degrees lo..hi that use only the coordinates ``live``, as
    positions after the first degree-lo row of ``layout``; for each live
    coordinate, which of them use it and with what exponent; and n!/e!."""
    rows = layout(TruncationSpec(hi, dim))
    exps = rows.exponents[rows.offsets[lo]:]
    on = np.flatnonzero(~np.delete(exps, live, axis=1).any(axis=1))
    exps = exps[on]
    factors = [(np.flatnonzero(exps[:, k]), exps[exps[:, k] > 0, k]) for k in live]
    multinomial = [math.factorial(sum(e)) // math.prod(map(math.factorial, e))
                   for e in exps.tolist()]
    return on, factors, np.array(multinomial, dtype=object)


def power_coefficients(x: EVector, spec: TruncationSpec, lo: int, hi: int) -> np.ndarray:
    """The tensor powers of x of degrees lo..hi on their rows of ``layout(spec)``.

    A row of degree n >= 1 holds n!/e! times ``math.prod`` of x_k ** e_k over
    its nonzero exponents, or 0 if it uses a zero coordinate.  The products
    run on Python objects, so they round as Python's do (numpy's complex
    product may fuse a multiply-add).
    """
    if x.dim != spec.dim:
        raise ValueError("dimension mismatch")
    rows, exact = layout(spec), _exact(x.coords)
    out = np.zeros(rows.size, dtype=object if exact else complex)
    live = tuple(k for k, c in enumerate(x.coords) if c != 0)
    on, factors, multinomial = _power_table(lo, hi, x.dim, live)
    value = np.ones(len(on), dtype=object)
    for k, (used, exponent) in zip(live, factors):
        powers = np.array([x.coords[k] ** e for e in range(hi + 1)], dtype=object)
        value[used] = value[used] * powers[exponent]
    out[rows.offsets[lo] + on] = value * multinomial
    if lo == 0:
        out[0] = Fraction(1) if exact else 1.0
    return out


def exponential_vector(x: EVector, spec: TruncationSpec) -> FockVector:
    """Coherent vector: degree-n component is the n-th tensor power over n!.

    Equivalently the coefficient on each key is the key's monomial in x
    divided by the diagram factorial.
    """
    exact = _exact(x.coords)
    out = power_coefficients(x, spec, 0, spec.max_degree)
    for n in range(spec.max_degree + 1):
        scale = Fraction(1, math.factorial(n)) if exact else 1.0 / math.factorial(n)
        # 0 + maps -0.0 to +0.0, as in the sum of the degree components
        out[layout(spec).rows(n)] = 0 + out[layout(spec).rows(n)] * scale
    return FockVector(spec, out)


def symmetric_product(phi: FockVector, psi: FockVector) -> FockVector:
    """Symmetric product; on basis keys it merges the exponent multisets.

    With the canonical-key normalisation the bilinear extension needs no
    extra combinatorial factor: the identity x^(tensor m) * x^(tensor k)
    = x^(tensor m+k) then holds exactly (a Vandermonde convolution).
    """
    if phi.spec != psi.spec:
        raise ValueError("spec mismatch")
    spec = phi.spec
    rows = layout(spec)
    out = np.zeros(rows.size, dtype=np.result_type(phi.array, psi.array))
    left, right = np.flatnonzero(phi.array), np.flatnonzero(psi.array)
    left, right = np.repeat(left, len(right)), np.tile(right, len(left))
    merged = rows.find(rows.exponents[left] + rows.exponents[right])
    if (merged == rows.size).any():
        raise TruncationOverflowError(f"product degree exceeds cap {spec.max_degree}")
    for i, j, row in zip(left.tolist(), right.tolist(), merged.tolist()):
        out[row] += phi.array[i] * psi.array[j]
    return FockVector(spec, out)


def polarization(
    diagram: YoungDiagram,
    indices,
    spec: TruncationSpec,
    exact: bool = False,
) -> FockVector:
    """Reconstruct a basis key as a signed sum of n-th tensor powers.

    Uses the standard polarization identity over the n = weight vectors
    obtained by repeating each coordinate direction as many times as its
    exponent.  With ``exact=True`` all arithmetic is rational.
    """
    key = BasisKey.make(diagram.parts, tuple(indices))
    n = diagram.weight()
    if n > spec.max_degree:
        raise TruncationOverflowError("degree exceeds cap")
    if n == 0:
        return FockVector.vacuum(spec, Fraction(1) if exact else 1.0)
    directions = []
    for part, index in zip(key.diagram.parts, key.tuple.indices):
        directions.extend([index] * part)
    one = Fraction(1) if exact else 1.0
    total = 0
    for signs in iter_product((1, -1), repeat=n):
        coords = [0] * spec.dim
        for s, index in zip(signs, directions):
            coords[index - 1] += s
        a = EVector(tuple(one * c for c in coords))
        total = total + tensor_power(a, n, spec).array * math.prod(signs)
    denom = (2**n) * math.factorial(n)
    factor = Fraction(1, denom) if exact else 1.0 / denom
    return FockVector(spec, total * factor)


def hs_polynomial_eval(psi_n: FockVector, x: EVector):
    """Value of the homogeneous Hilbert-Schmidt polynomial attached to psi_n.

    Equals the plain-Gram pairing of the n-th tensor power of x against
    psi_n, i.e. the sum over keys of conj(coefficient) times the key's
    monomial in x; for a unit basis key the value is exactly the monomial.
    """
    if not psi_n.is_homogeneous():
        raise ValueError("input must be homogeneous")
    total = 0
    for key, value in psi_n.coeffs.items():
        mono = math.prod(x.coords[i - 1] ** p for p, i in zip(key.diagram.parts, key.tuple.indices))
        total = total + _conj(value) * mono
    return total


# -- serialization ----------------------------------------------------------

def _encode_number(z):
    if isinstance(z, Fraction):
        return [str(z), "0"]
    z = complex(z)
    return [z.real, z.imag]


def _decode_number(label: str, pair):
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"coefficient of {label!r} must be a [re, im] pair, got {pair!r}")
    re, im = pair
    if isinstance(re, str):
        if im not in ("0", "0/1"):
            raise ValueError(f"coefficient of {label!r}: rational coefficients must be real")
        return Fraction(re)
    if not {type(re), type(im)} <= {int, float}:
        raise ValueError(f"coefficient of {label!r} must hold two numbers, got {pair!r}")
    if im == 0:
        return float(re)
    return complex(re, im)


to_json = FockVector.to_json
from_json = FockVector.from_json
