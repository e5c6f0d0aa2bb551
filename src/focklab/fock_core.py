"""Truncated model of the weighted symmetric Fock space.

Vectors are sparse maps from canonical basis keys to coefficients.  Two
inner products are carried side by side: the plain symmetric-tensor Gram
("h") and the weighted Gram ("w") obtained by rescaling each basis norm
with the diagram's weight constant.  Coefficients may be floats/complex
(default) or ``fractions.Fraction`` for exact combinatorial checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

from .partitions import (
    BasisKey,
    YoungDiagram,
    enumerate_keys,
    h_norm_sq,
    w_norm_sq,
)

GRAM_W = "w"
GRAM_H = "h"
_GRAMS = (GRAM_W, GRAM_H)


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


def _conj(z):
    return z.conjugate() if hasattr(z, "conjugate") else z


def _is_zero(z) -> bool:
    return z == 0


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


@dataclass
class FockVector:
    """Sparse element of the truncated symmetric algebra.

    Subclasses tag the model a vector belongs to: arithmetic keeps the type
    of its operands and refuses to mix two models.
    """

    spec: TruncationSpec
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, value in self.coeffs.items():
            if not self.spec.contains(key):
                raise TruncationOverflowError(f"key {key.label()} outside {self.spec}")
            if not _is_zero(value):
                clean[key] = value
        self.coeffs = clean

    @classmethod
    def vacuum(cls, spec: TruncationSpec, value=1.0) -> "FockVector":
        return cls(spec, {BasisKey.vacuum(): value})

    @classmethod
    def zero(cls, spec: TruncationSpec) -> "FockVector":
        return cls(spec, {})

    @classmethod
    def basis(cls, spec: TruncationSpec, key: BasisKey, value=1.0) -> "FockVector":
        return cls(spec, {key: value})

    def degrees(self) -> set[int]:
        return {k.degree() for k in self.coeffs}

    def degree_component(self, n: int) -> "FockVector":
        return type(self)(
            self.spec, {k: v for k, v in self.coeffs.items() if k.degree() == n}
        )

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def __add__(self, other: "FockVector") -> "FockVector":
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        if self.spec != other.spec:
            raise ValueError("spec mismatch")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return type(self)(self.spec, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, s) -> "FockVector":
        return type(self)(self.spec, {k: s * v for k, v in self.coeffs.items()})

    def norm_sq(self, kind: str):
        return inner(kind, self, self)

    def norm(self, kind: str) -> float:
        value = self.norm_sq(kind)
        return math.sqrt(float(value.real if hasattr(value, "real") else value))

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

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
    """Inner product; linear in the first argument, conjugated in the second."""
    if psi.spec != phi.spec:
        raise ValueError("spec mismatch")
    if kind not in _GRAMS:
        raise ValueError(f"unknown inner product kind {kind!r}")
    total = 0
    small, large = psi.coeffs, phi.coeffs
    for key, value in small.items():
        other = large.get(key)
        if other is None:
            continue
        weight = norm_sq(kind, key.diagram)
        term = value * _conj(other)
        if isinstance(term, Fraction) or (
            isinstance(value, Fraction) and isinstance(other, Fraction)
        ):
            total += term * weight
        else:
            total += term * float(weight)
    return total


def _multinomial(n: int, diagram: YoungDiagram) -> int:
    return math.factorial(n) // diagram.factorial()


def tensor_power(x: EVector, n: int, spec: TruncationSpec) -> FockVector:
    """n-fold tensor power of x, expanded over canonical keys.

    The coefficient on key (diagram, indices) is (n!/diagram!) times the
    monomial in the coordinates of x selected by the key.
    """
    if n > spec.max_degree:
        raise TruncationOverflowError(f"degree {n} exceeds cap {spec.max_degree}")
    if x.dim != spec.dim:
        raise ValueError("dimension mismatch")
    if n == 0:
        one = Fraction(1) if any(isinstance(c, Fraction) for c in x.coords) else 1.0
        return FockVector.vacuum(spec, one)
    support = [i for i, c in enumerate(x.coords) if not _is_zero(c)]
    if not support:
        return FockVector.zero(spec)
    coeffs = {}
    for key, factors, multinomial in _power_terms(n, tuple(support), spec.dim):
        mono = 1
        for pos, count in factors:
            mono = mono * x.coords[pos] ** count
        coeffs[key] = mono * multinomial
    return FockVector(spec, coeffs)


@lru_cache(maxsize=None)
def _power_terms(n: int, support: tuple[int, ...], dim: int) -> tuple:
    """(key, ((position, count), ...), n!/diagram!) for each degree-n monomial on ``support``."""
    out = []
    for combo in _compositions(n, len(support)):
        exps = [0] * dim
        for count, pos in zip(combo, support):
            exps[pos] = count
        key = BasisKey.from_exponents(exps)
        factors = tuple((pos, count) for count, pos in zip(combo, support) if count)
        out.append((key, factors, _multinomial(n, key.diagram)))
    return tuple(out)


@lru_cache(maxsize=None)
def _compositions(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k == 1:
        return ((n,),)
    out = []
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            out.append((first,) + rest)
    return tuple(out)


def exponential_vector(x: EVector, spec: TruncationSpec) -> FockVector:
    """Coherent vector: degree-n component is the n-th tensor power over n!.

    Equivalently the coefficient on each key is the key's monomial in x
    divided by the diagram factorial.
    """
    out = FockVector.zero(spec)
    for n in range(spec.max_degree + 1):
        part = tensor_power(x, n, spec)
        scale = Fraction(1, math.factorial(n)) if _rational(part) else 1.0 / math.factorial(n)
        out = out + part.scale(scale)
    return out


def _rational(v: FockVector) -> bool:
    return any(isinstance(c, Fraction) for c in v.coeffs.values())


def symmetric_product(phi: FockVector, psi: FockVector) -> FockVector:
    """Symmetric product; on basis keys it merges the exponent multisets.

    With the canonical-key normalisation the bilinear extension needs no
    extra combinatorial factor: the identity x^(tensor m) * x^(tensor k)
    = x^(tensor m+k) then holds exactly (a Vandermonde convolution).
    """
    if phi.spec != psi.spec:
        raise ValueError("spec mismatch")
    spec = phi.spec
    out = {}
    for k1, v1 in phi.coeffs.items():
        e1 = k1.exponents(spec.dim)
        for k2, v2 in psi.coeffs.items():
            if k1.degree() + k2.degree() > spec.max_degree:
                raise TruncationOverflowError(
                    f"product degree {k1.degree() + k2.degree()} exceeds cap"
                )
            e2 = k2.exponents(spec.dim)
            merged = BasisKey.from_exponents(tuple(a + b for a, b in zip(e1, e2)))
            out[merged] = out.get(merged, 0) + v1 * v2
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
    total = FockVector.zero(spec)
    for signs in iter_product((1, -1), repeat=n):
        coords = [0] * spec.dim
        for s, index in zip(signs, directions):
            coords[index - 1] += s
        a = EVector(tuple(one * c for c in coords))
        sign = 1
        for s in signs:
            sign *= s
        total = total + tensor_power(a, n, spec).scale(sign)
    denom = (2**n) * math.factorial(n)
    factor = Fraction(1, denom) if exact else 1.0 / denom
    return total.scale(factor)


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
        mono = 1
        for part, index in zip(key.diagram.parts, key.tuple.indices):
            mono = mono * x.coords[index - 1] ** part
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
