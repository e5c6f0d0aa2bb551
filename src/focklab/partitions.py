"""Young diagrams, canonical index tuples, and exact combinatorial weights.

A basis tensor of the truncated symmetric algebra is labelled by a pair
(diagram, indices): the diagram lists the exponents in weakly decreasing
order and the index tuple says which coordinate each exponent sits on.
All weights are computed with big-integer factorials and returned as
``fractions.Fraction``; callers convert to float at the boundary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

_LABEL = re.compile(r"λ=\[([0-9,]*)\];ι=\[([0-9,]*)\]")


@dataclass(frozen=True)
class YoungDiagram:
    """Weakly decreasing tuple of positive integers; ``()`` is the empty diagram."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"diagram parts must be positive, got {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"diagram parts must be weakly decreasing, got {parts}")

    def weight(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        # the empty diagram is counted as having length 1
        return max(len(self.parts), 1)

    def factorial(self) -> int:
        """Product of the factorials of the parts."""
        out = 1
        for p in self.parts:
            out *= math.factorial(p)
        return out

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


@dataclass(frozen=True)
class IndexTuple:
    """Pairwise distinct positive coordinate indices, one per diagram part."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        indices = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        if any(i < 1 for i in indices):
            raise ValueError(f"indices must be positive, got {indices}")
        if len(set(indices)) != len(indices):
            raise ValueError(f"indices must be pairwise distinct, got {indices}")

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True)
class BasisKey:
    """Canonical label of one symmetric basis tensor.

    Canonical form: the index tuple has the same length as the diagram and,
    inside every run of equal diagram parts, indices strictly increase.  This
    makes each unordered tensor correspond to exactly one key, so coefficient
    bookkeeping (multinomial expansions, products) never double counts.
    """

    diagram: YoungDiagram
    tuple: IndexTuple

    def __post_init__(self):
        parts = self.diagram.parts
        idx = self.tuple.indices
        if len(parts) != len(idx):
            raise ValueError(f"diagram {parts} and indices {idx} differ in length")
        for i in range(1, len(parts)):
            if parts[i - 1] == parts[i] and not idx[i - 1] < idx[i]:
                raise ValueError(
                    f"indices must increase within equal parts: {parts} / {idx}"
                )

    @classmethod
    def make(cls, parts, indices) -> "BasisKey":
        return cls(YoungDiagram(tuple(parts)), IndexTuple(tuple(indices)))

    @classmethod
    def vacuum(cls) -> "BasisKey":
        return cls(YoungDiagram(), IndexTuple())

    @classmethod
    def from_exponents(cls, exponents) -> "BasisKey":
        """Build the canonical key for an exponent vector (1-based indices)."""
        pairs = [(e, i + 1) for i, e in enumerate(exponents) if e > 0]
        pairs.sort(key=lambda t: (-t[0], t[1]))
        return cls.make([p for p, _ in pairs], [i for _, i in pairs])

    def exponents(self, dim: int) -> tuple[int, ...]:
        """Dense exponent vector of length ``dim``."""
        out = [0] * dim
        for p, i in zip(self.diagram.parts, self.tuple.indices):
            if i > dim:
                raise ValueError(f"index {i} exceeds dimension {dim}")
            out[i - 1] = p
        return tuple(out)

    def degree(self) -> int:
        return self.diagram.weight()

    def max_index(self) -> int:
        return max(self.tuple.indices, default=0)

    def label(self) -> str:
        parts = ",".join(str(p) for p in self.diagram.parts)
        idx = ",".join(str(i) for i in self.tuple.indices)
        return f"λ=[{parts}];ι=[{idx}]"

    @classmethod
    def from_label(cls, text: str) -> "BasisKey":
        match = _LABEL.fullmatch(text)
        if match is None:
            raise ValueError(f"malformed basis key label {text!r}")
        parts, idx = ([int(x) for x in group.split(",") if x] for group in match.groups())
        return cls.make(parts, idx)


@lru_cache(maxsize=None)
def constant_c(diagram: YoungDiagram) -> Fraction:
    """Weight constant (length-1)! * weight! / (length-1+weight)!; always <= 1."""
    n = diagram.weight()
    l = diagram.length()
    return Fraction(math.factorial(l - 1) * math.factorial(n), math.factorial(l - 1 + n))


@lru_cache(maxsize=None)
def h_norm_sq(diagram: YoungDiagram) -> Fraction:
    """Squared plain-Fock norm of a basis tensor: diagram!/weight!."""
    return Fraction(diagram.factorial(), math.factorial(diagram.weight()))


@lru_cache(maxsize=None)
def w_norm_sq(diagram: YoungDiagram) -> Fraction:
    """Squared weighted-Fock norm: constant_c * h_norm_sq."""
    return constant_c(diagram) * h_norm_sq(diagram)


@lru_cache(maxsize=None)
def enumerate_keys(max_degree: int, dim: int) -> tuple[BasisKey, ...]:
    """All canonical keys with degree <= max_degree and indices <= dim.

    The order is total and deterministic: by degree, then lexicographically
    by the sorted index multiset.  The count at degree n is binomial(n+dim-1, n).
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {max_degree}")
    keys = []
    for n in range(max_degree + 1):
        for combo in combinations_with_replacement(range(1, dim + 1), n):
            exps = [0] * dim
            for i in combo:
                exps[i - 1] += 1
            keys.append(BasisKey.from_exponents(exps))
    return tuple(keys)


@lru_cache(maxsize=None)
def degree_keys(degree: int, dim: int) -> tuple[BasisKey, ...]:
    """Canonical keys of one fixed degree, in enumeration order."""
    all_keys = enumerate_keys(degree, dim)
    return tuple(k for k in all_keys if k.degree() == degree)


def partitions_of(n: int):
    """Yield all weakly decreasing part tuples summing to n."""
    if n == 0:
        yield ()
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def all_diagrams(max_weight: int) -> list[YoungDiagram]:
    """Every diagram with weight <= max_weight (no index restriction)."""
    out = []
    for n in range(max_weight + 1):
        for parts in partitions_of(n):
            out.append(YoungDiagram(parts))
    return out
