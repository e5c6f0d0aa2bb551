"""Creation/annihilation operators and their exponential groups.

Operators are stored as dense blocks between degree subspaces; a block acts
on the rows of one degree of the workspace layout.  Adjoints are computed
from the block matrices and the diagonal Gram of the chosen inner product.
Both annihilation exponentials are Gram adjoints of ``exp_creation``, the
variant picking the Gram; ``annihilation_monomial`` stays the independent
closed form of the plain-Gram one.
Each creation block is one gather from one amplitude array, through a table
cached per (spec, source degree, order); the creation exponential writes the
blocks of every order into one dict.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock_core import (
    EVector,
    FockVector,
    GRAM_H,
    GRAM_W,
    TruncationSpec,
    layout,
    power_coefficients,
    tensor_power,
)

MONOMIAL = "monomial"
W_ADJOINT = "w_adjoint"
VARIANTS = (MONOMIAL, W_ADJOINT)


def readout(variant: str) -> str:
    """The readout under which the annihilation variant intertwines."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown annihilation variant {variant!r}")
    return GRAM_W if variant == W_ADJOINT else GRAM_H


@dataclass
class OperatorMatrix:
    """Block linear map on the truncated coefficient space.

    ``blocks[(src_degree, tgt_degree)]`` is a dense complex matrix of shape
    (dim tgt, dim src).  Blocks whose target degree would exceed the cap are
    not stored, so a degree-raising operator drops what it pushes past it.
    """

    spec: TruncationSpec
    blocks: dict = field(default_factory=dict)

    @classmethod
    def identity(cls, spec: TruncationSpec) -> "OperatorMatrix":
        """The identity, in a fresh dict of the cached read-only blocks."""
        return cls(spec, dict(_identity_blocks(spec)))

    def apply(self, v: FockVector) -> FockVector:
        """Each block maps the source-degree rows of v into the target-degree rows."""
        if v.spec != self.spec:
            raise ValueError("spec mismatch")
        rows = layout(self.spec)
        x = v.array.astype(complex, copy=False)
        live = v.degrees()
        out = np.zeros(rows.size, dtype=complex)
        for (src, tgt), block in self.blocks.items():
            if src in live:
                out[rows.rows(tgt)] += block @ x[rows.rows(src)]
        return FockVector(self.spec, out)

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self after other."""
        if self.spec != other.spec:
            raise ValueError("spec mismatch")
        by_src: dict = {}
        for (mid, tgt), b_self in self.blocks.items():
            by_src.setdefault(mid, []).append((tgt, b_self))
        blocks: dict = {}
        for (src, mid), b_other in other.blocks.items():
            for tgt, b_self in by_src.get(mid, ()):
                acc = blocks.get((src, tgt))
                prod = b_self @ b_other
                blocks[(src, tgt)] = prod if acc is None else acc + prod
        return OperatorMatrix(self.spec, blocks)

    def max_block_difference(self, other: "OperatorMatrix") -> float:
        """Largest entry-wise deviation between two operators."""
        gaps = (np.abs(self.blocks.get(k, 0) - other.blocks.get(k, 0)).max(initial=0.0)
                for k in set(self.blocks) | set(other.blocks))
        return float(max(gaps, default=0.0))


@lru_cache(maxsize=None)
def _identity_blocks(spec: TruncationSpec) -> dict:
    blocks = {}
    for n, size in enumerate(np.diff(layout(spec).offsets)):
        blocks[(n, n)] = np.eye(size, dtype=complex)
        blocks[(n, n)].flags.writeable = False
    return blocks


@lru_cache(maxsize=None)
def _gather_table(spec: TruncationSpec, src: int, m: int) -> np.ndarray:
    """Amplitude rows read by creation block (src, src+m): entry [i, j] is
    the ``layout(spec)`` row of the degree-m key whose exponents are target
    key i's minus source key j's, or ``layout(spec).size`` (an appended zero)
    where that difference has a negative exponent.
    """
    rows = layout(spec)
    exps = rows.exponents
    diff = exps[rows.rows(src + m), None] - exps[None, rows.rows(src)]
    inside = (diff >= 0).all(axis=2)
    table = np.full(inside.shape, rows.size, dtype=np.intp)
    table[inside] = rows.find(diff[inside])
    table.flags.writeable = False
    return table


def _creation_blocks(a: EVector, spec: TruncationSpec, lo: int, hi: int,
                     scaled: bool = False) -> dict:
    """Blocks (src, src+m) of creation(a, m) for m = lo..hi within the cap,
    order by order; ``scaled`` divides order m by m!.  Each block is one
    gather from one amplitude array."""
    if a.dim != spec.dim:
        raise ValueError("dimension mismatch")
    hi = min(hi, spec.max_degree)
    if lo > hi or not any(a.coords):
        return {}
    rows = layout(spec)
    amp = np.zeros(rows.size + 1, dtype=complex)
    # accumulating into zeros maps a -0.0 amplitude to +0.0
    amp[:-1] += power_coefficients(a, spec, lo, hi).astype(complex, copy=False)
    if scaled:
        for m in range(lo, hi + 1):
            amp[rows.rows(m)] = (1.0 / math.factorial(m)) * amp[rows.rows(m)]
    return {(src, src + m): amp[_gather_table(spec, src, m)]
            for m in range(lo, hi + 1) for src in range(spec.max_degree - m + 1)}


def creation(a: EVector, m: int, spec: TruncationSpec) -> OperatorMatrix:
    """Degree-raising symmetric multiplication by the m-th tensor power of a.

    Blocks that would land beyond the degree cap are dropped.
    The action on a degree-(n-m) monomial equals the m-th t-derivative of
    (x + t a)^(tensor n) at t = 0, rescaled by (n-m)!/n!.
    """
    if m < 1:
        raise ValueError("order m must be >= 1")
    return OperatorMatrix(spec, _creation_blocks(a, spec, m, m))


def adjoint(kind: str, T: OperatorMatrix) -> OperatorMatrix:
    """Unique operator S with <T psi | phi> = <psi | S phi> for the given Gram."""
    out = OperatorMatrix(T.spec)
    rows = layout(T.spec)
    gram = rows.gram(kind)
    for (src, tgt), block in T.blocks.items():
        g_src, g_tgt = gram[rows.rows(src)], gram[rows.rows(tgt)]
        out.blocks[(tgt, src)] = (block.conj().T * g_tgt[None, :]) / g_src[:, None]
    return out


def annihilation_monomial(
    a: EVector, m: int, x: EVector, n: int, spec: TruncationSpec
) -> FockVector:
    """Closed-form annihilation on a monomial: <x|a>^m times x^(tensor n-m)."""
    if m > n:
        raise ValueError("annihilation order exceeds monomial degree")
    scalar = x.inner(a) ** m
    return tensor_power(x, n - m, spec).scale(scalar)


def exp_creation(a: EVector, spec: TruncationSpec) -> OperatorMatrix:
    """Exponential creation group element: sum of creation(a, m)/m!.

    Maps the coherent vector of x to the coherent vector of x + a exactly on
    every degree inside the truncation (creation only raises degree, so no
    dropped block feeds back below the cap).
    """
    op = OperatorMatrix.identity(spec)
    op.blocks.update(_creation_blocks(a, spec, 1, spec.max_degree, scaled=True))
    return op


def exp_annihilation(a: EVector, spec: TruncationSpec, variant: str) -> OperatorMatrix:
    """Exponential annihilation group element: the adjoint of ``exp_creation``
    in the Gram of the variant's ``readout``.

    ``monomial`` (plain Gram) is the series over m of ``annihilation_monomial``
    at order m over m!; ``w_adjoint`` (weighted Gram) is the true adjoint.
    The two differ; a pinned witness lives in the test suite.
    """
    return adjoint(readout(variant), exp_creation(a, spec))


# -- raw binary export ------------------------------------------------------
#
# Layout: magic b"FKOP", uint32 version=1, uint32 max_degree, uint32 dim,
# uint32 block count; then per block uint32 src, uint32 tgt, uint32 rows,
# uint32 cols followed by rows*cols little-endian float64 (re, im) pairs in
# row-major order.  Blocks are written sorted by (src, tgt).

_MAGIC = b"FKOP"


def export_blocks(op: OperatorMatrix, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", 1, op.spec.max_degree, op.spec.dim))
        fh.write(struct.pack("<I", len(op.blocks)))
        for (src, tgt) in sorted(op.blocks):
            block = op.blocks[(src, tgt)]
            fh.write(struct.pack("<IIII", src, tgt, *block.shape))
            fh.write(np.ascontiguousarray(block, dtype="<c16").tobytes())


def load_blocks(path) -> OperatorMatrix:
    """Read a file written by ``export_blocks``; a malformed one raises ValueError.

    Block shapes must match the degree-basis sizes binomial(n+dim-1, n), and
    the file must end with the last block.
    """
    with open(path, "rb") as fh:

        def read(size: int, what: str) -> bytes:
            chunk = fh.read(size)
            if len(chunk) != size:
                raise ValueError(f"truncated operator block file: {what} has {len(chunk)} "
                                 f"of {size} bytes")
            return chunk

        if read(4, "magic") != _MAGIC:
            raise ValueError("not an operator block file")
        version, max_degree, dim, count = struct.unpack("<IIII", read(16, "file header"))
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        spec = TruncationSpec(max_degree, dim)
        if count > (max_degree + 1) ** 2:
            raise ValueError(f"block count {count} exceeds the degree pairs of {spec}")
        blocks = {}
        for _ in range(count):
            src, tgt, rows, cols = struct.unpack("<IIII", read(16, "block header"))
            if max(src, tgt) > max_degree or (src, tgt) in blocks:
                raise ValueError(f"degree pair ({src}, {tgt}) is outside {spec} or repeated")
            shape = (math.comb(tgt + dim - 1, tgt), math.comb(src + dim - 1, src))
            if (rows, cols) != shape:
                raise ValueError(f"block ({src}, {tgt}) has shape {(rows, cols)}, not {shape}")
            raw = np.frombuffer(read(rows * cols * 16, f"block ({src}, {tgt})"), dtype="<c16")
            blocks[(src, tgt)] = raw.reshape(rows, cols).astype(complex)
        if fh.read(1):
            raise ValueError("trailing bytes after the last block")
    return OperatorMatrix(spec, blocks)
