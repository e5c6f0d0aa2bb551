"""Creation/annihilation operators, adjoints, and the exponential groups."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from focklab.fock_core import (
    EVector,
    FockVector,
    GRAM_H,
    GRAM_W,
    TruncationSpec,
    exponential_vector,
    layout,
    symmetric_product,
    tensor_power,
)
from focklab.operators import (
    MONOMIAL,
    W_ADJOINT,
    OperatorMatrix,
    adjoint,
    annihilation_monomial,
    creation,
    exp_annihilation,
    exp_creation,
    export_blocks,
    load_blocks,
    readout,
)
from focklab.partitions import BasisKey, degree_keys

SPEC = TruncationSpec(6, 3)


def _rand(rng, dim=3, scale=1.0):
    v = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2)
    return EVector(tuple(map(complex, v)))


def test_creation_basis_action():
    e1 = EVector.basis(1, 3)
    e2 = FockVector.basis(SPEC, BasisKey.make((1,), (2,)))
    out = creation(e1, 1, SPEC).apply(e2)
    assert set(out.coeffs) == {BasisKey.make((1, 1), (1, 2))}
    assert out.coeffs[BasisKey.make((1, 1), (1, 2))] == pytest.approx(1.0)


def test_creation_zero_vector():
    op = creation(EVector.zero(3), 2, SPEC)
    assert op.blocks == {}


def _degree_basis(spec, n):
    return degree_keys(n, spec.dim) if n <= spec.max_degree else ()


def _creation_by_pairs(a, m, spec):
    """Reference assembly: merge every (source key, amplitude key) pair afresh."""
    op = OperatorMatrix(spec)
    if all(c == 0 for c in a.coords):
        return op
    amp = tensor_power(a, m, spec) if m <= spec.max_degree else None
    if amp is not None:
        for src in range(spec.max_degree + 1):
            tgt = src + m
            if tgt > spec.max_degree:
                continue
            src_keys = _degree_basis(spec, src)
            tgt_keys = _degree_basis(spec, tgt)
            tgt_index = {k: i for i, k in enumerate(tgt_keys)}
            block = np.zeros((len(tgt_keys), len(src_keys)), dtype=complex)
            for j, key in enumerate(src_keys):
                exps = key.exponents(spec.dim)
                for akey, aval in amp.coeffs.items():
                    aexp = akey.exponents(spec.dim)
                    merged = BasisKey.from_exponents(tuple(x + y for x, y in zip(exps, aexp)))
                    block[tgt_index[merged], j] += complex(aval)
            op.blocks[(src, tgt)] = block
    return op


@pytest.mark.parametrize("spec", [TruncationSpec(6, 3), TruncationSpec(6, 4),
                                  TruncationSpec(4, 5), TruncationSpec(3, 1)])
def test_creation_equals_pairwise_reference_bitwise(spec):
    rng = np.random.default_rng(9)
    # a signed-zero imaginary part must come out as the loop's +0.0
    signed = EVector((complex(-1.0, -0.0),) + (0.5,) * (spec.dim - 1))
    for a in (_rand(rng, spec.dim), signed, EVector.zero(spec.dim)):
        for m in range(1, spec.max_degree + 2):
            got, want = creation(a, m, spec), _creation_by_pairs(a, m, spec)
            assert list(got.blocks) == list(want.blocks)
            if a.norm() == 0:
                assert got.blocks == {}
            for key, block in want.blocks.items():
                assert got.blocks[key].tobytes() == block.tobytes()


def test_cached_structure_is_read_only():
    rows = layout(SPEC)
    with pytest.raises(ValueError):
        rows.up[0, 0] = 0
    gram = rows.gram(GRAM_W)[rows.rows(2)]
    with pytest.raises(ValueError):
        gram[0] = 1.0
    assert layout(SPEC) is rows and rows.gram(GRAM_W) is rows.gram(GRAM_W)
    assert np.array_equal(gram, [1.0, 1 / 6, 1 / 6, 1.0, 1 / 6, 1.0])
    assert [k.degree() for k in rows.keys[rows.rows(2)]] == [2] * 6


def test_creation_matches_symmetric_product():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = _rand(rng)
        m = int(rng.integers(1, 3))
        psi = tensor_power(_rand(rng), 3, SPEC)
        via_op = creation(a, m, SPEC).apply(psi)
        direct = symmetric_product(tensor_power(a, m, SPEC), psi)
        assert (via_op - direct).norm(GRAM_W) < 1e-10


def test_creation_finite_difference():
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(5):
        a = _rand(rng)
        x = _rand(rng)
        n = int(rng.integers(2, 6))
        created = creation(a, 1, SPEC).apply(tensor_power(x, n - 1, SPEC))
        plus = tensor_power(EVector(tuple(xc + h * ac for xc, ac in zip(x.coords, a.coords))), n, SPEC)
        minus = tensor_power(EVector(tuple(xc - h * ac for xc, ac in zip(x.coords, a.coords))), n, SPEC)
        fd = (plus - minus).scale(math.factorial(n - 1) / math.factorial(n) / (2 * h))
        assert (created - fd).norm(GRAM_W) < 1e-7


def test_adjoint_witness_values():
    e1 = EVector.basis(1, 3)
    target = FockVector.basis(SPEC, BasisKey.make((1, 1), (1, 2)))
    k2 = BasisKey.make((1,), (2,))
    h_out = adjoint(GRAM_H, creation(e1, 1, SPEC)).apply(target)
    w_out = adjoint(GRAM_W, creation(e1, 1, SPEC)).apply(target)
    assert h_out.coeffs[k2] == pytest.approx(0.5)
    assert w_out.coeffs[k2] == pytest.approx(1 / 6)


def test_adjoint_is_involution():
    rng = np.random.default_rng(2)
    op = creation(_rand(rng), 1, SPEC)
    for kind in (GRAM_W, GRAM_H):
        twice = adjoint(kind, adjoint(kind, op))
        assert twice.max_block_difference(op) < 1e-12


def test_adjoint_defining_relation():
    rng = np.random.default_rng(3)
    a = _rand(rng)
    op = creation(a, 1, SPEC)
    for kind in (GRAM_W, GRAM_H):
        adj = adjoint(kind, op)
        for _ in range(5):
            psi = tensor_power(_rand(rng), 2, SPEC)
            phi = tensor_power(_rand(rng), 3, SPEC)
            lhs = _inner(kind, op.apply(psi), phi)
            rhs = _inner(kind, psi, adj.apply(phi))
            assert lhs == pytest.approx(rhs, abs=1e-10)


def _inner(kind, v, w):
    from focklab.fock_core import inner

    return complex(inner(kind, v, w))


def test_annihilation_monomial_examples():
    e1 = EVector.basis(1, 3)
    out = annihilation_monomial(e1, 1, e1, 2, SPEC)
    assert out.coeffs == {BasisKey.make((1,), (1,)): 1.0}
    e2 = EVector.basis(2, 3)
    assert annihilation_monomial(e1, 1, e2, 3, SPEC).coeffs == {}
    both = EVector((1.0, 1.0, 0.0))
    out2 = annihilation_monomial(e1, 1, both, 2, SPEC)
    expect = tensor_power(both, 1, SPEC)
    assert (out2 - expect).max_abs_coeff() < 1e-12
    with pytest.raises(ValueError):
        annihilation_monomial(e1, 3, e1, 2, SPEC)


def test_h_adjoint_agrees_with_monomial_formula():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = _rand(rng)
        x = _rand(rng)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        via = adjoint(GRAM_H, creation(a, m, SPEC)).apply(tensor_power(x, n, SPEC))
        direct = annihilation_monomial(a, m, x, n, SPEC)
        assert (via - direct).norm(GRAM_W) < 1e-10


def test_w_adjoint_differs_from_monomial_formula():
    # pinned counterexample: the two annihilation readings disagree by 1/2 vs 1/6
    e1 = EVector.basis(1, 3)
    target = FockVector.basis(SPEC, BasisKey.make((1, 1), (1, 2)))
    k2 = BasisKey.make((1,), (2,))
    mono = exp_annihilation(e1, SPEC, MONOMIAL).apply(target)
    wadj = exp_annihilation(e1, SPEC, W_ADJOINT).apply(target)
    assert mono.coeffs[k2] == pytest.approx(0.5)
    assert wadj.coeffs[k2] == pytest.approx(1 / 6)


def test_exp_creation_identity_at_zero():
    op = exp_creation(EVector.zero(3), SPEC)
    ident = OperatorMatrix.identity(SPEC)
    assert op.max_block_difference(ident) == 0.0


def test_exp_creation_on_vacuum_and_coherent():
    rng = np.random.default_rng(5)
    a = _rand(rng, scale=0.8)
    out = exp_creation(a, SPEC).apply(FockVector.vacuum(SPEC))
    assert (out - exponential_vector(a, SPEC)).norm(GRAM_W) < 1e-12
    x = _rand(rng, scale=0.8)
    shifted = exp_creation(a, SPEC).apply(exponential_vector(x, SPEC))
    expect = exponential_vector(
        EVector(tuple(xc + ac for xc, ac in zip(x.coords, a.coords))), SPEC
    )
    assert (shifted - expect).norm(GRAM_W) < 1e-10


def test_exponential_group_additivity():
    rng = np.random.default_rng(6)
    a = _rand(rng, scale=0.7)
    b = _rand(rng, scale=0.7)
    combined = exp_creation(EVector(tuple(x + y for x, y in zip(a.coords, b.coords))), SPEC)
    composed = exp_creation(a, SPEC).compose(exp_creation(b, SPEC))
    assert combined.max_block_difference(composed) < 1e-10
    for variant in (MONOMIAL, W_ADJOINT):
        comb = exp_annihilation(
            EVector(tuple(x + y for x, y in zip(a.coords, b.coords))), SPEC, variant
        )
        comp = exp_annihilation(a, SPEC, variant).compose(exp_annihilation(b, SPEC, variant))
        swap = exp_annihilation(b, SPEC, variant).compose(exp_annihilation(a, SPEC, variant))
        assert comb.max_block_difference(comp) < 1e-10
        assert comb.max_block_difference(swap) < 1e-10


def test_exp_annihilation_identity_at_zero():
    for variant in (MONOMIAL, W_ADJOINT):
        op = exp_annihilation(EVector.zero(3), SPEC, variant)
        assert op.max_block_difference(OperatorMatrix.identity(SPEC)) == 0.0


def test_block_export_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    op = exp_creation(_rand(rng), SPEC)
    path = tmp_path / "op.fkop"
    export_blocks(op, path)
    back = load_blocks(path)
    assert back.spec == SPEC
    assert op.max_block_difference(back) == 0.0


def _corrupt_export(tmp_path, edit):
    """Export exp_creation at (3,2), apply ``edit`` to the bytes, and load the result."""
    op = exp_creation(_rand(np.random.default_rng(8), dim=2), TruncationSpec(3, 2))
    path = tmp_path / "op.fkop"
    export_blocks(op, path)
    path.write_bytes(edit(bytearray(path.read_bytes())))
    return load_blocks(path)


# the block count sits at offset 16; the first block header follows it:
# source degree at offset 20, target degree at 24, rows at 28, cols at 32
def _set_u32(offset, value):
    def edit(data):
        data[offset : offset + 4] = value.to_bytes(4, "little")
        return data

    return edit


def test_load_blocks_rejects_trailing_bytes(tmp_path):
    with pytest.raises(ValueError, match="trailing bytes"):
        _corrupt_export(tmp_path, lambda data: data + bytes(8))


def test_load_blocks_rejects_truncated_file(tmp_path):
    with pytest.raises(ValueError, match="truncated"):
        _corrupt_export(tmp_path, lambda data: data[:-1])


def test_load_blocks_rejects_degree_or_count_outside_spec(tmp_path):
    with pytest.raises(ValueError, match="degree pair"):
        _corrupt_export(tmp_path, _set_u32(20, 858993459))
    with pytest.raises(ValueError, match="block count"):
        _corrupt_export(tmp_path, _set_u32(16, 17))


def test_load_blocks_rejects_block_shape(tmp_path):
    with pytest.raises(ValueError, match="shape"):
        _corrupt_export(tmp_path, _set_u32(28, 2))


_ENTRY = st.complex_numbers(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [complex(-0.0, 1.0), complex(-0.0, -0.0), complex(float("nan"), -0.0)])


@st.composite
def _operators(draw, entries=_ENTRY, spec=None):
    spec = spec or TruncationSpec(draw(st.integers(0, 3)), draw(st.integers(1, 3)))
    sizes = np.diff(layout(spec).offsets).tolist()
    pairs = st.tuples(*[st.integers(0, spec.max_degree)] * 2)
    blocks = {}
    for src, tgt in draw(st.lists(pairs, max_size=4, unique=True)):
        shape = (sizes[tgt], sizes[src])
        values = draw(st.lists(entries, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]))
        blocks[(src, tgt)] = np.array(values, dtype=complex).reshape(shape)
    return OperatorMatrix(spec, blocks)


@given(_operators())
def test_export_load_round_trip_is_bitwise(tmp_path_factory, op):
    path = tmp_path_factory.mktemp("blocks") / "op.bin"
    export_blocks(op, path)
    back = load_blocks(path)
    assert back.spec == op.spec and sorted(back.blocks) == sorted(op.blocks)
    for key, block in op.blocks.items():
        assert back.blocks[key].shape == block.shape
        assert back.blocks[key].tobytes() == block.tobytes()


# -- bitwise pins of the gather-built assembly --------------------------------


@lru_cache(maxsize=None)
def _merge_rows(spec, src, m):
    """[j, k]: position in the degree-(src+m) basis of source key j merged with
    degree-m key k, found by ``BasisKey.from_exponents``."""
    targets = {key: i for i, key in enumerate(_degree_basis(spec, src + m))}
    return np.array([[targets[BasisKey.from_exponents(tuple(
        x + y for x, y in zip(key.exponents(spec.dim), akey.exponents(spec.dim))))]
        for akey in _degree_basis(spec, m)] for key in _degree_basis(spec, src)],
        dtype=np.intp).reshape(-1, len(_degree_basis(spec, m)))


def _scatter_creation(a, m, spec):
    """creation(a, m) as zero blocks filled by one scatter each."""
    if all(c == 0 for c in a.coords) or m > spec.max_degree:
        return {}
    amp = 0.0 + tensor_power(a, m, spec).array[layout(spec).rows(m)].astype(complex)
    blocks = {}
    for src in range(spec.max_degree - m + 1):
        table = _merge_rows(spec, src, m)
        block = np.zeros((len(_degree_basis(spec, src + m)), table.shape[0]), dtype=complex)
        block[table, np.arange(table.shape[0])[:, None]] = amp
        blocks[(src, src + m)] = block
    return blocks


def _scatter_reference(a, spec):
    """Creation blocks of every order, exp_creation and the two exp_annihilation
    variants, each exponential as the identity plus order after order of
    scaled scatter-built blocks."""
    created = {m: _scatter_creation(a, m, spec) for m in range(1, spec.max_degree + 2)}
    exp_c = OperatorMatrix.identity(spec).blocks
    exp_mono = OperatorMatrix.identity(spec).blocks
    for m in range(1, spec.max_degree + 1):
        s = 1.0 / math.factorial(m)
        exp_c.update({k: s * b for k, b in created[m].items()})
        exp_mono.update({k: s * b for k, b in
                         adjoint(GRAM_H, OperatorMatrix(spec, created[m])).blocks.items()})
    exp_w = adjoint(GRAM_W, OperatorMatrix(spec, exp_c)).blocks
    return created, exp_c, exp_mono, exp_w


def _same_bits(got, want):
    assert list(got) == list(want)
    for key, block in want.items():
        assert got[key].shape == block.shape
        assert got[key].tobytes() == block.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("max_degree", range(7))
def test_gather_assembly_equals_the_scatter_reference_bitwise(max_degree, dim):
    spec = TruncationSpec(max_degree, dim)
    generic = _rand(np.random.default_rng(10 * max_degree + dim), dim)
    amplitudes = (
        generic,
        EVector((0j,) + generic.coords[1:]),
        EVector(tuple(complex(-0.0, z.imag) if k % 2 else complex(z.real, -0.0)
                      for k, z in enumerate(generic.coords))),
        EVector((-0.0,) + tuple(z.real for z in generic.coords[1:])),
        EVector.zero(dim),
    )
    for a in amplitudes:
        created, exp_c, exp_mono, exp_w = _scatter_reference(a, spec)
        for m, blocks in created.items():
            _same_bits(creation(a, m, spec).blocks, blocks)
        _same_bits(exp_creation(a, spec).blocks, exp_c)
        _same_bits(exp_annihilation(a, spec, MONOMIAL).blocks, exp_mono)
        _same_bits(exp_annihilation(a, spec, W_ADJOINT).blocks, exp_w)


def _compose_all_pairs(left, right):
    """left after right, testing every pair of blocks for a shared degree."""
    blocks = {}
    for (src, mid), b_right in right.blocks.items():
        for (mid2, tgt), b_left in left.blocks.items():
            if mid2 != mid:
                continue
            acc = blocks.get((src, tgt))
            prod = b_left @ b_right
            blocks[(src, tgt)] = prod if acc is None else acc + prod
    return blocks


_FINITE = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False) | (
    st.sampled_from([complex(-0.0, 1.0), complex(-0.0, -0.0)]))


@st.composite
def _operator_pairs(draw):
    right = draw(_operators(_FINITE))
    return draw(_operators(_FINITE, right.spec)), right


@given(_operator_pairs())
def test_compose_equals_the_all_pairs_loop_bitwise(pair):
    left, right = pair
    _same_bits(left.compose(right).blocks, _compose_all_pairs(left, right))


def _power_by_monomials(x, n, spec):
    """tensor_power row by row: math.prod of the powers on the key's
    coordinates times n!/diagram!, and 0 on a key that uses a zero coordinate."""
    exact = any(isinstance(c, Fraction) for c in x.coords)
    out = np.zeros(layout(spec).size, dtype=object if exact else complex)
    if n == 0:
        out[0] = Fraction(1) if exact else 1.0
    for row, key in enumerate(layout(spec).keys):
        exps = key.exponents(spec.dim)
        if n and key.degree() == n and all(x.coords[k] != 0 for k, e in enumerate(exps) if e):
            out[row] = (math.prod(x.coords[k] ** e for k, e in enumerate(exps) if e)
                        * (math.factorial(n) // key.diagram.factorial()))
    return out


_COORD = (st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
          | st.floats(-10, 10) | st.sampled_from([0.0, -0.0, 0j, complex(-0.0, -0.0)]))


@given(st.integers(1, 4), st.integers(0, 8), st.data())
def test_tensor_power_equals_the_per_monomial_product(dim, n, data):
    x = EVector(data.draw(st.lists(_COORD, min_size=dim, max_size=dim)))
    spec = TruncationSpec(n + data.draw(st.integers(0, 2)), dim)
    got, want = tensor_power(x, n, spec).array, _power_by_monomials(x, n, spec)
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@given(st.integers(1, 4), st.integers(0, 6), st.data())
def test_exact_tensor_power_equals_the_per_monomial_product(dim, n, data):
    coord = st.fractions(-3, 3, max_denominator=7) | st.integers(-2, 2)
    x = EVector([Fraction(1, 2)] + data.draw(st.lists(coord, min_size=dim - 1, max_size=dim - 1)))
    spec = TruncationSpec(n, dim)
    got, want = tensor_power(x, n, spec).array, _power_by_monomials(x, n, spec)
    assert got.dtype == object and list(got) == list(want)
    assert [type(v) for v in got] == [type(v) for v in want]


def test_readout_of_each_variant():
    assert (readout(W_ADJOINT), readout(MONOMIAL)) == (GRAM_W, GRAM_H)
    with pytest.raises(ValueError, match="unknown annihilation variant 'bogus'"):
        readout("bogus")
