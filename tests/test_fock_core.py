"""Fock vector algebra: inner products, coherent vectors, products, polarization."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from focklab.fock_core import (
    EVector,
    FockVector,
    GRAM_H,
    GRAM_W,
    TruncationOverflowError,
    TruncationSpec,
    exponential_vector,
    from_json,
    hs_polynomial_eval,
    inner,
    layout,
    polarization,
    symmetric_product,
    tensor_power,
    to_json,
)
from focklab.partitions import BasisKey, YoungDiagram, h_norm_sq, w_norm_sq

SPEC = TruncationSpec(6, 3)


def _key(parts, indices):
    return BasisKey.make(parts, indices)


def _rand_evector(rng, dim=3, scale=1.0):
    v = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2)
    return EVector(tuple(map(complex, v)))


def test_inner_basis_values():
    k11 = _key((1, 1), (1, 2))
    v = FockVector.basis(SPEC, k11)
    assert inner(GRAM_W, v, v) == pytest.approx(1 / 6)
    assert inner(GRAM_H, v, v) == pytest.approx(1 / 2)
    k2 = _key((2,), (1,))
    assert inner(GRAM_W, FockVector.basis(SPEC, k2), v) == 0


def test_inner_sesquilinearity():
    k = _key((1,), (1,))
    v = FockVector.basis(SPEC, k, 2.0 + 1.0j)
    w = FockVector.basis(SPEC, k, 1.0 - 3.0j)
    # linear in the first slot, conjugated in the second
    assert inner(GRAM_H, v, w) == pytest.approx((2 + 1j) * np.conj(1 - 3j))


def test_inner_spec_mismatch():
    other = TruncationSpec(5, 3)
    with pytest.raises(ValueError):
        inner(GRAM_W, FockVector.vacuum(SPEC), FockVector.vacuum(other))


def test_tensor_power_monomial():
    x = EVector.basis(1, 3)
    tp = tensor_power(x, 3, SPEC)
    assert tp.coeffs == {_key((3,), (1,)): 1.0}


def test_tensor_power_expansion():
    x = EVector((1.0, 1.0, 0.0))
    tp = tensor_power(x, 2, SPEC)
    assert tp.coeffs[_key((2,), (1,))] == pytest.approx(1.0)
    assert tp.coeffs[_key((2,), (2,))] == pytest.approx(1.0)
    assert tp.coeffs[_key((1, 1), (1, 2))] == pytest.approx(2.0)
    assert len(tp.coeffs) == 3


def test_tensor_power_zero_and_overflow():
    assert tensor_power(EVector.zero(3), 2, SPEC).coeffs == {}
    assert tensor_power(EVector.zero(3), 0, SPEC).coeffs == {BasisKey.vacuum(): 1.0}
    with pytest.raises(TruncationOverflowError):
        tensor_power(EVector.basis(1, 3), 7, SPEC)


def test_tensor_power_norm_is_power_of_norm():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = _rand_evector(rng)
        n = int(rng.integers(1, 6))
        value = inner(GRAM_H, tensor_power(x, n, SPEC), tensor_power(x, n, SPEC))
        assert complex(value).real == pytest.approx(x.norm_sq() ** n, rel=1e-10)


def test_exponential_vector_coefficients():
    assert exponential_vector(EVector.zero(3), SPEC).coeffs == {BasisKey.vacuum(): 1.0}
    ev = exponential_vector(EVector.basis(1, 3), SPEC)
    for n in range(SPEC.max_degree + 1):
        key = BasisKey.vacuum() if n == 0 else _key((n,), (1,))
        assert complex(ev.coeffs[key]) == pytest.approx(1 / math.factorial(n))
    both = exponential_vector(EVector((1.0, 1.0, 0.0)), SPEC)
    assert complex(both.coeffs[_key((1, 1), (1, 2))]) == pytest.approx(1.0)


def test_coherent_norm_bound():
    rng = np.random.default_rng(1)
    spec = TruncationSpec(10, 3)
    for _ in range(50):
        x = _rand_evector(rng, scale=2.0 / math.sqrt(3))
        ev = exponential_vector(x, spec)
        w2 = complex(inner(GRAM_W, ev, ev)).real
        h2 = complex(inner(GRAM_H, ev, ev)).real
        assert w2 <= h2 * (1 + 1e-12)
        assert w2 <= math.exp(x.norm_sq()) * (1 + 1e-12)


def test_symmetric_product_unit_and_merge():
    e1 = tensor_power(EVector.basis(1, 3), 1, SPEC)
    e2 = tensor_power(EVector.basis(2, 3), 1, SPEC)
    merged = symmetric_product(e1, e2)
    assert merged.coeffs == {_key((1, 1), (1, 2)): 1.0}
    vac = FockVector.vacuum(SPEC)
    psi = FockVector(SPEC, {_key((2, 1), (1, 3)): 2.5})
    assert symmetric_product(vac, psi).coeffs == psi.coeffs


def test_symmetric_product_power_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = _rand_evector(rng)
        lhs = symmetric_product(tensor_power(x, 1, SPEC), tensor_power(x, 1, SPEC))
        rhs = tensor_power(x, 2, SPEC)
        assert (lhs - rhs).max_abs_coeff() < 1e-12
        lhs2 = symmetric_product(tensor_power(x, 2, SPEC), tensor_power(x, 3, SPEC))
        rhs2 = tensor_power(x, 5, SPEC)
        assert (lhs2 - rhs2).max_abs_coeff() < 1e-10


def test_symmetric_product_commutes_and_associates():
    rng = np.random.default_rng(3)
    a = tensor_power(_rand_evector(rng), 1, SPEC)
    b = tensor_power(_rand_evector(rng), 2, SPEC)
    c = tensor_power(_rand_evector(rng), 2, SPEC)
    ab = symmetric_product(a, b)
    ba = symmetric_product(b, a)
    assert (ab - ba).max_abs_coeff() < 1e-12
    abc1 = symmetric_product(ab, c)
    abc2 = symmetric_product(a, symmetric_product(b, c))
    assert (abc1 - abc2).max_abs_coeff() < 1e-12


def test_symmetric_product_overflow():
    big = tensor_power(EVector.basis(1, 3), 4, SPEC)
    with pytest.raises(TruncationOverflowError):
        symmetric_product(big, big)


def test_polarization_examples():
    spec = TruncationSpec(4, 3)
    out = polarization(YoungDiagram((1, 1)), (1, 2), spec, exact=True)
    assert out.coeffs == {_key((1, 1), (1, 2)): Fraction(1)}
    out2 = polarization(YoungDiagram((3,)), (2,), spec, exact=True)
    assert out2.coeffs == {_key((3,), (2,)): Fraction(1)}


def test_polarization_all_small_keys():
    spec = TruncationSpec(4, 3)
    for key in spec.keys():
        exact = polarization(key.diagram, key.tuple.indices, spec, exact=True)
        assert exact.coeffs == {key: Fraction(1)}
        approx = polarization(key.diagram, key.tuple.indices, spec, exact=False)
        diff = approx - FockVector.basis(spec, key, 1.0)
        assert diff.max_abs_coeff() < 1e-10


def test_hs_polynomial_eval():
    x = EVector((2.0, 0.0, 0.0))
    assert hs_polynomial_eval(FockVector.basis(SPEC, _key((1,), (1,))), x) == pytest.approx(2.0)
    y = EVector((1.0, 1.0, 0.0))
    assert hs_polynomial_eval(FockVector.basis(SPEC, _key((1, 1), (1, 2))), y) == pytest.approx(1.0)
    assert hs_polynomial_eval(FockVector.vacuum(SPEC, 2.0 - 1.0j), y) == pytest.approx(2.0 + 1.0j)
    with pytest.raises(ValueError):
        hs_polynomial_eval(
            FockVector(SPEC, {BasisKey.vacuum(): 1.0, _key((1,), (1,)): 1.0}), x
        )


def test_hs_matches_h_pairing_of_powers():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = _rand_evector(rng)
        n = int(rng.integers(1, 5))
        tp = tensor_power(x, n, SPEC)
        for key in (k for k in SPEC.keys() if k.degree() == n):
            basis = FockVector.basis(SPEC, key, 1.0)
            assert inner(GRAM_H, tp, basis) == pytest.approx(
                hs_polynomial_eval(basis, x), abs=1e-10
            )


def test_serialization_rational_bit_exact():
    spec = TruncationSpec(4, 3)
    v = polarization(YoungDiagram((2, 1)), (1, 2), spec, exact=True)
    v = v + FockVector.basis(spec, _key((1,), (3,)), Fraction(22, 7))
    again = from_json(to_json(v))
    assert again.spec == v.spec
    assert again.coeffs == v.coeffs
    assert to_json(again) == to_json(v)


def test_serialization_complex():
    v = FockVector(SPEC, {_key((2,), (1,)): 1.5 - 2.25j, BasisKey.vacuum(): 3.0})
    again = from_json(to_json(v))
    assert again.coeffs == {k: complex(c) for k, c in v.coeffs.items()}


# -- malformed payloads and round trips -------------------------------------

_GOOD_SPEC = {"max_degree": 4, "dim": 2}


@pytest.mark.parametrize(
    "payload, fault",
    [
        ({"coeffs": {}}, "'spec' must hold integer"),
        ({"spec": _GOOD_SPEC}, "'coeffs' must map"),
        ({"spec": _GOOD_SPEC, "coeffs": [["λ=[];ι=[]", [1.0, 0.0]]]}, "'coeffs' must map"),
        ({"spec": _GOOD_SPEC, "coeffs": {"λ=[1];ι=[1]": [1.0]}}, r"must be a \[re, im\] pair"),
        ({"spec": _GOOD_SPEC, "coeffs": {"garbage": [1.0, 0.0]}}, "malformed basis key label"),
        ({"spec": _GOOD_SPEC, "coeffs": {"λ=[1];ι=[1]": [None, 0]}}, "must hold two numbers"),
        ({"spec": {"max_degree": "4", "dim": 2}, "coeffs": {}}, "'spec' must hold integer"),
        ([1, 2], "must be a JSON object"),
    ],
    ids=["no-spec", "no-coeffs", "coeffs-list", "short-pair", "bad-label", "null-number",
         "string-degree", "not-object"],
)
def test_from_json_rejects_malformed_payload(payload, fault):
    with pytest.raises(ValueError, match=fault):
        from_json(json.dumps(payload))


_EXPONENTS = st.lists(st.integers(0, 3), min_size=4, max_size=4)
_WIDE = TruncationSpec(12, 4)


@given(st.dictionaries(_EXPONENTS.map(tuple), st.fractions(max_denominator=10**6), max_size=6))
def test_serialization_round_trip_rational(coeffs):
    v = FockVector(_WIDE, {BasisKey.from_exponents(e): c for e, c in coeffs.items()})
    again = from_json(to_json(v))
    assert again == v
    assert all(isinstance(c, Fraction) for c in again.coeffs.values())


@given(st.dictionaries(
    _EXPONENTS.map(tuple),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    max_size=6,
))
def test_serialization_round_trip_complex(coeffs):
    v = FockVector(_WIDE, {BasisKey.from_exponents(e): c for e, c in coeffs.items()})
    again = from_json(to_json(v))
    assert again.spec == v.spec
    assert {k: complex(c) for k, c in again.coeffs.items()} == v.coeffs


# -- dense rows behind the key-level surface ---------------------------------

@given(st.dictionaries(
    _EXPONENTS.map(tuple),
    st.complex_numbers(allow_nan=False, allow_infinity=False) | st.just(0j),
    max_size=8,
))
def test_coeffs_hold_exactly_the_nonzero_rows(coeffs):
    v = FockVector(_WIDE, {BasisKey.from_exponents(e): c for e, c in coeffs.items()})
    assert FockVector(_WIDE, v.coeffs) == v
    rows = layout(_WIDE)
    assert list(v.coeffs) == [rows.keys[i] for i in np.flatnonzero(v.array)]
    assert v.coeffs == {BasisKey.from_exponents(e): c for e, c in coeffs.items() if c != 0}
    with pytest.raises(TypeError):
        v.coeffs[BasisKey.vacuum()] = 1.0


_RATIONAL = st.dictionaries(_EXPONENTS.map(tuple), st.fractions(max_denominator=1000),
                            min_size=1, max_size=6)


def _rational_vector(coeffs):
    return FockVector(_WIDE, {BasisKey.from_exponents(e): c for e, c in coeffs.items()})


@given(_RATIONAL, _RATIONAL, st.fractions(max_denominator=1000))
def test_rational_vectors_stay_exact(a, b, s):
    u, v = _rational_vector(a), _rational_vector(b)
    for w in (u + v, u - v, u.scale(s), from_json(to_json(u))):
        assert all(isinstance(c, Fraction) for c in w.coeffs.values())
    assert (u + v) - v == u and from_json(to_json(u)) == u
    assert u.scale(s).coeffs == {k: s * c for k, c in u.coeffs.items() if s * c}
    for kind, weight in ((GRAM_W, w_norm_sq), (GRAM_H, h_norm_sq)):
        value = inner(kind, u, v)
        assert isinstance(value, Fraction)
        assert value == sum(c * v.coeffs.get(k, 0) * weight(k.diagram) for k, c in u.coeffs.items())


# -- the row lookup -------------------------------------------------------------

SMALL_SPECS = [TruncationSpec(cap, dim) for cap in range(9) for dim in range(1, 6)]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: f"{s.max_degree},{s.dim}")
def test_find_maps_each_row_to_itself_and_every_other_vector_past_the_end(spec):
    rows = layout(spec)
    exponents = np.array([key.exponents(spec.dim) for key in rows.keys], dtype=np.int64)
    assert rows.find(exponents).tolist() == list(range(rows.size))
    for k in range(spec.dim):
        negative = exponents.copy()
        negative[:, k] = -1
        assert (rows.find(negative) == rows.size).all()
    deeper = layout(TruncationSpec(spec.max_degree + 1, spec.dim))
    assert (rows.find(deeper.exponents[deeper.rows(spec.max_degree + 1)]) == rows.size).all()
    # leading shapes (), (n,) and (a, b) are kept; an empty batch is empty
    last = rows.find(exponents[-1])
    assert last.shape == () and int(last) == rows.size - 1
    n = min(rows.size, 6) // 2 * 2
    assert rows.find(exponents[:n].reshape(2, n // 2, spec.dim)).tolist() == (
        np.arange(n).reshape(2, n // 2).tolist())
    for shape in [(0,), (2, 0)]:
        assert rows.find(np.zeros(shape + (spec.dim,), dtype=np.int64)).shape == shape
    with pytest.raises(ValueError):
        rows.find(np.zeros(spec.dim + 1, dtype=np.int64))
    for table in (rows.up, rows.down):
        assert table.shape == (rows.size, spec.dim)
        with pytest.raises(ValueError):
            table[0, 0] = 0
