"""Diagram, key, and weight table tests against independent oracles."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from focklab.partitions import (
    BasisKey,
    IndexTuple,
    YoungDiagram,
    all_diagrams,
    constant_c,
    degree_keys,
    enumerate_keys,
    h_norm_sq,
    w_norm_sq,
)


def test_diagram_validation():
    YoungDiagram((3, 2, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 3))
    with pytest.raises(ValueError):
        YoungDiagram((1, 0))


def test_empty_diagram_conventions():
    empty = YoungDiagram()
    assert empty.weight() == 0
    assert empty.length() == 1
    assert constant_c(empty) == 1
    assert h_norm_sq(empty) == 1


def test_constant_values():
    assert constant_c(YoungDiagram((5,))) == 1
    assert constant_c(YoungDiagram((2, 1))) == Fraction(1, 4)
    assert constant_c(YoungDiagram((1, 1))) == Fraction(1, 3)


def test_norm_values():
    assert h_norm_sq(YoungDiagram((4,))) == 1
    assert h_norm_sq(YoungDiagram((2, 1))) == Fraction(1, 3)
    assert h_norm_sq(YoungDiagram((1, 1))) == Fraction(1, 2)
    assert w_norm_sq(YoungDiagram((2, 1))) == Fraction(1, 12)
    assert w_norm_sq(YoungDiagram((1, 1))) == Fraction(1, 6)
    assert w_norm_sq(YoungDiagram((7,))) == 1


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=5))
def test_constant_bounds(parts):
    diagram = YoungDiagram(tuple(sorted(parts, reverse=True)))
    c = constant_c(diagram)
    assert 0 < c <= 1
    tight = diagram.length() == 1 or diagram.weight() <= 1
    assert (c == 1) == tight
    assert w_norm_sq(diagram) <= h_norm_sq(diagram)


def test_canonical_key_rules():
    BasisKey.make((2, 1), (1, 2))
    BasisKey.make((2, 2), (1, 3))
    with pytest.raises(ValueError):
        BasisKey.make((2, 2), (3, 1))  # equal parts need increasing indices
    with pytest.raises(ValueError):
        IndexTuple((1, 1))  # repeated index
    with pytest.raises(ValueError):
        BasisKey.make((2, 1), (1,))  # length mismatch


def test_exponent_round_trip():
    key = BasisKey.make((3, 1, 1), (2, 1, 4))
    exps = key.exponents(5)
    assert exps == (1, 3, 0, 1, 0)
    assert BasisKey.from_exponents(exps) == key


def test_label_round_trip():
    key = BasisKey.make((2, 1), (1, 3))
    assert BasisKey.from_label(key.label()) == key
    assert BasisKey.from_label(BasisKey.vacuum().label()) == BasisKey.vacuum()


@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8))
def test_label_round_trip_any_key(exponents):
    key = BasisKey.from_exponents(exponents)
    assert BasisKey.from_label(key.label()) == key


@pytest.mark.parametrize("text", ["garbage", "λ=[1]", "λ=[1];ι=[1];", "x=[1];y=[1]", "λ=[a];ι=[1]"])
def test_label_parser_rejects_malformed_text(text):
    with pytest.raises(ValueError, match="malformed basis key label"):
        BasisKey.from_label(text)


def test_enumerate_counts_match_binomials_and_brute_force():
    for d in range(1, 6):
        for n in range(7):
            keys = degree_keys(n, d)
            assert len(keys) == math.comb(n + d - 1, n)
            brute = sum(1 for _ in combinations_with_replacement(range(d), n))
            assert len(keys) == brute


def test_enumerate_examples():
    assert [k.label() for k in enumerate_keys(0, 4)] == [BasisKey.vacuum().label()]
    assert len(enumerate_keys(2, 2)) == 6
    assert len(degree_keys(3, 3)) == 10


def test_enumerate_deterministic_snapshot():
    first = tuple(k.label() for k in enumerate_keys(4, 3))
    second = tuple(k.label() for k in enumerate_keys(4, 3))
    assert first == second
    assert hash(first) == hash(second)
    # pinned prefix of the canonical order
    assert first[:5] == (
        "λ=[];ι=[]",
        "λ=[1];ι=[1]",
        "λ=[1];ι=[2]",
        "λ=[1];ι=[3]",
        "λ=[2];ι=[1]",
    )


def test_enumerate_rejects_bad_dim():
    with pytest.raises(ValueError):
        enumerate_keys(2, 0)


def test_all_diagrams_partition_counts():
    # partition numbers p(0)..p(6) = 1 1 2 3 5 7 11
    counts = {}
    for diagram in all_diagrams(6):
        counts[diagram.weight()] = counts.get(diagram.weight(), 0) + 1
    assert [counts[n] for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
