"""Noncommutative polynomial arithmetic."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from cedga import FieldMismatchError, NcPoly, format_poly
from cedga.poly import evaluate_terms

NAMES = ["x1", "x2", "x3", "y1", "y2", "z"]


def words(max_len=4):
    return st.lists(st.sampled_from(NAMES), max_size=max_len).map(tuple)


def polys(p=2, max_terms=4):
    return st.dictionaries(words(), st.integers(0, p - 1), max_size=max_terms) \
        .map(lambda terms: NcPoly(p, terms))


def test_empty_word_is_unit():
    p = NcPoly.unit(2)
    q = NcPoly.from_pairs(2, [(1, ("x1", "x2")), (1, ())])
    assert p * q == q
    assert q * p == q


def test_monomial_product_concatenates():
    x = NcPoly.generator(2, "x1")
    y = NcPoly.generator(2, "y1")
    assert (x * y).terms == {("x1", "y1"): 1}


def test_char_two_cross_terms_cancel():
    xb = NcPoly.from_pairs(2, [(1, ("x",)), (1, ())])
    square = xb * xb
    assert square.terms == {("x", "x"): 1, (): 1}


def test_zero_coefficients_dropped():
    poly = NcPoly(3, {("x1",): 3, ("x2",): 2})
    assert poly.terms == {("x2",): 2}
    assert NcPoly(5, {("x1",): 0}).is_zero


def test_non_int_coefficient_rejected():
    with pytest.raises(TypeError):
        NcPoly(2, {("x",): Fraction(1, 2)})
    with pytest.raises(TypeError):
        NcPoly(3, {("x",): 1.0})


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        NcPoly.unit(2) * NcPoly.unit(3)
    with pytest.raises(FieldMismatchError):
        NcPoly.unit(2) + NcPoly.unit(5)


def test_characteristic_must_be_small_prime():
    with pytest.raises(ValueError):
        NcPoly.zero(4)
    with pytest.raises(ValueError):
        NcPoly.zero(101)


def test_small_primes_are_the_primes_to_97():
    from cedga.field import _SMALL_PRIMES
    assert _SMALL_PRIMES == {p for p in range(2, 98) if all(p % d for d in range(2, p))}


def test_scalar_multiplication():
    poly = NcPoly.from_pairs(5, [(2, ("x1",))])
    assert (poly * 3).terms == {("x1",): 1}
    assert (3 * poly) == poly * 3


def test_format_poly_canonical_order():
    poly = NcPoly.from_pairs(3, [(1, ("x1", "x2")), (2, ()), (1, ("x1",))])
    assert format_poly(poly) == "2 + x1 + x1 x2"
    assert format_poly(NcPoly.zero(2)) == "0"


@given(polys(), polys(), polys())
def test_addition_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(polys(), polys(), polys())
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys(), polys(), polys())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(polys(p=5), polys(p=5))
def test_subtraction_and_negation(a, b):
    assert a - b == a + (-b)
    assert (a - b) + b == a


@st.composite
def evaluation_cases(draw):
    """A prime, (word, coeff) pairs over NAMES (the empty word included) and
    an assignment that leaves some letters unvalued and may map others to 0."""
    p = draw(st.sampled_from((2, 3, 5)))
    terms = draw(st.lists(st.tuples(words(), st.integers(-2 * p, 2 * p)), max_size=5))
    values = draw(st.dictionaries(st.sampled_from(NAMES), st.integers(0, p - 1)))
    return p, terms, values


@given(evaluation_cases())
def test_evaluate_terms_matches_naive_sum(case):
    p, terms, values = case
    naive = sum(coeff * prod(values.get(letter, 0) for letter in word)
                for word, coeff in terms) % p
    assert evaluate_terms(terms, values, p) == naive
