"""Exact polynomial arithmetic and normalization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from amnmodes.polynomials import (
    IntPoly,
    RatPoly,
    homogeneous,
    primitive_integer_form,
    rational_to_string,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
polys = st.lists(rationals, max_size=6).map(RatPoly)


def horner(p: RatPoly, x) -> Fraction:
    """The exact value of p at x."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def test_eval_known_roots():
    p = RatPoly([25, -34, 9])  # 9t^2 - 34t + 25
    assert horner(p, 1) == 0
    assert horner(p, Fraction(25, 9)) == 0
    assert horner(p, 0) == 25


def test_eval_zero_polynomial():
    assert horner(RatPoly(), Fraction(7, 3)) == 0


def test_trailing_zeros_stripped():
    assert RatPoly([1, 2, 0, 0]).degree == 1
    assert RatPoly([0, 0]).is_zero
    assert RatPoly().degree == -1


def test_product_difference_of_squares():
    assert RatPoly([1, 1]) * RatPoly([-1, 1]) == RatPoly([-1, 0, 1])


def test_scale():
    assert RatPoly([0, 1]).scale(Fraction(3, 2)) == RatPoly([0, Fraction(3, 2)])


def test_seed_sum():
    # hand addition of the two order-1 seed polynomials
    p1 = RatPoly([Fraction(5, 2), Fraction(-3, 2)])
    q1 = RatPoly([Fraction(19, 10), Fraction(-9, 10)])
    assert p1 + q1 == RatPoly([Fraction(44, 10), Fraction(-24, 10)])


def test_degree_of_product():
    a = RatPoly([1, 2, 3])
    b = RatPoly([4, 5])
    assert (a * b).degree == a.degree + b.degree


def test_primitive_integer_form_basic():
    p = RatPoly([Fraction(-25, 10), Fraction(34, 10), Fraction(-9, 10)])
    q, scale = primitive_integer_form(p)
    assert q == IntPoly([25, -34, 9])
    assert scale == -10


def test_primitive_integer_form_identity():
    q, scale = primitive_integer_form(RatPoly([-1, 1]))
    assert q == IntPoly([-1, 1])
    assert scale == 1


def test_primitive_integer_form_zero_rejected():
    with pytest.raises(ValueError, match="cannot normalize zero polynomial"):
        primitive_integer_form(RatPoly())


@given(polys)
def test_primitive_integer_form_idempotent(p):
    if p.is_zero:
        return
    q, _ = primitive_integer_form(p)
    q2, scale2 = primitive_integer_form(RatPoly(q.coeffs))
    assert q2 == q
    assert scale2 == 1


@given(polys, polys, rationals)
def test_eval_is_ring_homomorphism(a, b, x):
    assert horner(a + b, x) == horner(a, x) + horner(b, x)
    assert horner(a * b, x) == horner(a, x) * horner(b, x)


def test_intpoly_invariants_enforced():
    with pytest.raises(ValueError):
        IntPoly([2, 4])  # content 2
    with pytest.raises(ValueError):
        IntPoly([1, -1])  # negative leading coefficient
    with pytest.raises(ValueError):
        IntPoly([])


def test_intpoly_json_round_trip():
    p = IntPoly([10**30, -3, 1])
    strings = p.coefficient_strings()
    assert strings == [str(10**30), "-3", "1"]
    assert IntPoly(int(s) for s in strings) == p


def test_rational_canonicalization_bulk():
    rng = random.Random(1234)
    for _ in range(10_000):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        for v in (a + b, a - b, a * b):
            assert v.denominator > 0
            from math import gcd

            assert gcd(abs(v.numerator), v.denominator) == 1


def test_rational_string_round_trip():
    for s in ("5/3", "-9/10", "7", "0"):
        assert rational_to_string(Fraction(s)) == s


int_polys = (
    st.lists(st.integers(-50, 50), min_size=1, max_size=7)
    .filter(any)
    .map(lambda cs: primitive_integer_form(RatPoly(cs))[0])
)


@given(int_polys, rationals)
def test_homogeneous_matches_rational_horner(p, x):
    n, q = x.numerator, x.denominator
    assert homogeneous(p.coeffs, n, q) == horner(RatPoly(p.coeffs), x) * q**p.degree
