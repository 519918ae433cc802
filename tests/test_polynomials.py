"""Exact polynomial arithmetic and normalization."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import add, horner, mul, trim

from amnmodes.polynomials import (
    IntPoly,
    homogeneous,
    primitive_integer_form,
    rational_to_string,
    times_linear,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
polys = st.lists(rationals, max_size=6).map(tuple)


def test_eval_known_roots():
    p = (25, -34, 9)  # 9t^2 - 34t + 25
    assert horner(p, 1) == 0
    assert horner(p, Fraction(25, 9)) == 0
    assert horner(p, 0) == 25


def test_eval_zero_polynomial():
    assert horner((), Fraction(7, 3)) == 0


def test_product_difference_of_squares():
    assert mul((1, 1), (-1, 1)) == (-1, 0, 1)


def test_seed_sum():
    # hand addition of the two order-1 seed polynomials
    p1 = (Fraction(5, 2), Fraction(-3, 2))
    q1 = (Fraction(19, 10), Fraction(-9, 10))
    assert add(p1, q1) == (Fraction(44, 10), Fraction(-24, 10))


def test_primitive_integer_form_basic():
    q, scale = primitive_integer_form([Fraction(-25, 10), Fraction(34, 10), Fraction(-9, 10)])
    assert q == IntPoly([25, -34, 9])
    assert scale == -10


def test_primitive_integer_form_identity():
    q, scale = primitive_integer_form([-1, 1])
    assert q == IntPoly([-1, 1])
    assert scale == 1


def test_primitive_integer_form_zero_rejected():
    with pytest.raises(ValueError, match="cannot normalize zero polynomial"):
        primitive_integer_form([])
    with pytest.raises(ValueError, match="cannot normalize zero polynomial"):
        primitive_integer_form([0, Fraction(0)])


@given(polys)
def test_primitive_integer_form_idempotent(p):
    if not any(p):
        return
    q, scale = primitive_integer_form(p)
    assert tuple(c / scale for c in q.coeffs) == trim(p)
    q2, scale2 = primitive_integer_form(q.coeffs)
    assert q2 == q
    assert scale2 == 1


@given(polys, polys, rationals)
def test_eval_is_ring_homomorphism(a, b, x):
    # the arithmetic of the tests' reference routes
    assert horner(add(a, b), x) == horner(a, x) + horner(b, x)
    assert horner(mul(a, b), x) == horner(a, x) * horner(b, x)


def test_intpoly_invariants_enforced():
    with pytest.raises(ValueError):
        IntPoly([2, 4])  # content 2
    with pytest.raises(ValueError):
        IntPoly([1, -1])  # negative leading coefficient
    with pytest.raises(ValueError):
        IntPoly([])


def test_intpoly_json_round_trip():
    p = IntPoly([10**30, -3, 1])
    strings = [str(c) for c in p.coeffs]
    assert strings == [str(10**30), "-3", "1"]
    assert IntPoly(int(s) for s in strings) == p


def test_intpoly_is_immutable():
    p = IntPoly([-1, 1])
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    assert p.coeffs == (-1, 1)


def test_equal_intpolys_hash_equal():
    a, b = IntPoly([3, 0, 5, 0]), IntPoly(iter([3, 0, 5]))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b, IntPoly([3, 5])}) == 2


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
    .map(lambda cs: primitive_integer_form(cs)[0])
)


@given(int_polys, rationals)
def test_homogeneous_matches_rational_horner(p, x):
    n, q = x.numerator, x.denominator
    assert homogeneous(p.coeffs, n, q) == horner(p.coeffs, x) * q**p.degree


nonzero_leads = st.one_of(st.integers(-50, 50), rationals).filter(bool)
linear_factors = st.tuples(st.one_of(st.integers(-50, 50), rationals), st.integers(1, 30))


@given(
    st.one_of(st.lists(st.integers(-50, 50), max_size=6), st.lists(rationals, max_size=6)),
    nonzero_leads,
    linear_factors,
)
@example([3, 1], 2, (-1, 1))  # (1 + t) times, the lift
@example([Fraction(1, 2)], Fraction(-3, 4), (-1, 1))
def test_times_linear_is_the_product(low, lead, factor):
    n, q = factor
    p = (*low, lead)
    assert times_linear(p, n, q) == mul(p, (-n, q))
