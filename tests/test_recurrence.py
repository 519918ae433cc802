"""The coefficient recurrence, closed forms, instantiation, and the lift."""

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import zip_longest

import pytest
from reference import lift_solution

from amnmodes.polynomials import homogeneous, primitive_integer_form
from amnmodes.recurrence import (
    AnsatzSolution,
    CoeffPair,
    build_amn_polynomial,
    closed_form_extremes,
    coefficient_polynomials,
    family_b0,
    family_member,
    instantiate_solution,
    polynomial_report,
    verify_system,
)

F = Fraction

PAIR0 = CoeffPair((1,), (1,), 1)


def trim(cs) -> tuple:
    """Ascending coefficients without trailing zeros; () is the zero polynomial."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(a, b) -> tuple:
    return trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


def mul(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def horner(p, x) -> Fraction:
    """The exact value at x of the polynomial with ascending coefficients p."""
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def rational_form(amn) -> tuple:
    """The rational coefficients of P_m, integer / scale."""
    return tuple(c / amn.scale for c in amn.integer.coeffs)


def rational(pair):
    """(p_j, q_j) of an integer pair as Fractions, each coefficient over pair.den."""
    return tuple(trim(F(c, pair.den) for c in cs) for cs in (pair.p, pair.q))


def seed_pair(m):
    """The j=1 pair in closed form: p1 = ((2m+3) - 3t)/2, q1 = ((10m+9) - 9t)/10."""
    if m < 1:
        raise ValueError("seed defined for m >= 1")
    return (F(2 * m + 3, 2), F(-3, 2)), (F(10 * m + 9, 10), F(-9, 10))


def recurrence_matrix(m, p):
    """The step matrix on (p, q) pairs, row-major: the matrix of the ansatz
    on (a, b) with one factor b0 absorbed and b0**2 written as t."""
    w = 2 * m + 5 - 2 * p
    d1, d2 = F(1, 2 * p), F(1, 2 * p * (2 * p + 3))
    return (w * d1,), (0, -3 * d1), (3 * w * d2,), (2 * p * (2 * m + 2 - 2 * p) * d2, -9 * d2)


def matrix_chain_pair(m, j):
    """(p_j, q_j) as K_j K_{j-1} ... K_2 applied to the seed: the matrices
    are multiplied out first over the rationals, then applied once, a
    different route from the stepwise `coefficient_polynomials`."""
    acc = ((1,), (), (), (1,))
    for p in range(2, j + 1):
        k = recurrence_matrix(m, p)
        acc = (
            add(mul(k[0], acc[0]), mul(k[1], acc[2])),
            add(mul(k[0], acc[1]), mul(k[1], acc[3])),
            add(mul(k[2], acc[0]), mul(k[3], acc[2])),
            add(mul(k[2], acc[1]), mul(k[3], acc[3])),
        )
    p1, q1 = seed_pair(m)
    return add(mul(acc[0], p1), mul(acc[1], q1)), add(mul(acc[2], p1), mul(acc[3], q1))


class TestSeed:
    def test_m1(self):
        p, q = seed_pair(1)
        assert p == (F(5, 2), F(-3, 2))
        assert q == (F(19, 10), F(-9, 10))

    def test_m3(self):
        p, q = seed_pair(3)
        assert p == (F(9, 2), F(-3, 2))
        assert q == (F(39, 10), F(-9, 10))

    def test_m1_eval_at_root(self):
        # the order-1 solution has a_1 = -5/3 at t = 25/9
        p, _ = seed_pair(1)
        assert horner(p, F(25, 9)) == F(-5, 3)

    def test_m0_rejected(self):
        with pytest.raises(ValueError, match="seed defined for m >= 1"):
            seed_pair(0)


class TestAdvance:
    def test_first_step_is_seed(self):
        for m in range(1, 31):
            assert rational(list(coefficient_polynomials(m))[1]) == seed_pair(m)

    def test_m2_values_at_root(self):
        # forward substitution in the order-2 system with b0 = 7/3 gives
        # a = (1, -14/3, 7/3), b = (7/3, -14/3, 1)
        p2, q2 = rational(list(coefficient_polynomials(2))[2])
        t = F(49, 9)
        assert horner(p2, t) == F(7, 3)
        assert horner(q2, t) == F(3, 7)  # b2 = b0*q2(t) = 1

    def test_degrees(self):
        pairs = list(coefficient_polynomials(5))
        assert len(pairs[4].p) - 1 == 4
        assert len(pairs[4].q) - 1 == 4


class TestChain:
    def test_m1(self):
        pairs = list(coefficient_polynomials(1))
        assert len(pairs) == 2
        assert pairs[0] == PAIR0
        assert rational(pairs[1]) == seed_pair(1)

    def test_matrix_route_agrees(self):
        for m in (2, 3, 5, 8, 20):
            pairs = list(coefficient_polynomials(m))
            for j in range(1, m + 1):
                assert matrix_chain_pair(m, j) == rational(pairs[j])

    def test_m6_reproduces_printed_polynomial(self):
        amn = build_amn_polynomial(6)
        assert amn.integer.coeffs == (
            -5636255625,
            10271620375,
            -6018285581,
            1578233251,
            -209304603,
            14480613,
            -494991,
            6561,
        )


def system_polynomials(m: int, pairs: Iterable[CoeffPair]) -> Iterator[tuple]:
    """The 2m+1 equations of `verify_system` as integer polynomials in t = b0**2.

    One pass over the chain j = 0..m: as pair j arrives, the a-equation
    2j p_j - (2m+5-2j) p_{j-1} + 3t q_{j-1}, then the b-equation
    (2j+3) q_j - (2m+2-2j) q_{j-1} - 3 p_j with the common factor b0
    removed; after the last pair, the closing p_m - t q_m.  Each is
    taken times the lcm of the denominators of the pairs it reads, so
    the coefficients are integers (ascending in t).  At b0 != 0 the
    residuals of `verify_system` vanish exactly where these do at
    t = b0**2.  The recurrence makes the first 2m identically zero; the
    closing one is a multiple of -P_m, zero only at the roots.
    """
    pairs = iter(pairs)
    prev = next(pairs)
    for j, cur in enumerate(pairs, 1):
        g = math.gcd(prev.den, cur.den)
        u, v = prev.den // g, cur.den // g  # both equations j times lcm(den_{j-1}, den_j)
        ka, kb, kc = 2 * j * u, (2 * m + 5 - 2 * j) * v, 3 * v
        cols = zip_longest(cur.p, prev.p, (0,) + prev.q, fillvalue=0)
        yield tuple(ka * a - kb * b + kc * c for a, b, c in cols)
        ka, kb, kc = (2 * j + 3) * u, 3 * u, (2 * m + 2 - 2 * j) * v
        cols = zip_longest(cur.q, cur.p, prev.q, fillvalue=0)
        yield tuple(ka * a - kb * b - kc * c for a, b, c in cols)
        prev = cur
    yield tuple(a - c for a, c in zip_longest(prev.p, (0,) + prev.q, fillvalue=0))


class TestRecurrenceIdentities:
    """The pair chain solves the 2m recurrence equations; the system check
    reads only its closing equation, so these identities are checked here."""

    def test_chain_solves_every_recurrence_equation(self):
        for m in [*range(1, 41), 200]:
            *identities, closing = system_polynomials(m, coefficient_polynomials(m))
            assert len(identities) == 2 * m
            assert not any(any(r) for r in identities), m
            assert any(closing)
            assert primitive_integer_form(closing)[0] == build_amn_polynomial(m).integer

    def test_broken_step_is_flagged(self):
        # q_3 + 1 breaks b-identity 3 and a- and b-identity 4, at indices 5 to 7;
        # the closing equation, last, is nonzero anyway
        pairs = list(coefficient_polynomials(6))
        p, q, den = pairs[3].p, pairs[3].q, pairs[3].den
        pairs[3] = CoeffPair(p, (q[0] + den, *q[1:]), den)
        nonzero = [i for i, r in enumerate(system_polynomials(6, pairs)) if any(r)]
        assert nonzero == [5, 6, 7, 12]


def pair_route(m):
    """t*q_m - p_m from the pair chain: the reference route of P_m."""
    last = list(coefficient_polynomials(m))[m]
    cols = zip_longest(last.p, (0,) + last.q, fillvalue=0)
    return trim(F(c - a, last.den) for a, c in cols)


class TestScalarRoute:
    """`build_amn_polynomial` runs the three-term recurrence in p_j alone."""

    @pytest.mark.parametrize("m", [*range(1, 81), 200])
    def test_equals_pair_route(self, m):
        assert rational_form(build_amn_polynomial(m)) == pair_route(m)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_equals_matrix_route(self, m):
        p, q = matrix_chain_pair(m, m)
        assert rational_form(build_amn_polynomial(m)) == add(mul((0, 1), q), mul((-1,), p))


class TestAmnPolynomial:
    def test_m1(self):
        assert build_amn_polynomial(1).integer.coeffs == (25, -34, 9)

    def test_m2(self):
        assert build_amn_polynomial(2).integer.coeffs == (-1225, 1891, -747, 81)

    def test_m4(self):
        assert build_amn_polynomial(4).integer.coeffs == (
            -1334025,
            2306749,
            -1206490,
            256122,
            -23085,
            729,
        )

    def test_degree(self):
        for m in (1, 2, 7, 12):
            assert build_amn_polynomial(m).integer.degree == m + 1

    def test_extremes_match_closed_forms_up_to_30(self):
        for m in range(1, 31):
            rational = rational_form(build_amn_polynomial(m))
            c, d = closed_form_extremes(m)
            assert rational[-1] == d
            assert rational[0] == -c


class TestClosedForms:
    @pytest.mark.parametrize(
        "m,c,d",
        [
            (1, F(5, 2), F(-9, 10)),
            (2, F(35, 8), F(81, 280)),
            (3, F(105, 16), F(-27, 560)),
        ],
    )
    def test_small_m(self, m, c, d):
        assert closed_form_extremes(m) == (c, d)

    def test_m3_constant_cross_check(self):
        # printed order-3 polynomial: constant 11025 with scale 1680
        amn = build_amn_polynomial(3)
        c, _ = closed_form_extremes(3)
        assert amn.scale * (-c) == 11025
        assert amn.integer.coeffs[0] == 11025


class TestFamilyMap:
    def test_round_trip(self):
        for j in range(1, 502):
            for sign in (1, -1):
                b0 = family_b0(j, sign)
                assert b0 == F(sign * (2 * j + 1), 3)
                assert family_member(b0) == (j, sign)

    @pytest.mark.parametrize("b0", [0, F(1, 3), F(-1, 3), F(2, 3), F(5, 6), 2])
    def test_non_member_refused(self, b0):
        with pytest.raises(ValueError, match="no family member"):
            family_member(b0)


def evaluate_pairs(pairs, b0):
    """The pair chain j = 0..m evaluated at t = b0**2, a_j = p_j(t) and
    b_j = b0 q_j(t): the reference route of `instantiate_solution`."""
    b0 = F(b0)
    n, q = b0.numerator**2, b0.denominator**2

    def at(cs, den):
        # cs(t)/den at t = n/q, through the integer q**D * cs(n/q)
        return F(homogeneous(cs, n, q), q ** (len(cs) - 1) * den)

    a = tuple(at(pair.p, pair.den) for pair in pairs)
    b = tuple(b0 * at(pair.q, pair.den) for pair in pairs)
    return AnsatzSolution(len(pairs) - 1, b0, a, b)


def sweep_b0(m):
    """Every root of P_m with both signs, then four non-roots."""
    roots = [F(s * (2 * j + 1), 3) for j in range(1, m + 2) for s in (1, -1)]
    return [*roots, F(0), F(7, 5), F(-2), F(10**6, 7)]


def fraction_verify_system(s):
    """The reference route of `verify_system`: each residual formed in Fraction."""
    m, b0, a, b = s.m, s.b0, s.a, s.b
    res = []
    for j in range(1, m + 1):
        res.append(2 * j * a[j] - (2 * m + 5 - 2 * j) * a[j - 1] + 3 * b0 * b[j - 1])
    for k in range(1, m + 1):
        res.append((2 * k + 3) * b[k] - (2 * m + 2 - 2 * k) * b[k - 1] - 3 * b0 * a[k])
    res.append(a[m] - b0 * b[m])
    return res


class TestInstantiate:
    @pytest.mark.parametrize("m", range(41))
    def test_equals_pair_chain_route(self, m):
        pairs = list(coefficient_polynomials(m))
        for b0 in sweep_b0(m):
            assert instantiate_solution(m, b0) == evaluate_pairs(pairs, b0), b0

    def test_order1_remark_coefficients(self):
        s = instantiate_solution(1, F(5, 3))
        assert s.a == (1, F(-5, 3))
        assert s.b == (F(5, 3), -1)

    def test_order2(self):
        s = instantiate_solution(2, F(7, 3))
        assert s.a == (1, F(-14, 3), F(7, 3))
        assert s.b == (F(7, 3), F(-14, 3), 1)

    def test_b0_zero(self):
        s = instantiate_solution(1, 0)
        assert s.a == (1, F(5, 2))
        assert s.b == (0, 0)


class TestVerifySystem:
    @pytest.mark.parametrize("m", range(41))
    def test_equals_fraction_route(self, m):
        for b0 in sweep_b0(m):
            s = instantiate_solution(m, b0)
            got, want = verify_system(s), fraction_verify_system(s)
            assert len(got) == len(want) == 2 * m + 1
            for r, ref in zip(got, want):
                assert isinstance(r, Fraction) and r == ref, (b0, r, ref)

    def test_solution_has_zero_residuals(self):
        assert verify_system(instantiate_solution(1, F(5, 3))) == [0, 0, 0]
        assert verify_system(instantiate_solution(2, F(7, 3))) == [0, 0, 0, 0, 0]

    def test_non_root_last_residual_is_minus_p_of_t(self):
        s = instantiate_solution(1, 2)
        res = verify_system(s)
        rational = rational_form(build_amn_polynomial(1))
        assert res[-1] == -horner(rational, 4)
        assert res[-1] != 0

    def test_last_residual_identity_generic(self):
        for m in (2, 3, 5):
            rational = rational_form(build_amn_polynomial(m))
            for b0 in (F(1, 2), 2, F(-7, 5)):
                res = verify_system(instantiate_solution(m, b0))
                assert res[-1] == -horner(rational, b0 * b0)


class TestLift:
    def test_order1_example(self):
        s = instantiate_solution(1, F(5, 3))
        up = lift_solution(s)
        assert up.m == 2
        assert up.a == (1, F(-2, 3), F(-5, 3))
        assert up.b == (F(5, 3), F(2, 3), -1)

    def test_lift_solves_next_system(self):
        for m in (1, 2, 4):
            for j in (1, m + 1):
                s = instantiate_solution(m, F(2 * j + 1, 3))
                assert all(r == 0 for r in verify_system(lift_solution(s)))

    def test_lift_at_unit_root_lands_in_next_root_set(self):
        up = lift_solution(instantiate_solution(1, 1))
        assert all(r == 0 for r in verify_system(up))
        assert horner(rational_form(build_amn_polynomial(2)), 1) == 0

    def test_lift_rejects_non_solution(self):
        with pytest.raises(ValueError, match="lift requires an exact"):
            lift_solution(instantiate_solution(1, 2))

    def test_lift_base_mode(self):
        up = lift_solution(instantiate_solution(0, 1))
        assert up.m == 1
        assert all(r == 0 for r in verify_system(up))


def test_polynomial_report_schema():
    report = polynomial_report(1)
    assert report["integer_coefficients"] == ["25", "-34", "9"]
    assert report["rational_coefficients"] == ["-5/2", "17/5", "-9/10"]
    assert report["c_m"] == "5/2"
    assert report["d_m"] == "-9/10"
    assert report["m"] == 1
