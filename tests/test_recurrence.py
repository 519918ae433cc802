"""The coefficient recurrence, closed forms, instantiation, and the lift."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import (
    add,
    evaluate_pairs,
    fraction_verify_system,
    horner,
    lift_solution,
    matrix_chain_pair,
    matrix_chain_pairs,
    mul,
    pair_denominator,
    pair_route,
    rational_form,
    rational_primitive_form,
    seed_pair,
    system_polynomials,
    trim,
)

from amnmodes.cli import B0_BITS, POLY_M_MAX
from amnmodes.recurrence import (
    build_amn_polynomial,
    closed_form_extremes,
    closed_form_solution,
    coefficient_polynomials,
    family_b0,
    family_member,
    instantiate_solution,
    polynomial_report,
    verify_system,
)

F = Fraction
# every b0 that --b0 accepts: numerator and denominator below 2**B0_BITS
B0S = st.builds(F, st.integers(1 - 2**B0_BITS, 2**B0_BITS - 1), st.integers(1, 2**B0_BITS - 1))


def closing_pair(m):
    """(p_m, q_m) as Fractions: the closing pair of `coefficient_polynomials` over D."""
    den = pair_denominator(m)
    return tuple(trim(F(c, den) for c in cs) for cs in coefficient_polynomials(m))


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
    """`coefficient_polynomials` steps pair 0 to the closing pair (D p_m, D q_m)."""

    def test_first_step_is_seed(self):
        assert coefficient_polynomials(1) == ((25, -15), (19, -9))  # D = 10
        assert closing_pair(1) == seed_pair(1)

    def test_m2_values_at_root(self):
        # forward substitution in the order-2 system with b0 = 7/3 gives
        # a = (1, -14/3, 7/3), b = (7/3, -14/3, 1)
        p2, q2 = closing_pair(2)
        t = F(49, 9)
        assert horner(p2, t) == F(7, 3)
        assert horner(q2, t) == F(3, 7)  # b2 = b0*q2(t) = 1

    def test_degrees(self):
        for m in (1, 4, 9):
            p, q = coefficient_polynomials(m)
            assert len(p) - 1 == len(q) - 1 == m


class TestChain:
    def test_m1(self):
        assert coefficient_polynomials(0) == ((1,), (1,))
        assert matrix_chain_pairs(1) == (((1,), (1,)), seed_pair(1))

    def test_matrix_route_agrees(self):
        for m in range(1, 41):
            den = pair_denominator(m)
            want = tuple(tuple(den * c for c in cs) for cs in matrix_chain_pair(m, m))
            assert coefficient_polynomials(m) == want, m

    def test_matrix_chain_pairs(self):
        # pair 0 is set by hand: matrix_chain_pair(m, 0) is pair 1, the seed
        assert matrix_chain_pairs(0) == (((1,), (1,)),)
        for m in (2, 3, 5, 8, 20):
            pairs = matrix_chain_pairs(m)
            assert len(pairs) == m + 1
            assert pairs[0] == ((1,), (1,))
            assert pairs[1] == seed_pair(m) == matrix_chain_pair(m, 0)
            for j in range(1, m + 1):
                assert pairs[j] == matrix_chain_pair(m, j), (m, j)

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


class TestRecurrenceIdentities:
    """The matrix chain solves the 2m recurrence equations, and the production
    chain ends on its closing pair (`TestClosingPair`); the system check
    reads only the closing equation, so these identities are checked here."""

    def test_chain_solves_every_recurrence_equation(self):
        for m in range(1, 41):
            *identities, closing = system_polynomials(m, matrix_chain_pairs(m))
            assert len(identities) == 2 * m
            assert not any(any(r) for r in identities), m
            assert any(closing)
            assert rational_primitive_form(closing)[0] == build_amn_polynomial(m).integer

    def test_broken_step_is_flagged(self):
        # q_3 + 1 breaks b-identity 3 and a- and b-identity 4, at indices 5 to 7;
        # the closing equation, last, is nonzero anyway
        pairs = list(matrix_chain_pairs(6))
        p, q = pairs[3]
        pairs[3] = p, (q[0] + 1, *q[1:])
        nonzero = [i for i, r in enumerate(system_polynomials(6, pairs)) if any(r)]
        assert nonzero == [5, 6, 7, 12]


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
            assert len(build_amn_polynomial(m).integer.coeffs) == m + 2

    def test_extremes_match_closed_forms_up_to_30(self):
        for m in range(0, 31):
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
            (0, 1, 1),
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

    def test_constant_term_of_the_factored_form(self):
        # d_m (-1)**(m+1) prod_{j<=m+1} family_b0(j)**2 = -c_m, the constant term of
        # P_m = d_m prod_j (t - family_b0(j)**2), for every order the CLI accepts.
        # Proof: with o_m = 5*7*...*(2m+3), prod_j ((2j+1)/3)**2 = (3 o_m)**2 / 9**(m+1),
        # and d_m = (-1)**m 9**m / (o_m 2**m m!), so the left side is -o_m/(2**m m!) = -c_m.
        product = F(1)
        for m in range(POLY_M_MAX + 1):
            product *= family_b0(m + 1) ** 2
            c, d = closed_form_extremes(m)
            assert d * (-1) ** (m + 1) * product == -c, m

    @pytest.mark.parametrize("m, k", [(2, 5), (2, 3), (0, 1), (0, -1), (3, -1)])
    def test_closed_form_solution_refuses_k_outside_0_to_m(self, m, k):
        # the order-k form lifted to a lower order m does not exist
        with pytest.raises(ValueError, match="k in 0..m"):
            closed_form_solution(m, k, 1)


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


def sweep_b0(m):
    """Every root of P_m with both signs, then six non-roots: the last two are the
    largest --b0 the CLI accepts and a small one, both with large denominators."""
    roots = [F(s * (2 * j + 1), 3) for j in range(1, m + 2) for s in (1, -1)]
    return [*roots, F(0), F(7, 5), F(-2), F(10**6, 7), F(-4294967291, 4294967279), F(1, 100000)]


class TestInstantiate:
    @pytest.mark.parametrize("m", range(41))
    def test_equals_pair_chain_route(self, m):
        pairs = matrix_chain_pairs(m)
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

    @given(st.integers(1, 20), B0S)
    @example(3, F(7, 5))
    @example(8, F(-1, 3))
    @example(20, F(1, 100000))
    @example(8, F(-4294967291, 4294967279))  # the largest --b0
    def test_last_residual_identity_generic(self, m, b0):
        """At any --b0, the stepped solution leaves only its closing residual,
        and that is -P_m(b0**2) of the three-term build: two exact routes."""
        *res, closing = verify_system(instantiate_solution(m, b0))
        assert not any(res)
        assert closing == -horner(rational_form(build_amn_polynomial(m)), b0 * b0)


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
