"""Exact root verification: prediction, factorization, oracle, root theorem, chain."""

import json
import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import (
    add,
    deflate,
    matrix_chain_pairs,
    monotonicity_check,
    mul,
    pair_denominator,
    plus_one,
    rational_form,
    rational_primitive_form,
    reference_root_solutions,
)

from amnmodes import recurrence, roots
from amnmodes.cli import main
from amnmodes.polynomials import IntPoly, primitive_integer_form, times_linear
from amnmodes.recurrence import (
    AmnPolynomial,
    AnsatzSolution,
    build_amn_polynomial,
    closed_form_extremes,
    coefficient_polynomials,
    family_b0,
    instantiate_solution,
    root_theorem_failures,
    verify_system,
)
from amnmodes.roots import (
    PRIME_SEARCH,
    check_root_solutions,
    predicted_roots,
    rational_root_oracle,
    root_product,
    verification_report,
    verify_factorization,
)

F = Fraction


def predicted_product(m):
    """prod(q*t - n) over the predicted roots n/q of P_m."""
    return root_product(frozenset(predicted_roots(m)))


@st.composite
def root_multisets(draw):
    """Rational roots, some repeated: negatives, zero, any denominator <= 12."""
    distinct = draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=1, max_size=4, unique=True,
    ))
    return distinct + draw(st.lists(st.sampled_from(distinct), max_size=2))


def forbid_exact_tests(monkeypatch):
    """Make every exact evaluation in `roots` fail the test."""
    def forbidden(*args):
        raise AssertionError("exact evaluation on the product route")

    monkeypatch.setattr(roots, "homogeneous", forbidden)


def count_exact_tests(monkeypatch):
    """The list that records the arguments of every exact evaluation in `roots`."""
    calls, exact = [], roots.homogeneous
    monkeypatch.setattr(roots, "homogeneous", lambda *a: calls.append(a) or exact(*a))
    return calls


def accept_all(f, candidates):
    """A screen that lets every candidate through."""
    return [True] * len(candidates)


def accept_none(f, candidates):
    """A test that accepts no candidate."""
    return [False] * len(candidates)


def squared_factors():
    """(7t + 3)(t - 5)^2 (t^2 - 2)^2 (t^2 - 3)^2 (t^2 - 6)^2, ascending.

    5 is a double root mod every prime, and one of 2, 3, 6 is a square mod
    every odd prime, so a squared quadratic also has a double root mod p:
    the oracle must reduce to the squarefree part.
    """
    poly = mul(mul((3, 7), (-5, 1)), (-5, 1))
    for c in (2, 3, 6):
        poly = mul(mul(poly, (-c, 0, 1)), (-c, 0, 1))
    return poly


# the polynomials of TestOracle, ascending, with their rational roots
ORACLE_CASES = [
    ((25, -34, 9), {1, F(25, 9)}),
    ((-1225, 1891, -747, 81), {1, F(25, 9), F(49, 9)}),
    ((1, 0, 1), set()),
    ((-6, 11, -6, 1), {1, 2, 3}),
    ((0, 1, 1), {0, -1}),
    ((4, -4, 1), {2}),
    ((1000003, 0, 1), set()),
    (squared_factors(), {5, F(-3, 7)}),
]


class TestPredictedRoots:
    def test_m1(self):
        assert predicted_roots(1) == (1, F(25, 9))

    def test_m3(self):
        assert predicted_roots(3) == (1, F(25, 9), F(49, 9), 9)

    def test_squares_of_the_family_map(self):
        assert predicted_roots(500) == tuple(family_b0(j) ** 2 for j in range(1, 502))

    def test_m6(self):
        assert predicted_roots(6) == (
            1, F(25, 9), F(49, 9), 9, F(121, 9), F(169, 9), 25,
        )

    def test_strictly_increasing(self):
        roots = predicted_roots(12)
        assert len(roots) == 13
        assert all(a < b for a, b in zip(roots, roots[1:]))


class TestFactorization:
    def test_m1_expansion(self):
        # (-9/10)(t - 1)(t - 25/9) must equal t*q1 - p1
        product = mul(mul((F(-9, 10),), (-1, 1)), (F(-25, 9), 1))
        assert product == rational_form(build_amn_polynomial(1))
        assert verify_factorization(build_amn_polynomial(1), predicted_roots(1)) == ()

    def test_printed_range(self):
        for m in range(0, 7):
            failures = verify_factorization(build_amn_polynomial(m), predicted_roots(m))
            assert failures == (), failures

    def test_m26(self):
        assert verify_factorization(build_amn_polynomial(26), predicted_roots(26)) == ()


class TestOracle:
    def test_m1(self):
        roots = rational_root_oracle(IntPoly([25, -34, 9]))
        assert roots == {1, F(25, 9)}

    def test_m2(self):
        roots = rational_root_oracle(IntPoly([-1225, 1891, -747, 81]))
        assert roots == {1, F(25, 9), F(49, 9)}

    def test_no_rational_roots(self):
        assert rational_root_oracle(IntPoly([1, 0, 1])) == frozenset()

    def test_integer_roots(self):
        assert rational_root_oracle(IntPoly([-6, 11, -6, 1])) == {1, 2, 3}

    def test_zero_and_negative_roots(self):
        assert rational_root_oracle(IntPoly([0, 1, 1])) == {0, -1}

    def test_repeated_root(self):
        assert rational_root_oracle(IntPoly([4, -4, 1])) == {2}

    def test_constant_has_no_roots(self):
        # the one primitive constant has no rational roots: the verdict fails, not the input
        assert rational_root_oracle(IntPoly([1])) == frozenset()

    def test_large_prime_constant_has_no_roots(self):
        # t^2 + 1000003 has no root mod 5, so nothing is lifted
        assert rational_root_oracle(IntPoly([1000003, 0, 1])) == frozenset()

    def test_squared_factors_take_the_squarefree_part(self):
        p = primitive_integer_form(squared_factors())[0]
        assert roots._simple_roots_mod_p(p.coeffs) is None
        assert rational_root_oracle(p) == {5, F(-3, 7)}

    def test_no_usable_prime_errors_loudly(self):
        # t^2 - c has the double root 0 mod every prime of the window above 4
        window = [k for k in range(5, 10**4) if all(k % d for d in range(2, k))][:PRIME_SEARCH]
        c = math.prod(window)
        with pytest.raises(ValueError, match="no prime in the search window"):
            rational_root_oracle(IntPoly([-c, 0, 1]))

    @pytest.mark.parametrize("screen", [roots._screen, accept_all], ids=["screen", "accept_all"])
    @given(root_multisets())
    @example([F(0), F(0), F(-5, 7), F(-5, 7), F(3, 2)])
    @example([F(1), F(25, 9), F(25, 9), F(-7, 4), F(11, 10)])
    def test_finds_exactly_the_linear_factors(self, screen, rs):
        # prod (q t - n) over the roots n/q, times t^2 + 1, which has none;
        # under accept_all the exact pass finds them
        poly = (1, 0, 1)
        for r in rs:
            poly = mul(poly, (-r.numerator, r.denominator))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots, "_screen", screen)
            assert rational_root_oracle(primitive_integer_form(poly)[0]) == set(rs)

    @pytest.mark.parametrize("accept", [roots._screen, accept_none], ids=["screen", "accept_none"])
    def test_lifting_is_bounded_by_residues_and_levels(self, accept):
        # the bound in place of a candidate budget: at most one candidate per
        # residue per level, one level per doubling of the p-adic precision;
        # under accept_none every residue lifts to the last level
        f = build_amn_polynomial(40).integer.coeffs
        prime, residues = roots._simple_roots_mod_p(f)
        sizes = []

        def counting(f, candidates):
            sizes.append(len(candidates))
            return accept(f, candidates)

        kept = roots._lift(f, prime, residues, counting)
        levels = math.ceil(math.log2(math.log(2 * max(abs(f[0]), f[-1]) ** 2, prime))) + 1
        assert max(sizes) <= len(residues) == 41
        assert len(sizes) <= levels
        if accept is accept_none:
            assert kept == [] and len(sizes) == levels
        else:
            assert set(kept) == set(predicted_roots(40))

    def test_agrees_with_prediction_small(self):
        for m in [*range(1, 81), 200]:
            amn = build_amn_polynomial(m)
            assert rational_root_oracle(amn.integer) == set(predicted_roots(m))

    def test_never_reads_the_prediction(self, monkeypatch):
        expected = {m: set(predicted_roots(m)) for m in (1, 6, 40)}

        def forbidden(m):
            raise AssertionError("the oracle read the predicted roots")

        monkeypatch.setattr(roots, "predicted_roots", forbidden)
        for m, want in expected.items():
            assert rational_root_oracle(build_amn_polynomial(m).integer) == want

    @pytest.mark.parametrize("coeffs, want", ORACLE_CASES)
    def test_exact_route_when_the_screen_passes_everything(self, coeffs, want, monkeypatch):
        # every candidate survives the screen, so a non-root among them
        # spoils the product and the exact per-candidate route must recover
        monkeypatch.setattr(roots, "_screen", lambda f, candidates: [True] * len(candidates))
        assert rational_root_oracle(primitive_integer_form(coeffs)[0]) == want

    def test_screen_accepting_everything_takes_the_exact_route(self, monkeypatch):
        monkeypatch.setattr(roots, "_screen", lambda f, candidates: [True] * len(candidates))
        calls = count_exact_tests(monkeypatch)
        for m in range(1, 13):
            amn = build_amn_polynomial(m)
            assert rational_root_oracle(amn.integer) == set(predicted_roots(m))
        assert calls

    def test_matching_product_needs_no_exact_test(self, monkeypatch):
        forbid_exact_tests(monkeypatch)
        for m in (1, 6, 40):
            amn = build_amn_polynomial(m)
            assert rational_root_oracle(amn.integer) == set(predicted_roots(m))

    def test_screen(self):
        # (t - 1)(2t - 3): 1 and 3/2 pass, 2 and -1/2 are rejected; 5/p has
        # no value mod the screen prime p and passes unscreened
        f = (3, -5, 2)
        candidates = [F(1), F(2), F(3, 2), F(-1, 2), F(5, roots.SCREEN_PRIME)]
        assert roots._screen(f, candidates) == [True, False, True, False, True]


def int64_guard(n):
    """The largest modulus with n * mod**2 < 2**63: the last one evaluated in int64."""
    return math.isqrt((2**63 - 1) // n)


class TestVectorisedEvaluation:
    @given(
        st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=40),
        st.lists(st.integers(-(10**20), 10**20), max_size=12),
        st.one_of(st.integers(2, 10**9), st.integers(-2, 2)),
    )
    @example([5], [0, 7], 0)
    @example([-1, 0, 0, 3], [2, -9], 1)
    def test_equals_horner(self, f, xs, mod):
        # mod in -2..2 means the int64 guard plus that offset: the last two
        # moduli of the matrix route and the first two past it
        if mod <= 2:
            mod += int64_guard(len(f))
        values, slopes = roots._values_and_slopes(tuple(f), xs, mod)
        assert [*zip(values, slopes)] == [roots._value_and_slope(tuple(f), x, mod) for x in xs]

    @pytest.mark.parametrize("offset, horner", [(0, False), (1, True)])
    def test_guard_selects_the_route(self, offset, horner, monkeypatch):
        calls = []
        monkeypatch.setattr(roots, "_value_and_slope", lambda *a: calls.append(a) or (0, 0))
        f = (1, 2, 3, 4, 5)
        roots._values_and_slopes(f, [3], int64_guard(len(f)) + offset)
        assert bool(calls) == horner


class TestDeflation:
    def test_simple(self):
        p = mul((-2, 1), (-3, 1))
        assert deflate(p, 2) == (-3, 1)

    def test_non_root_rejected(self):
        with pytest.raises(ValueError, match="not a root"):
            deflate((1, 1), 5)

    def test_all_roots_simple_up_to_30(self):
        for m in range(0, 31):
            amn = build_amn_polynomial(m)
            current = rational_form(amn)
            for r in predicted_roots(m):
                current = deflate(current, r)
            assert current == (closed_form_extremes(m)[1],)
            assert verify_factorization(amn, predicted_roots(m)) == ()

    def test_integer_division_matches_deflate(self):
        # the pseudo-division behind the oracle's squarefree reduction
        for m in range(1, 11):
            amn = build_amn_polynomial(m)
            rational, integer = rational_form(amn), list(amn.integer.coeffs)
            for r in predicted_roots(m):
                rational = deflate(rational, r)
                integer, rem = roots._pseudo_divmod(integer, [-r.numerator, r.denominator])
                assert rem == []
                integer = primitive_integer_form(integer)[0].coeffs
                assert IntPoly(integer) == rational_primitive_form(rational)[0]


class TestMonotonicity:
    def test_chain_m6(self):
        assert monotonicity_check(6) == ()

    def test_single_inclusion(self):
        assert monotonicity_check(2) == ()

    def test_requires_m_at_least_2(self):
        with pytest.raises(ValueError):
            monotonicity_check(1)

    def test_matching_products_need_no_exact_test(self, monkeypatch):
        forbid_exact_tests(monkeypatch)
        assert monotonicity_check(12) == ()

    def test_broken_member_is_named(self, monkeypatch):
        # P_5 + 1 vanishes at no root of P_4; every other P_m is untouched
        def tampered(m):
            amn = build_amn_polynomial(m)
            return plus_one(amn) if m == 5 else amn

        monkeypatch.setattr(roots, "build_amn_polynomial", tampered)
        failures = monotonicity_check(7)
        assert failures
        assert failures == tuple((5, r) for r in predicted_roots(4))


def designated_ratio(m, j):
    """r_j = a_j/a_{j-1} of the designated order-m solution."""
    return F(-(m - j + 1) * (2 * m + 5 - 2 * j), j * (2 * j + 1))


def designated_beta(m, n):
    """beta_n = b_n/a_n of the designated order-m solution."""
    return F(2 * m + 3 - 2 * n, 2 * n + 3)


@pytest.fixture
def broken_b_equations(monkeypatch):
    """The residual core with 2m+3-2k in place of 2m+2-2k in every b-equation;
    the certificate's cache is cleared before and after, so no other test
    sees its result."""
    core = recurrence._residuals

    def broken(m, beta, gamma, a, b):
        res = core(m, beta, gamma, a, b)
        return [*res[:m], *(r - gamma * b[k] for k, r in enumerate(res[m:-1])), res[-1]]

    monkeypatch.setattr(recurrence, "_residuals", broken)
    root_theorem_failures.cache_clear()
    yield
    root_theorem_failures.cache_clear()


@st.composite
def rational_systems(draw):
    """An order m in 0..6, a b0 and free rational lists a, b of length m+1."""
    m = draw(st.integers(0, 6))
    values = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    a, b = (tuple(draw(st.lists(values, min_size=m + 1, max_size=m + 1))) for _ in "ab")
    return AnsatzSolution(m, draw(values), a, b)


class TestRootTheorem:
    def test_passes(self):
        assert root_theorem_failures() == ()

    def test_designated_ratios_are_the_instantiated_solution(self):
        for m in range(60):
            s = instantiate_solution(m, family_b0(m + 1))
            assert [s.a[j] / s.a[j - 1] for j in range(1, m + 1)] == [
                designated_ratio(m, j) for j in range(1, m + 1)
            ]
            assert [y / x for x, y in zip(s.a, s.b)] == [designated_beta(m, n) for n in range(m + 1)]

    @given(rational_systems())
    def test_lift_identities_on_free_systems(self, s):
        # the residuals of any (a, b), not only of a solution, lift as the
        # certificate states: A_0 := 0 and B_0 := 3(b_0 - b0 a_0)
        m, res = s.m, verify_system(s)
        lift = AnsatzSolution(m + 1, s.b0, times_linear(s.a, -1, 1), times_linear(s.b, -1, 1))
        lifted = verify_system(lift)
        big_a, big_b, c = [F(0), *res[:m]], [3 * (s.b[0] - s.b0 * s.a[0]), *res[m:2 * m]], res[-1]
        assert lifted[:m] == [big_a[n] + big_a[n - 1] for n in range(1, m + 1)]
        assert lifted[m] == big_a[m] - 3 * c
        assert lifted[m + 1:2 * m + 1] == [big_b[n] + big_b[n - 1] for n in range(1, m + 1)]
        assert lifted[2 * m + 1] == big_b[m]
        assert lifted[-1] == c

    def test_broken_identity_is_named(self, broken_b_equations):
        assert root_theorem_failures() == (
            *(f"designated b-identity at m = {m}" for m in range(4, 8)),
            "lift B'_(m+1) = B_m at m = 3",
            "lift B'_(m+1) = B_m at m = 4",
        )

    def test_broken_identity_fails_verify(self, broken_b_equations, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--m", "3", "-o", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["monotonicity_ok"] is False
        assert doc["oracle_matches"] and doc["factorization_ok"] and doc["system_ok"]

    def test_runs_once_per_process(self, monkeypatch):
        calls, core = [], recurrence._residuals
        monkeypatch.setattr(recurrence, "_residuals", lambda *a: calls.append(a) or core(*a))
        root_theorem_failures.cache_clear()
        verification_report(3)
        first = len(calls)
        verification_report(4)
        assert first and len(calls) == first


def perturbed(m, dp=(), dq=()):
    """The integer polynomials dp, dq added to p_m, q_m twice: to the closing
    pair (D p_m, D q_m) of `coefficient_polynomials`, and to the last of the
    rational pairs of `matrix_chain_pairs`.  Returns both."""
    den = pair_denominator(m)
    closing = tuple(tuple(c + den * d for c, d in zip_longest(cs, ds, fillvalue=0))
                    for cs, ds in zip(coefficient_polynomials(m), (dp, dq)))
    *pairs, last = matrix_chain_pairs(m)
    return closing, [*pairs, tuple(add(cs, ds) for cs, ds in zip(last, (dp, dq)))]


class TestSystemAtRoots:
    def test_both_signs_solve(self):
        for m in (1, 2, 5):
            assert check_root_solutions(m, predicted_product(m)) == ()

    def test_matches_reference_route(self):
        for m in range(1, 13):
            bad = check_root_solutions(m, predicted_product(m))
            assert bad == reference_root_solutions(m, matrix_chain_pairs(m)) == ()

    @pytest.mark.parametrize("m", [1, 3, 6])
    @pytest.mark.parametrize(
        "case",
        [
            # the check reads only the last pair, through p_m - t*q_m: each
            # perturbation adds to it a polynomial with no root t >= 1
            lambda m: perturbed(m, dp=[1]),
            lambda m: perturbed(m, dq=[1]),
            lambda m: perturbed(m, dp=[1], dq=[-1]),
        ],
        ids=["p_m", "q_m", "p_m_q_m"],
    )
    def test_negative_controls_flag_every_root(self, m, case, monkeypatch):
        closing, pairs = case(m)
        monkeypatch.setattr(roots, "coefficient_polynomials", lambda _: closing)
        bad = check_root_solutions(m, predicted_product(m))
        assert bad == reference_root_solutions(m, pairs)
        assert len(bad) == 2 * (m + 1)

    def test_matching_product_needs_no_evaluation(self, monkeypatch):
        forbid_exact_tests(monkeypatch)
        for m in (1, 5, 20):
            assert check_root_solutions(m, predicted_product(m)) == ()

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_other_product_falls_back_to_each_root(self, m, monkeypatch):
        # the roots of P_{m+1}: a product the closing equation is not, though
        # every root of P_m is among them
        calls = count_exact_tests(monkeypatch)
        assert check_root_solutions(m, predicted_product(m + 1)) == ()
        assert [F(n, q) for _, n, q in calls] == [F(2 * j + 1, 3) ** 2 for j in range(1, m + 2)]

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_vanishing_closing_equation_fails(self, m, monkeypatch):
        # p_m = t*q_m identically is no route to P_m, though it vanishes at every root
        monkeypatch.setattr(roots, "coefficient_polynomials", lambda _: ((0,), (0,)))
        bad = check_root_solutions(m, predicted_product(m))
        assert bad == ("closing equation vanishes identically",)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_broken_identity_is_evaluated_at_each_root(self, m, monkeypatch):
        # (t - 1) on p_m and q_m: the closing equation gains -(t - 1)**2, which
        # vanishes at t = 1 alone, as every broken equation does
        closing, pairs = perturbed(m, dp=[-1, 1], dq=[-1, 1])
        monkeypatch.setattr(roots, "coefficient_polynomials", lambda _: closing)
        bad = check_root_solutions(m, predicted_product(m))
        assert bad == reference_root_solutions(m, pairs)
        assert bad == tuple(F(s * (2 * j + 1), 3) for j in range(2, m + 2) for s in (1, -1))


def test_verification_report_schema():
    report, ok = verification_report(2)
    assert ok is True
    assert report["m"] == 2
    assert report["predicted"] == ["1", "25/9", "49/9"]
    assert report["oracle"] == ["1", "25/9", "49/9"]
    assert report["oracle_matches"] is True
    assert report["factorization_ok"] is True
    assert report["system_ok"] is True
    assert report["monotonicity_ok"] is True
    assert set(report["timings_ms"]) >= {"build_ms", "oracle_ms", "factorization_ms"}


def test_verification_report_tamper_hook(monkeypatch):
    monkeypatch.setattr(roots, "build_amn_polynomial", lambda m: plus_one(build_amn_polynomial(m)))
    report, ok = verification_report(1)
    assert ok is False
    assert report["factorization_ok"] is False
    assert report["oracle_matches"] is False


def count_products(monkeypatch):
    """The list that records every `times_linear` call in `roots`, with the
    product cache cleared so that no earlier test's product is reused."""
    calls, step = [], roots.times_linear
    monkeypatch.setattr(roots, "times_linear", lambda *a: calls.append(a) or step(*a))
    root_product.cache_clear()
    return calls


@pytest.mark.parametrize("m", [1, 6, 40])
def test_passing_report_forms_one_product(m, monkeypatch):
    # the oracle forms the product of its survivors, the predicted roots, and
    # the factorization and system stages reuse it
    calls = count_products(monkeypatch)
    assert verification_report(m)[1] is True
    assert len(calls) == m + 1


@pytest.mark.parametrize("m, failures", [
    (1, ["coefficient of t^0: product 25 != P_m 1225", "leading coefficient -81/10 != d_m -9/10"]),
    (6, ["coefficient of t^0: product -5636255625 != P_m -1628877875625",
         "leading coefficient 19683/128128000 != d_m 2187/128128000"]),
], ids=["1", "6"])
def test_tampered_build_forms_both_products(m, failures, monkeypatch):
    # P_m made the product over the roots of P_(m+1) but its smallest: the
    # oracle finds those, so the factorization check forms its own product,
    # which the system check then reuses
    tampered = AmnPolynomial(m, root_product(frozenset(predicted_roots(m + 1)[1:])),
                             build_amn_polynomial(m).scale)
    monkeypatch.setattr(roots, "build_amn_polynomial", lambda _: tampered)
    calls = count_products(monkeypatch)
    report, ok = verification_report(m)
    assert ok is False and report["oracle_matches"] is False and report["system_ok"] is True
    assert report["factorization_failures"] == failures
    assert len(calls) == 2 * (m + 1)
