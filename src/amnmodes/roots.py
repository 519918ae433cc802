"""Exact root verification for the closing polynomials.

Everything here is exact: evaluation, deflation by synthetic division,
and a rational-root search that never consults the predicted root set.
No floating-point root finding anywhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import IntPoly, RatPoly, homogeneous, rational_to_string
from .recurrence import (
    AmnPolynomial,
    CoeffPair,
    build_amn_polynomial,
    closed_form_extremes,
    coefficient_polynomials,
    system_polynomials,
)


@dataclass(frozen=True)
class RootSet:
    m: int
    roots: tuple


def predicted_roots(m: int) -> RootSet:
    """The claimed root set of P_m: ((2j+1)/3)**2 for j = 1..m+1."""
    if m < 1:
        raise ValueError("root set defined for m >= 1")
    return RootSet(m, tuple(Fraction(2 * j + 1, 3) ** 2 for j in range(1, m + 2)))


def deflate(p: RatPoly, r) -> RatPoly:
    """Exact synthetic division of p by (t - r); r must be a root."""
    r = Fraction(r)
    out = []
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * r + c
        out.append(acc)
    if out[-1] != 0:
        raise ValueError(f"{r} is not a root")
    return RatPoly(reversed(out[:-1]))


@dataclass(frozen=True)
class FactorizationReport:
    m: int
    ok: bool
    failures: tuple = ()


def verify_factorization(m: int, amn: AmnPolynomial | None = None) -> FactorizationReport:
    """Check P_m against its claimed complete factorization.

    Three exact checks: each predicted root evaluates to zero (in
    integers, on `amn.integer`); the expanded product
    d_m * prod(t - root) matches the rational P_m
    coefficient-for-coefficient; the constant term equals
    d_m * (-1)**(m+1) * prod(roots) = -c_m.  `amn` is built from m when
    not given.
    """
    if amn is None:
        amn = build_amn_polynomial(m)
    roots = predicted_roots(m).roots
    c, d = closed_form_extremes(m)
    failures = []

    for r in roots:
        if amn.integer(r) != 0:
            failures.append(f"P_{m}({rational_to_string(r)}) = {amn.rational(r)} != 0")

    product = RatPoly([d])
    for r in roots:
        product = product * RatPoly([-r, 1])
    if product != amn.rational:
        for i in range(max(product.degree, amn.rational.degree) + 1):
            if product[i] != amn.rational[i]:
                failures.append(
                    f"coefficient of t^{i}: product {product[i]} != P_m {amn.rational[i]}"
                )
                break

    prod_roots = math.prod(roots, start=Fraction(1))
    if d * (-1) ** (m + 1) * prod_roots != -c:
        failures.append("constant-term cross-check against closed forms failed")

    return FactorizationReport(m, not failures, tuple(failures))


def _factorize(n: int, bound: int) -> dict[int, int]:
    """Trial-division factorization; errors loudly past the bound.

    The coefficients met here are smooth (powers of 3 and products of
    small odd squares), so a modest bound suffices.
    """
    n = abs(n)
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > bound:
            raise ValueError(f"factor bound {bound} exceeded on cofactor {n}")
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if n > bound:
            raise ValueError(f"factor bound {bound} exceeded on prime {n}")
        factors[n] = factors.get(n, 0) + 1
    return factors


def _abs_root_bound(coeffs: tuple) -> Fraction:
    """Lagrange bound on the absolute value of any root; exact rational."""
    lead = abs(coeffs[-1])
    best = Fraction(0)
    n = len(coeffs) - 1
    for k in range(1, n + 1):
        ratio = Fraction(abs(coeffs[n - k]), lead)
        # rational k-th root upper estimate: smallest power-of-two cover
        r = Fraction(1)
        while r**k < ratio:
            r *= 2
        best = max(best, r)
    return 2 * best


def _divisors_in_range(factors: dict[int, int], lo: int, hi: int) -> list[int]:
    """Divisors d with lo <= d <= hi, by pruned recursive generation."""
    # largest primes first: small primes with high exponents would
    # otherwise multiply the branches of every level below them
    items = sorted(factors.items(), reverse=True)
    depth = len(items)
    suffix = [1] * (depth + 1)
    for i in range(depth - 1, -1, -1):
        p, e = items[i]
        suffix[i] = suffix[i + 1] * p**e
    out: list[int] = []

    def rec(i: int, v: int):
        if v > hi or v * suffix[i] < lo:
            return
        if i == depth:
            if v >= lo:
                out.append(v)
            return
        p, e = items[i]
        w = v
        for _ in range(e + 1):
            rec(i + 1, w)
            w *= p
            if w > hi:
                break

    rec(0, 1)
    return out


def _iter_candidates(p: IntPoly, factor_bound: int):
    """Yield rational-root-theorem candidates of an integer polynomial.

    Candidates p/q (lowest terms, both signs) with p dividing the
    constant and q dividing the leading coefficient.  Denominators come
    out ascending, numerators restricted to the two-sided Lagrange root
    window, so a caller that deflates early never touches the huge
    divisor windows of large denominators.
    """
    coeffs = p.coeffs
    const, lead = coeffs[0], coeffs[-1]
    ub = _abs_root_bound(coeffs)
    lb = 1 / _abs_root_bound(tuple(reversed(coeffs)))

    const_factors = _factorize(const, factor_bound)
    lead_factors = _factorize(lead, factor_bound)

    for q in sorted(_divisors_in_range(lead_factors, 1, abs(lead))):
        lo = max(1, math.ceil(lb * q))
        hi = math.floor(ub * q)
        for num in _divisors_in_range(const_factors, lo, hi):
            if math.gcd(num, q) != 1:
                continue
            yield num, q


def rational_root_oracle(
    p: IntPoly, factor_bound: int = 10**6, candidate_budget: int = 2_000_000
) -> frozenset:
    """Complete set of rational roots, by enumeration and deflation.

    Independent of `predicted_roots`: divisor enumeration over the
    constant and leading coefficients of p, exact evaluation of each
    candidate, exact deflation on every hit (with multiplicity).  One
    enumeration pass suffices: by Gauss's lemma the deflated factor is
    again a primitive integer polynomial whose constant and leading
    coefficients divide those of p, so its candidates are a subset of
    the ones already scheduled.  Candidates are pre-filtered by the
    (q -+ p) | P(+-1) divisibility tests against the current deflation.
    All arithmetic is on integers: `IntPoly.homogeneous` tests a
    candidate, `IntPoly.divide_linear` deflates.  Errors loudly if the
    candidate budget or factor bound is exceeded.
    """
    if p.degree < 1:
        raise ValueError("oracle requires degree >= 1")
    current = p
    roots: set[Fraction] = set()
    tested = 0

    while current[0] == 0:
        roots.add(Fraction(0))
        current = IntPoly(current.coeffs[1:])
    if current.degree < 1:
        return frozenset(roots)

    cur_at_1, cur_at_m1 = current.homogeneous(1, 1), current.homogeneous(-1, 1)
    for num, q in _iter_candidates(current, factor_bound):
        if current.degree < 1:
            break
        for sign in (1, -1):
            pn = sign * num
            # divisibility filters: p/q a root forces (q - pn) | P(1), (q + pn) | P(-1)
            if cur_at_1 != 0 and q != pn and cur_at_1 % (q - pn) != 0:
                continue
            if cur_at_m1 != 0 and q != -pn and cur_at_m1 % (q + pn) != 0:
                continue
            tested += 1
            if tested > candidate_budget:
                raise ValueError(f"candidate budget {candidate_budget} exceeded")
            while current.degree >= 1 and current.homogeneous(pn, q) == 0:
                roots.add(Fraction(pn, q))
                current = current.divide_linear(pn, q)
                cur_at_1, cur_at_m1 = current.homogeneous(1, 1), current.homogeneous(-1, 1)
    return frozenset(roots)


@dataclass(frozen=True)
class MonotonicityReport:
    m_max: int
    ok: bool
    failures: tuple = ()


def check_root_solutions(m: int, pairs: list[CoeffPair] | None = None) -> list[Fraction]:
    """b0 values among +-(2j+1)/3 whose instantiated coefficients fail (L_m).

    Empty list means every predicted root, with both signs of b0, yields
    an exact solution of the coefficient system.  `pairs` is the chain of
    `coefficient_polynomials(m)`, built here when not given.

    The system is checked in t = b0**2 through `system_polynomials`: the
    2m recurrence equations are integer polynomial identities, so each
    needs one check, and only the nonzero ones (normally just the closing
    p_m - t*q_m, built from pairs[m]) are evaluated at each root, in
    integers as 9**D * R((2j+1)**2 / 9).  Both signs of b0 share t.
    """
    if pairs is None:
        pairs = coefficient_polynomials(m)
    nonzero = [r for r in system_polynomials(m, pairs) if any(r)]
    bad = []
    for j in range(1, m + 2):
        n = (2 * j + 1) ** 2
        if any(homogeneous(r, n, 9) != 0 for r in nonzero):
            bad += [Fraction(2 * j + 1, 3), Fraction(-(2 * j + 1), 3)]
    return bad


def monotonicity_check(m_max: int) -> MonotonicityReport:
    """Confirm the root-set chain: every root of P_{m-1} is a root of P_m.

    Each P_m is built on its own (the recurrence depends on m), in turn.
    """
    if m_max < 2:
        raise ValueError("chain check requires m_max >= 2")
    failures = []
    for m in range(2, m_max + 1):
        integer = build_amn_polynomial(m).integer
        failures += [(m, r) for r in predicted_roots(m - 1).roots if integer(r) != 0]
    return MonotonicityReport(m_max, not failures, tuple(failures))


def verification_report(m: int, chain: bool = False) -> dict:
    """Run the full exact verification for one m; JSON-ready.

    The pair chain is built once and shared by the build, factorization
    and system checks; the oracle reads only the integer P_m.
    """
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    predicted = predicted_roots(m)
    pairs = coefficient_polynomials(m)
    amn = build_amn_polynomial(m, pairs)
    timings["build_ms"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    oracle = rational_root_oracle(amn.integer)
    timings["oracle_ms"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    fact = verify_factorization(m, amn)
    timings["factorization_ms"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    system_ok = not check_root_solutions(m, pairs)
    timings["system_ms"] = (time.perf_counter() - t0) * 1000

    monotone_ok = True
    if chain and m >= 2:
        t0 = time.perf_counter()
        monotone_ok = monotonicity_check(m).ok
        timings["monotonicity_ms"] = (time.perf_counter() - t0) * 1000

    return {
        "m": m,
        "predicted": [rational_to_string(r) for r in predicted.roots],
        "oracle": [rational_to_string(r) for r in sorted(oracle)],
        "oracle_matches": set(oracle) == set(predicted.roots),
        "factorization_ok": fact.ok,
        "factorization_failures": list(fact.failures),
        "system_ok": system_ok,
        "monotonicity_ok": monotone_ok,
        "timings_ms": timings,
    }
