"""Exact root verification for the closing polynomials.

Everything here is exact: the factorization check multiplies out the
predicted linear factors in integers, and the rational-root oracle finds
the roots from P_m alone, by p-adic lifting, never consulting the
predicted set.  No floating-point root finding anywhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .polynomials import IntPoly, homogeneous, rational_to_string
from .recurrence import (
    AmnPolynomial,
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


@dataclass(frozen=True)
class FactorizationReport:
    m: int
    ok: bool
    failures: tuple = ()


def verify_factorization(amn: AmnPolynomial) -> FactorizationReport:
    """Check P_m against its claimed complete factorization.

    Exact checks: prod(q*t - n) over the predicted roots n/q, primitive
    by Gauss's lemma, equals `amn.integer` (so every root vanishes), and
    P_m = `amn.integer` / `amn.scale` has leading coefficient d_m, so
    P_m = d_m * prod(t - root); the constant term
    d_m * (-1)**(m+1) * prod(roots) equals -c_m.
    """
    m = amn.m
    roots = predicted_roots(m).roots
    c, d = closed_form_extremes(m)
    failures = []

    product = [1]
    for r in roots:
        n, q = r.numerator, r.denominator
        product = [q * a - n * b for a, b in zip([0, *product], [*product, 0])]
    product = IntPoly(product)
    if product != amn.integer:
        for i in range(max(product.degree, amn.integer.degree) + 1):
            if product[i] != amn.integer[i]:
                failures.append(
                    f"coefficient of t^{i}: product {product[i]} != P_m {amn.integer[i]}"
                )
                break
    lead = amn.integer[amn.integer.degree] / amn.scale
    if lead != d:
        failures.append(f"leading coefficient {lead} != d_m {d}")

    prod_roots = math.prod(roots, start=Fraction(1))
    if d * (-1) ** (m + 1) * prod_roots != -c:
        failures.append("constant-term cross-check against closed forms failed")

    return FactorizationReport(m, not failures, tuple(failures))


# primes tried per search, from the first one above 2*deg upward
PRIME_SEARCH = 32
# exact candidate tests per oracle call before it errors
CANDIDATE_BUDGET = 2_000_000


def _value_and_slope(f: tuple, x: int, mod: int) -> tuple[int, int]:
    """(f(x), f'(x)) mod `mod`, by one Horner pass; f ascending."""
    v = d = 0
    for c in reversed(f):
        d = (d * x + v) % mod
        v = (v * x + c) % mod
    return v, d


def _simple_roots_mod_p(f: tuple) -> tuple[int, list[int]] | None:
    """The first prime p > 2*deg in the search window that does not divide
    the leading coefficient and keeps every root of f mod p simple, with
    those roots (by brute-force scan); None when no prime qualifies."""
    primes = (k for k in count(2 * len(f) - 1) if all(k % d for d in range(2, math.isqrt(k) + 1)))
    for p in islice(primes, PRIME_SEARCH):
        if f[-1] % p == 0:
            continue
        fp = tuple(c % p for c in f)
        values = [_value_and_slope(fp, x, p) for x in range(p)]
        if (0, 0) not in values:
            return p, [x for x, (v, _) in enumerate(values) if v == 0]
    return None


def _primitive(f: list) -> list:
    g = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return [c // g for c in f]


def _pseudo_divmod(a: list, b: list) -> tuple[list, list]:
    """(q, r) with lc(b)**k * a = q*b + r and deg r < deg b; ascending ints."""
    a, q, lc, db = list(a), [0] * max(len(a) - len(b) + 1, 0), b[-1], len(b) - 1
    for i in range(len(q) - 1, -1, -1):
        c = a[i + db]
        q = [lc * x for x in q]
        a = [lc * x for x in a]
        q[i] = c
        for k, bk in enumerate(b):
            a[i + k] -= c * bk
    r = a[:db]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def _squarefree_part(f: tuple) -> tuple:
    """f / gcd(f, f') over Z, primitive: same roots, each of them simple."""
    a, b = list(f), [k * c for k, c in enumerate(f)][1:]
    while b:
        a, b = b, _pseudo_divmod(a, b)[1]
        if b:
            b = _primitive(b)
    return tuple(_primitive(_pseudo_divmod(f, _primitive(a))[0]))


def _reconstruct(r: int, modulus: int) -> tuple[int, int]:
    """n/q with n = q*r (mod modulus), 0 < q and |n|, q <= sqrt(modulus/2).

    Half-extended Euclid (Wang): such a fraction is unique when it exists,
    and this finds it; (0, 1) when there is none (0 is never a candidate).
    """
    bound = math.isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, r, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if not 0 < abs(s1) <= bound or math.gcd(r1, s1) != 1:
        return 0, 1
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def rational_root_oracle(p: IntPoly) -> frozenset:
    """Complete set of rational roots, by p-adic lifting (R. Loos, SIAM J.
    Comput. 12, 1983); independent of `predicted_roots`.

    Zero roots are split off.  A rational root n/q has n | const and
    q | lead, so for a prime p not dividing lead it reduces to a root of
    P mod p; the prime is chosen so that every such root is simple (P is
    replaced by its squarefree part if no prime in the window qualifies).
    Each root is Newton-lifted, doubling the precision, and rational
    reconstruction proposes a candidate after every step; those with
    n | const and q | lead are tested exactly.  Past p**k >
    2*max(|const|, lead)**2 a rational root cannot fail to reconstruct,
    so lifting stops there and no root is missed.  Errors loudly if more
    than `CANDIDATE_BUDGET` candidates are tested.
    """
    if p.degree < 1:
        raise ValueError("oracle requires degree >= 1")
    zeros = next(i for i, c in enumerate(p.coeffs) if c)
    roots = {Fraction(0)} if zeros else set()
    f = p.coeffs[zeros:]
    if len(f) == 1:
        return frozenset(roots)
    found = _simple_roots_mod_p(f)
    if found is None:
        f = _squarefree_part(f)
        found = _simple_roots_mod_p(f)
    if found is None:
        raise ValueError("no prime in the search window keeps the roots of P mod p simple")
    prime, residues = found
    const, lead = f[0], f[-1]
    stop = 2 * max(abs(const), lead) ** 2
    tested = 0
    for r in residues:
        modulus = prime
        while True:
            n, q = _reconstruct(r, modulus)
            if n and const % n == 0 and lead % q == 0:
                tested += 1
                if tested > CANDIDATE_BUDGET:
                    raise ValueError(f"candidate budget {CANDIDATE_BUDGET} exceeded")
                if homogeneous(f, n, q) == 0:
                    roots.add(Fraction(n, q))
                    break
            if modulus > stop:
                break
            modulus *= modulus
            v, d = _value_and_slope(f, r, modulus)
            r = (r - v * pow(d, -1, modulus)) % modulus
    return frozenset(roots)


@dataclass(frozen=True)
class MonotonicityReport:
    m_max: int
    ok: bool
    failures: tuple = ()


def check_root_solutions(m: int) -> list[Fraction]:
    """b0 values among +-(2j+1)/3 whose instantiated coefficients fail (L_m).

    Empty list means every predicted root, with both signs of b0, yields
    an exact solution of the coefficient system.

    The system is checked in t = b0**2 in one pass: `system_polynomials`
    reads the pair chain `coefficient_polynomials(m)` as it is built, so
    only the pairs of the equation at hand are alive.  The 2m recurrence
    equations are integer polynomial identities, so each needs one
    check; only the nonzero ones (normally just the closing
    p_m - t*q_m) are kept and evaluated at each root, in integers as
    9**D * R((2j+1)**2 / 9).  Both signs of b0 share t.
    """
    nonzero = [r for r in system_polynomials(m, coefficient_polynomials(m)) if any(r)]
    bad = []
    for j in range(1, m + 2):
        n = (2 * j + 1) ** 2
        if any(homogeneous(r, n, 9) != 0 for r in nonzero):
            bad += [Fraction(2 * j + 1, 3), Fraction(-(2 * j + 1), 3)]
    return bad


def monotonicity_check(m_max: int) -> MonotonicityReport:
    """Confirm the root-set chain: every root of P_{m-1} is a root of P_m.

    Each P_m is built on its own (the recurrence depends on m), in turn,
    and each root n/q is tested in integers as q**D * P_m(n/q) = 0.
    """
    if m_max < 2:
        raise ValueError("chain check requires m_max >= 2")
    failures = []
    for m in range(2, m_max + 1):
        integer = build_amn_polynomial(m).integer
        failures += [
            (m, r)
            for r in predicted_roots(m - 1).roots
            if homogeneous(integer.coeffs, r.numerator, r.denominator) != 0
        ]
    return MonotonicityReport(m_max, not failures, tuple(failures))


def timed(timings: dict, key: str, fn, *args):
    """fn(*args), with its wall time in milliseconds stored as timings[key]."""
    t0 = time.perf_counter()
    result = fn(*args)
    timings[key] = (time.perf_counter() - t0) * 1000
    return result


def verification_report(m: int, chain: bool = False) -> dict:
    """Run the full exact verification for one m; JSON-ready.

    The build stage makes P_m as `poly` does; the oracle reads only its
    integer form.  The pair chain is built in the system stage, the only
    stage that reads it.
    """
    timings: dict[str, float] = {}
    predicted = predicted_roots(m)
    amn = timed(timings, "build_ms", build_amn_polynomial, m)
    oracle = timed(timings, "oracle_ms", rational_root_oracle, amn.integer)
    fact = timed(timings, "factorization_ms", verify_factorization, amn)
    system_ok = not timed(timings, "system_ms", check_root_solutions, m)
    monotone_ok = True
    if chain and m >= 2:
        monotone_ok = timed(timings, "monotonicity_ms", monotonicity_check, m).ok

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
