"""Exact root verification for the closing polynomials.

Everything here is exact: the factorization check multiplies out the
predicted linear factors in integers, and the rational-root oracle finds
the roots from P_m alone, by p-adic lifting, never consulting the
predicted set.  No floating-point root finding anywhere; NumPy evaluates
polynomials modulo word-size moduli only, where every sum fits int64.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, zip_longest

import numpy as np

from .polynomials import IntPoly, homogeneous, primitive_integer_form, rational_to_string, times_linear
from .recurrence import (
    AmnPolynomial,
    build_amn_polynomial,
    closed_form_extremes,
    coefficient_polynomials,
    family_b0,
    root_theorem_failures,
    timed,
)


@lru_cache(maxsize=1)
def root_product(roots: frozenset) -> IntPoly:
    """prod(q*t - n) over the rationals n/q.

    Primitive by Gauss's lemma, with leading coefficient prod(q) > 0: the
    primitive integer form of every polynomial of degree len(roots)
    whose roots are exactly these, each simple.  It depends on the set
    alone, so the last one formed is kept: on a passing `verify` the
    oracle's survivors are the predicted roots, and the oracle and both
    checks share one product.
    """
    product = (1,)
    for r in roots:
        product = times_linear(product, r.numerator, r.denominator)
    return IntPoly(product)


def predicted_roots(m: int) -> tuple:
    """The claimed root set of P_m, m >= 0: family_b0(j)**2 = ((2j+1)/3)**2 for j = 1..m+1."""
    return tuple(family_b0(j) ** 2 for j in range(1, m + 2))


def verify_factorization(amn: AmnPolynomial, predicted: tuple) -> tuple:
    """The failures of P_m against its claimed complete factorization; empty on a pass.

    Exact checks: the product prod(q*t - n) over the predicted roots n/q
    of P_m, primitive by Gauss's lemma, equals `amn.integer` (so every
    root vanishes), and P_m = `amn.integer` / `amn.scale` has leading
    coefficient d_m, so P_m = d_m * prod(t - root).
    """
    product = root_product(frozenset(predicted))
    d = closed_form_extremes(amn.m)[1]
    failures = []
    if product != amn.integer:
        columns = zip_longest(product.coeffs, amn.integer.coeffs, fillvalue=0)
        i, x, y = next((i, x, y) for i, (x, y) in enumerate(columns) if x != y)
        failures.append(f"coefficient of t^{i}: product {x} != P_m {y}")
    lead = amn.integer.coeffs[-1] / amn.scale
    if lead != d:
        failures.append(f"leading coefficient {lead} != d_m {d}")
    return tuple(failures)


# primes tried per search, from the first one above 2*deg upward
PRIME_SEARCH = 32
# the largest prime below 2**26: f mod it screens the oracle's candidates
SCREEN_PRIME = 67_108_859


def _value_and_slope(f: tuple, x: int, mod: int) -> tuple[int, int]:
    """(f(x), f'(x)) mod `mod`, by one Horner pass; f ascending."""
    v = d = 0
    for c in reversed(f):
        d = (d * x + v) % mod
        v = (v * x + c) % mod
    return v, d


def _values_and_slopes(f: tuple, xs, mod: int) -> tuple[list[int], list[int]]:
    """The lists of f(x) and of f'(x) mod `mod` over the points xs; f ascending.

    f is reduced mod `mod` once.  While len(f) * mod**2 < 2**63 every sum
    below fits int64, and all points are evaluated at once: with blocks
    of B ~ sqrt(len(f)) coefficients, f(x) = sum_b x**(b*B) sum_a
    c_(a+b*B) x**a, so one product of the powers [x**a] (a < B) with the
    coefficient blocks of f and f' gives every inner sum, and a row sum
    against [x**(b*B)] the rest.  Past that bound, one Horner pass per
    point in Python ints.
    """
    f = [c % mod for c in f]
    n = len(f)
    if n * mod * mod >= 2**63:
        pairs = [_value_and_slope(f, x, mod) for x in xs]
        return [v for v, _ in pairs], [d for _, d in pairs]
    df = [k * c % mod for k, c in enumerate(f)][1:]
    width = math.isqrt(n - 1) + 1  # B, with B * B >= n
    blocks = -(-n // width)
    pad = [0] * (width * blocks - n)
    coeffs = np.array([f + pad, df + pad + [0]], dtype=np.int64)
    coeffs = coeffs.reshape(2 * blocks, width).T  # column b: block b of f, then of f'
    x = np.array([point % mod for point in xs], dtype=np.int64)
    powers = np.ones((len(x), width), dtype=np.int64)
    for a in range(1, width):
        powers[:, a] = powers[:, a - 1] * x % mod
    inner = powers @ coeffs % mod
    step = powers[:, -1] * x % mod  # x**B
    outer = np.ones((len(x), blocks), dtype=np.int64)
    for b in range(1, blocks):
        outer[:, b] = outer[:, b - 1] * step % mod
    values = (outer * inner[:, :blocks]).sum(axis=1) % mod
    slopes = (outer * inner[:, blocks:]).sum(axis=1) % mod
    return values.tolist(), slopes.tolist()


def _simple_roots_mod_p(f: tuple) -> tuple[int, list[int]] | None:
    """The first prime p > 2*deg in the search window that does not divide
    the leading coefficient and keeps every root of f mod p simple, with
    those roots (f and f' evaluated at all of 0..p-1 at once); None when
    no prime qualifies."""
    primes = (k for k in count(2 * len(f) - 1) if all(k % d for d in range(2, math.isqrt(k) + 1)))
    for p in islice(primes, PRIME_SEARCH):
        if f[-1] % p == 0:
            continue
        values, slopes = _values_and_slopes(f, range(p), p)
        if not any(v == 0 == d for v, d in zip(values, slopes)):
            return p, [x for x, v in enumerate(values) if v == 0]
    return None


def _screen(f: tuple, candidates: list) -> list[bool]:
    """For each candidate n/q, False when f(n/q) != 0 mod `SCREEN_PRIME`.

    A root of f always passes, and so does an n/q whose q the prime
    divides (n/q has no value mod the prime then).
    """
    prime = SCREEN_PRIME
    points = [
        r.numerator * pow(r.denominator, -1, prime) if r.denominator % prime else 0 for r in candidates
    ]
    values = _values_and_slopes(f, points, prime)[0]
    return [v == 0 or r.denominator % prime == 0 for r, v in zip(candidates, values)]


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
    a, b = f, [k * c for k, c in enumerate(f)][1:]
    while b:  # Euclid on primitive remainders; a ends as gcd(f, f'), primitive
        b = primitive_integer_form(b)[0].coeffs
        a, b = b, _pseudo_divmod(a, b)[1]
    return primitive_integer_form(_pseudo_divmod(f, a)[0])[0].coeffs


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


def _lift(f: tuple, prime: int, residues: list, test) -> list:
    """The candidates n/q that `test` accepts, one per residue at most, by
    Newton lifting of the simple roots `residues` of f mod `prime`.

    At each level, modulus p**(2**i), rational reconstruction proposes one
    candidate per residue; those with n | const and q | lead go to
    `test(f, candidates)`, and a residue whose candidate it accepts stops
    lifting.  The rest are lifted once, to the squared modulus, with f
    reduced there once.  Past p**k > stop = 2*max(|const|, lead)**2 a
    rational root cannot fail to reconstruct, so the loop stops there: it
    calls `test` at most ceil(log2 log_p(stop)) + 1 times, with at most
    len(residues) candidates each.
    """
    const, lead = f[0], f[-1]
    stop = 2 * max(abs(const), lead) ** 2
    modulus, kept = prime, []
    while True:
        candidates, rest = [], []
        for r in residues:
            n, q = _reconstruct(r, modulus)
            if n and const % n == 0 and lead % q == 0:
                candidates.append((Fraction(n, q), r))
            else:
                rest.append(r)
        for (c, r), ok in zip(candidates, test(f, [c for c, _ in candidates])):
            if ok:
                kept.append(c)
            else:
                rest.append(r)
        if not rest or modulus > stop:
            return kept
        modulus *= modulus
        steps = zip(rest, *_values_and_slopes(f, rest, modulus))
        residues = [(r - v * pow(d, -1, modulus)) % modulus for r, v, d in steps]


def rational_root_oracle(p: IntPoly) -> frozenset:
    """Complete set of rational roots, by p-adic lifting (R. Loos, SIAM J.
    Comput. 12, 1983); independent of `predicted_roots`.

    Zero roots are split off; a nonzero constant has none.  A rational
    root n/q has n | const and q | lead, so for a prime p not dividing lead
    it reduces to a root of P mod p; the prime is chosen so that every
    such root is simple (P is replaced by its squarefree part if no prime
    in the window qualifies).
    `_lift` lifts those residues together, each candidate screened mod
    `SCREEN_PRIME`.  A root always passes the screen, so every residue
    that lifts to a rational root ends with a survivor.  The survivors are
    distinct mod p, so if prod(q*t - n) over them divides P exactly, each
    of them is a root and the set is complete.  Only otherwise is the
    lifting run again from p, with the exact test q**D * P(n/q) = 0 in
    place of the screen.
    """
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
    kept = _lift(f, *found, _screen)
    product = root_product(frozenset(kept)).coeffs
    if product != f and _pseudo_divmod(f, product)[1]:
        kept = _lift(
            f, *found, lambda f, cs: [homogeneous(f, c.numerator, c.denominator) == 0 for c in cs]
        )
    return frozenset(roots.union(kept))


def check_root_solutions(m: int, product: IntPoly) -> tuple:
    """The b0 = `family_b0(j, +-1)`, j = 1..m+1, whose instantiated coefficients fail (L_m).

    An empty tuple means every predicted root, with both signs of b0, yields
    an exact solution of the coefficient system.  `product` is the
    predicted prod(q*t - n) over the roots n/q of P_m.

    The pair chain `coefficient_polynomials(m)` solves the 2m recurrence
    equations by construction, its step being those equations solved for
    p_j and q_j, so only the closing equation R = p_m - t*q_m is checked,
    in t = b0**2, on the closing pair that the chain returns.  That is a
    route to P_m of its own, apart from `build_amn_polynomial`.  When
    the primitive form of R is `product`, R vanishes at every root and
    the check is done.  Otherwise R is evaluated at each root t = b0**2,
    in integers as q**D * R(n/q) for t = n/q, so the failing b0 are named.
    Both signs of b0 share t.  A closing equation that vanishes identically
    is no route to P_m: it is the one failure, named as such.
    """
    p, q = coefficient_polynomials(m)
    closing = tuple(a - c for a, c in zip_longest(p, (0,) + q, fillvalue=0))
    if not any(closing):
        return ("closing equation vanishes identically",)
    if primitive_integer_form(closing)[0] == product:
        return ()
    bad = ()
    for j in range(1, m + 2):
        b0 = family_b0(j)
        t = b0 * b0
        if homogeneous(closing, t.numerator, t.denominator) != 0:
            bad += (b0, -b0)
    return bad


def verification_report(m: int) -> tuple[dict, bool]:
    """Run the full exact verification for one m: the JSON-ready report and
    the verdict, True when every check passed.

    The build stage makes P_m as `poly` does; the oracle reads only its
    integer form.  On a pass the oracle forms the `root_product` that the
    other two checks reuse.  The pair chain is stepped to its closing pair
    in the system stage, the only stage that reads it.  `monotonicity_ok` reports
    `root_theorem_failures`, the certificate for every m, which runs once
    per process and is not timed.
    """
    timings: dict[str, float] = {}
    predicted = predicted_roots(m)
    amn = timed(timings, "build_ms", build_amn_polynomial, m)
    oracle = timed(timings, "oracle_ms", rational_root_oracle, amn.integer)
    factor_failures = timed(timings, "factorization_ms", verify_factorization, amn, predicted)
    product = root_product(frozenset(predicted))  # formed by now, in the factorization stage
    system_ok = not timed(timings, "system_ms", check_root_solutions, m, product)
    certified = not root_theorem_failures()
    matches = oracle == set(predicted)
    report = {
        "m": m,
        "predicted": [rational_to_string(r) for r in predicted],
        "oracle": [rational_to_string(r) for r in sorted(oracle)],
        "oracle_matches": matches,
        "factorization_ok": not factor_failures,
        "factorization_failures": list(factor_failures),
        "system_ok": system_ok,
        "monotonicity_ok": certified,
        "timings_ms": timings,
    }
    return report, matches and not factor_failures and system_ok and certified
