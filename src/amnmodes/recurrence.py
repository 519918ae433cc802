"""The coefficient recurrence behind the zero-mode ansatz.

The ansatz coefficients a_j, b_j of the order-m spinor field split by
parity in b0: a_j = p_j(b0**2) and b_j = b0 * q_j(b0**2).  Working in the
variable t = b0**2 halves every degree, and the order-m closing
polynomial is P_m(t) = t*q_m(t) - p_m(t).

The chain of (p_j, q_j) pairs is stepped fraction-free in integers by
`coefficient_polynomials`, which returns only the closing pair
(p_m, q_m); the tests check that pair against an independent 2x2 matrix
product over the rationals, whose pairs solve all 2m recurrence
equations.  Only the system check reads the closing pair, through the
closing equation p_m - t*q_m = 0; `instantiate_solution` steps the same
recurrence on numbers at one b0, in plain Fractions.

P_m itself comes from a three-term recurrence in p_j alone.  With
w_j = 2m+5-2j the pair step reads

    2j p_j = w_j p_{j-1} - 3t q_{j-1},
    (2j+3) q_j = (2m+2-2j) q_{j-1} + 3 p_j.

The first at index j+1 gives 3t q_j = w_{j+1} p_j - 2(j+1) p_{j+1};
substituted into 3t times the second, the t p_{j-1} terms cancel.  In
s = 9t the -9t p_j term is a plain shift of p_j, with no multiplication:

    2(j+1)(2j+3) p_{j+1} = [(2j+3)(2m+3-2j) + 2j(2m+2-2j) - s] p_j
                           - (2m+2-2j)(2m+5-2j) p_{j-1},

from p_0 = 1 and p_1 = (3(2m+3) - s)/6; the coefficient of s^i times 9^i
is that of t^i.  The first equation taken at
j = m+1, where w_{m+1} = 3, reads 2(m+1) p_{m+1} = 3(p_m - t q_m), so

    P_m = -(2(m+1)/3) p_{m+1},

which is how `build_amn_polynomial` makes it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import zip_longest

from .polynomials import (
    IntPoly,
    over_common_denominator,
    primitive_integer_form,
    rational_to_string,
    times_linear,
)


@dataclass(frozen=True)
class AnsatzSolution:
    """Numeric coefficient lists of an order-m ansatz at a chosen b0."""

    m: int
    b0: Fraction
    a: tuple
    b: tuple


def family_b0(j: int, sign: int = 1) -> Fraction:
    """b0 = sign (2j+1)/3 of the family member (j, sign), j >= 1: b0**2 is the
    j-th root of P_m for every m >= j-1, and (m+1, +) is the designated member."""
    return Fraction(sign * (2 * j + 1), 3)


def family_member(b0) -> tuple[int, int]:
    """(j, sign) with family_b0(j, sign) == b0, the inverse of `family_b0`."""
    j = (3 * abs(Fraction(b0)) - 1) / 2
    if j.denominator != 1 or j < 1:
        raise ValueError(f"b0 = {b0} is no family member")
    return int(j), 1 if b0 > 0 else -1


def coefficient_polynomials(m: int) -> tuple[tuple, tuple]:
    """The closing pair (P, Q) of the chain, integer coefficient tuples
    ascending in t, with p_m = P/D and q_m = Q/D, D = prod_{j=1..m} 2j(2j+3).

    Stepped from pair 0 = (1, 1), which encodes a_0 = 1, b_0 = b0, by
    p_j = (w p_{j-1} - 3t q_{j-1}) / 2j,
    q_j = (3w p_{j-1} + 2j(2m+2-2j) q_{j-1} - 9t q_{j-1}) / 2j(2j+3),
    w = 2m+5-2j, taken fraction-free: each step multiplies the implicit
    denominator by 2j(2j+3).  The j = 1 step gives the closed form
    p_1 = ((2m+3) - 3t)/2, q_1 = ((10m+9) - 9t)/10.
    """
    p, q = (1,), (1,)
    for j in range(1, m + 1):
        w = 2 * m + 5 - 2 * j
        v = 2 * j * (2 * m + 2 - 2 * j)
        pa, pc, qa = (2 * j + 3) * w, 3 * (2 * j + 3), 3 * w
        cols = zip_longest(p, q, (0,) + q, fillvalue=0)  # p, q, t*q
        p, q = zip(*((pa * a - pc * c, qa * a + v * b - 9 * c) for a, b, c in cols))
    return p, q


@dataclass(frozen=True)
class AmnPolynomial:
    """P_m = t*q_m - p_m as its primitive integer form: integer = scale * P_m."""

    m: int
    integer: IntPoly
    scale: Fraction


def build_amn_polynomial(m: int) -> AmnPolynomial:
    """P_m = -(2(m+1)/3) p_{m+1}, m >= 0, from the three-term recurrence in p_j.

    Fraction-free in s = 9t: p_j = P_j(s)/D_j, D_1 = 6, with integer
    coefficients and D_{j+1} = D_j * 2(j+1)(2j+3), so the p_{j-1} term is
    scaled by D_j/D_{j-1}.  Only two polynomials are alive at a time.
    """
    prev, cur = (1,), (6 * m + 9, -1)  # p_0 and p_1 in s, over D_0 = 1 and D_1 = 6
    den, ratio = 6, 6  # D_j and D_j/D_{j-1}
    for j in range(1, m + 1):
        u = 2 * m + 2 - 2 * j
        c0 = (2 * j + 3) * (u + 1) + 2 * j * u
        c1 = u * (u + 3) * ratio
        cols = zip_longest(cur, (0,) + cur, prev, fillvalue=0)  # p_j, s*p_j, p_{j-1}
        prev, cur = cur, tuple(c0 * a - b - c1 * c for a, b, c in cols)
        ratio = 2 * (j + 1) * (2 * j + 3)
        den *= ratio
    cur = [c * 9**i for i, c in enumerate(cur)]  # P_{m+1} in t: s^i = 9^i t^i
    # P_m = -2(m+1) P_{m+1} / (3 D_{m+1}), so integer = k * P_{m+1} = scale * P_m
    integer, k = primitive_integer_form(cur)
    return AmnPolynomial(m, integer, k * Fraction(3 * den, -2 * (m + 1)))


def closed_form_extremes(m: int) -> tuple[Fraction, Fraction]:
    """(c_m, d_m), m >= 0, by direct product, independent of the recurrence.

    c_m = 5*7*9*...*(2m+3) / (2**m * m!) is the constant coefficient of
    p_m; d_m = (-1)**m * 3**(2m) / (5*7*...*(2m+3) * 2**m * m!) is the
    leading coefficient of q_m.  They are also minus the constant and the
    leading coefficient of the rational P_m.
    """
    odd = 1
    fact = 1
    for k in range(1, m + 1):
        odd *= 2 * k + 3
        fact *= k
    c = Fraction(odd, 2**m * fact)
    d = Fraction((-1) ** m * 3 ** (2 * m), odd * 2**m * fact)
    return c, d


def instantiate_solution(m: int, b0) -> AnsatzSolution:
    """Numeric coefficients at b0, stepped in Fractions from a_0 = 1, b_0 = b0 for j = 1..m:

        a_j = ((2m+5-2j) a_{j-1} - 3 b0 b_{j-1}) / 2j,
        b_j = ((2m+2-2j) b_{j-1} + 3 b0 a_j) / (2j+3),

    the a- and b-equations of `verify_system` solved for a_j and b_j.
    b0 need not be a root of P_m; `verify_system` reports the defect in
    the closing equation.  m = 0 is the base case (a, b) = ((1,), (b0,)).
    """
    b0 = Fraction(b0)
    a, b, c = [Fraction(1)], [b0], 3 * b0
    for j in range(1, m + 1):
        a.append(((2 * m + 5 - 2 * j) * a[-1] - c * b[-1]) / (2 * j))
        b.append(((2 * m + 2 - 2 * j) * b[-1] + c * a[-1]) / (2 * j + 3))
    return AnsatzSolution(m, b0, tuple(a), tuple(b))


def closed_form_integers(m: int, k: int, sign: int) -> tuple[int, list, list]:
    """(den, a, b) in integers: the order-k designated coefficients with
    b0 = sign (2k+3)/3, lifted to order m, are a/den and b/den.

    a_n/a_{n-1} = -(k-n+1)(2k+5-2n)/(n(2n+1)) from a_0 = 1, and
    b_n = sign a_n (2k+3-2n)/(2n+3).  den is the product of the ratios'
    denominators times lcm(3, 5, ..., 2k+3), so every division below is
    exact.  Each lift multiplies a and b by 1 + |x|**2; the lift of an
    exact solution solves the next order's system (`root_theorem_failures`).
    """
    if not 0 <= k <= m:
        raise ValueError(f"closed form defined for k in 0..m, not k = {k} at m = {m}")
    ratios = [(-(k - n + 1) * (2 * k + 5 - 2 * n), n * (2 * n + 1)) for n in range(1, k + 1)]
    den = math.lcm(*range(3, 2 * k + 4, 2)) * math.prod(q for _, q in ratios)
    a = [den]
    for p, q in ratios:
        a.append(a[-1] * p // q)
    b = [sign * c * (2 * k + 3 - 2 * n) // (2 * n + 3) for n, c in enumerate(a)]
    for _ in range(m - k):
        a, b = times_linear(a, -1, 1), times_linear(b, -1, 1)
    return den, list(a), list(b)


def _residuals(m: int, beta: int, gamma: int, a, b) -> list:
    """The integer core of `verify_system`: its 2m+1 equations times gamma,
    on integer lists a, b of length m+1 at b0 = beta/gamma.

    Linear in (a, b) and, separately, in (beta, gamma); every coefficient
    is affine in m and in the equation index.
    """
    res = [gamma * (2 * j * a[j] - (2 * m + 5 - 2 * j) * a[j - 1]) + 3 * beta * b[j - 1]
           for j in range(1, m + 1)]
    res += [gamma * ((2 * k + 3) * b[k] - (2 * m + 2 - 2 * k) * b[k - 1]) - 3 * beta * a[k]
            for k in range(1, m + 1)]
    return [*res, gamma * a[m] - beta * b[m]]


def closed_form_failures(m: int, k: int, sign: int) -> tuple:
    """The checks that `closed_form_integers(m, k, sign)` fails in the order-m system; empty on a pass."""
    den, a, b = closed_form_integers(m, k, sign)
    b0 = family_b0(k + 1, sign)
    beta, gamma = b0.numerator, b0.denominator
    names = ["a_0", "b_0", *["a-identity"] * m, *["b-identity"] * m, "closing identity"]
    values = [a[0] - den, gamma * b[0] - beta * den, *_residuals(m, beta, gamma, a, b)]
    return tuple(name for name, r in zip(names, values) if r)


def verify_system(s: AnsatzSolution) -> list[Fraction]:
    """Exact residuals of the 2m+1 coefficient equations.

    Ordering: the odd-labelled a-equations for j = 1..m, then the
    even-labelled b-equations for k = 1..m, then the closing equation
    a_m = b0*b_m, whose residual equals -P_m(b0**2).  Each is formed by
    `_residuals` in integers times L gamma, L the lcm denominator of a
    and b, b0 = beta/gamma.
    """
    gamma = s.b0.denominator
    den, (a, b) = over_common_denominator(s.a, s.b)
    return [Fraction(r, den * gamma) for r in _residuals(s.m, s.b0.numerator, gamma, a, b)]


@cache
def root_theorem_failures() -> tuple:
    """The failures of a certificate that, for every m >= 0, the roots of
    P_m are ((2k+3)/3)**2 for k = 0..m, each simple; empty on a pass.  It
    reads no input, so it runs once per process.

    Each identity is checked through `_residuals` on a grid with one point
    more per variable than its degree in that variable, which proves a
    polynomial identity (Petkovsek, Wilf and Zeilberger, "A = B", 1996).

    Designated solution `closed_form_integers(m, m, 1)`, b0 = (2m+3)/3:
    a_j = r_1...r_j and b_n = beta_n a_n, with r_j = -(m-j+1)(2m+5-2j)/(j(2j+1))
    and beta_n = (2m+3-2n)/(2n+3), so a_0 = 1 and b_0 = b0.  The a- and
    b-equations at j are a_{j-1} times 2j r_j - (2m+5-2j) + 3 b0 beta_{j-1}
    and (2j+3) beta_j r_j - (2m+2-2j) beta_{j-1} - 3 b0 r_j; times j(2j+1)
    both are integer polynomials of degree <= 3 in m and in j.  The closing
    one is a_m (1 - b0 beta_m), of degree <= 1 in m times 2m+3.  r_i = 0
    only at i = m+1, so `closed_form_failures(m, m, 1)` at m = 4..7 checks
    them on a 4 x 4 grid (j = 1..4, where a_{j-1} != 0); at m = 0 only the
    closing one is left, 1 - 1 = 0.

    Lift: with A_n, B_n, C the a-, b- and closing residuals of (a, b) at
    order m and A', B', C' those of the lift times_linear(., -1, 1) at m+1,
    A'_n = A_n + A_{n-1} (A_0 := 0) and B'_n = B_n + B_{n-1}
    (B_0 := 3(gamma b_0 - beta a_0)) for n = 1..m, A'_{m+1} = A_m - 3C,
    B'_{m+1} = B_m and C' = C.  Both sides are linear in (a, b) and in
    (beta, gamma), with a coefficient affine in (m, n) at each offset below
    n (or m), so the unit vectors at m = 3, 4 with (beta, gamma) = (1, 0), (0, 1)
    meet every offset on a 2 x 2 grid (n = 2, 3).  A_0 and B_0 are the residuals
    at index 0 with a_(-1) = b_(-1) = 0, so the lift from order 0 is covered.

    Hence: the equations fix the solution from a_0 = 1 and b_0 = b0 a_0
    (B_0 = 0); it is `instantiate_solution(m, b0)`, whose closing residual
    is -P_m(b0**2).  The order-k designated solution lifted m-k times is
    that solution at b0 = (2k+3)/3, so P_m has the m+1 distinct roots
    ((2k+3)/3)**2, k <= m.  Its degree is m+1 (d_m != 0), so these are all
    its roots, each simple, and every root of P_{m-1} is one of P_m.
    """
    failures = []
    for m in range(4, 8):
        failures += [f"designated {name} at m = {m}" for name in closed_form_failures(m, m, 1)]
    for m in (3, 4):
        names = (["A'_n = A_n + A_(n-1)"] * m + ["A'_(m+1) = A_m - 3C"]
                 + ["B'_n = B_n + B_(n-1)"] * m + ["B'_(m+1) = B_m", "C' = C"])
        for beta, gamma in ((1, 0), (0, 1)):
            for i in range(2 * m + 2):
                unit = [int(k == i) for k in range(2 * m + 2)]
                a, b = unit[:m + 1], unit[m + 1:]
                res = _residuals(m, beta, gamma, a, b)
                sums_a = times_linear((0, *res[:m]), -1, 1)[1:]
                sums_b = times_linear((3 * (gamma * b[0] - beta * a[0]), *res[m:-1]), -1, 1)[1:]
                want = [*sums_a[:-1], sums_a[-1] - 3 * res[-1], *sums_b, res[-1]]
                got = _residuals(m + 1, beta, gamma, times_linear(a, -1, 1), times_linear(b, -1, 1))
                failures += [f"lift {name} at m = {m}" for name, x, y in zip(names, got, want) if x != y]
    return tuple(dict.fromkeys(failures))


def polynomial_report(m: int) -> dict:
    """JSON-ready description of P_m with the closed-form extremes."""
    amn = build_amn_polynomial(m)
    c, d = closed_form_extremes(m)
    return {
        "m": m,
        "rational_coefficients": [rational_to_string(k / amn.scale) for k in amn.integer.coeffs],
        "integer_coefficients": [str(c) for c in amn.integer.coeffs],
        "scale": rational_to_string(amn.scale),
        "c_m": rational_to_string(c),
        "d_m": rational_to_string(d),
    }


def solution_report(s: AnsatzSolution) -> dict:
    """JSON-ready description of an instantiated solution."""
    return {
        "m": s.m,
        "b0": rational_to_string(s.b0),
        "a": [rational_to_string(x) for x in s.a],
        "b": [rational_to_string(x) for x in s.b],
        "residuals": [rational_to_string(r) for r in verify_system(s)],
    }


def timed(timings: dict, key: str, fn, *args):
    """fn(*args), with its wall time in milliseconds stored as timings[key]."""
    t0 = time.perf_counter()
    result = fn(*args)
    timings[key] = (time.perf_counter() - t0) * 1000
    return result
