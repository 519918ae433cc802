"""Reference routes that the tests compare the package against; no request runs them.

Each route reaches a production result another way; its docstring says
how.  The third column names what the two share, where a fault would
not show up as a disagreement.

| Production route | Reference route | Shared |
|---|---|---|
| `coefficient_polynomials` | `matrix_chain_pair` (`seed_pair`, `recurrence_matrix`) | nothing |
| the chain's 2m recurrence equations | `system_polynomials` | the chain |
| `build_amn_polynomial` | `pair_route`; `matrix_chain_pair(m, m)` | the chain (`pair_route`) |
| `instantiate_solution` | `evaluate_pairs` | the chain, `homogeneous` |
| `verify_system` | `fraction_verify_system` | nothing |
| the lift in `closed_form_solution` | `lift_solution` | `times_linear`, `verify_system` |
| `verify_factorization` | `deflate` | nothing |
| `check_root_solutions` | `reference_root_solutions` | the chain, `verify_system` |
| `root_theorem_failures` | `monotonicity_check` | the build, `root_product`, `homogeneous` |
| `ZeroModeField.evaluate` | `reference_evaluate`; `PowerBasisField`; `mp_psi` | `_jacobi`, `_spinor` (first) |
| `ZeroModeField.sigma_d` | `reference_sigma_d`; `fields._sigma_d` | `_jacobi`, `_spinor` (first) |
| sigma.D psi = h psi | `loss_yau_residual` | `evaluate`, `h`, `_sigma_d` |
| `l2_norm_squared` | `beta_sum_l2`; `fraction_l2`; `quadrature_l2` | `over_common_denominator` (first) |
| `sample_grid` | `csv_reference` | `_grid_rows` |

Helpers on ascending coefficient tuples: `trim`, `add`, `mul`, `horner`,
`rational_form`.  `plus_one` is a tampered P_m, and `enumerate_family`
lists every verified field of an order.
"""

import csv
import io
import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import zip_longest

import mpmath
import numpy as np
from scipy.integrate import quad

from amnmodes import fields, recurrence, roots
from amnmodes.fields import CSV_COLUMNS, ZeroModeField, _sigma_d
from amnmodes.polynomials import homogeneous, primitive_integer_form, times_linear
from amnmodes.recurrence import (
    AmnPolynomial,
    AnsatzSolution,
    CoeffPair,
    coefficient_polynomials,
    family_b0,
    instantiate_solution,
    verify_system,
)
from amnmodes.roots import predicted_roots

F = Fraction


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


def plus_one(amn):
    """P_m + 1 in primitive integer form: it vanishes at no predicted root."""
    bad = list(rational_form(amn))
    bad[0] += 1
    return AmnPolynomial(amn.m, *primitive_integer_form(bad))


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


def pair_route(m):
    """t*q_m - p_m from the pair chain: the reference route of P_m."""
    last = list(coefficient_polynomials(m))[m]
    cols = zip_longest(last.p, (0,) + last.q, fillvalue=0)
    return trim(F(c - a, last.den) for a, c in cols)


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


def lift_solution(s: AnsatzSolution) -> AnsatzSolution:
    """Order m -> m+1 via multiplication by (1 + |x|**2).

    The lifted coefficients are those of the polynomials in |x|**2 times
    1 + |x|**2, the adjacent-pair sums; the lift of an exact solution
    solves the order-(m+1) system with the same b0.
    """
    if any(r != 0 for r in verify_system(s)):
        raise ValueError("lift requires an exact (L_m) solution")
    return AnsatzSolution(s.m + 1, s.b0, times_linear(s.a, -1, 1), times_linear(s.b, -1, 1))


def deflate(p, r):
    """Exact synthetic division of p, ascending coefficients, by (t - r); r
    must be a root.

    The reference route for `verify_factorization`: P_m deflated by every
    predicted root leaves the constant d_m.
    """
    r = Fraction(r)
    out = []
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    if out[-1] != 0:
        raise ValueError(f"{r} is not a root")
    return tuple(reversed(out[:-1]))


def reference_root_solutions(m, pairs):
    """The per-root route: evaluate the chain at each b0 = +-(2j+1)/3, run verify_system."""
    bad = ()
    for j in range(1, m + 2):
        for sign in (1, -1):
            b0 = F(sign * (2 * j + 1), 3)
            if any(r != 0 for r in verify_system(evaluate_pairs(pairs, b0))):
                bad += (b0,)
    return bad


def monotonicity_check(m_max):
    """The reference chain: the failures (m, root) where a root of P_{m-1}
    is no root of P_m, for m = 2..m_max; empty when the chain holds.

    Builds every P_m in turn and compares it with one running product
    prod(q*t - n) over the predicted roots, which gains the factor of
    P_m's new root at each order; only on a mismatch is each root n/q of
    P_{m-1} tested as q**D * P_m(n/q) = 0.  It reads the build and the
    exact test through `roots` when called, so a test's monkeypatches of
    `roots.build_amn_polynomial` and `roots.homogeneous` apply.
    """
    if m_max < 2:
        raise ValueError("chain check requires m_max >= 2")
    rs = predicted_roots(m_max)
    running = roots.root_product(frozenset(rs[:2])).coeffs
    failures = []
    for m in range(2, m_max + 1):
        integer = roots.build_amn_polynomial(m).integer
        running = times_linear(running, rs[m].numerator, rs[m].denominator)
        if running != integer.coeffs:
            failures += [(m, r) for r in rs[:m]
                         if roots.homogeneous(integer.coeffs, r.numerator, r.denominator) != 0]
    return tuple(failures)


def enumerate_family(m: int) -> list[ZeroModeField]:
    """All 2(m+1) verified fields of order m, both root signs.

    Ordered by (j, sign) with the positive sign first; the designated
    field is the (j = m+1, +) member.
    """
    if m < 1:
        raise ValueError("family enumeration defined for m >= 1")
    return [ZeroModeField(instantiate_solution(m, family_b0(j, sign)))
            for j in range(1, m + 2) for sign in (1, -1)]


class PowerBasisField:
    """The reference route: psi = <x>^-(3+2m) [A(|x|^2) + B(|x|^2) X] phi0
    from the exact a_n, b_n in the power basis, in doubles, per point.

    It checks nothing, so a perturbed non-solution evaluates too; it is
    accurate only at low order (cancellation grows with m).
    """

    def __init__(self, solution: AnsatzSolution):
        self.m = solution.m
        self.alpha = float(3 * solution.b0)
        self.a = np.array([float(c) for c in solution.a])
        self.b = np.array([float(c) for c in solution.b])

    def _amplitudes(self, u: float) -> tuple[float, float]:
        powers = u ** np.arange(self.m + 1)
        return float(self.a @ powers), float(self.b @ powers)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = float(x @ x)
        amp_a, amp_b = self._amplitudes(u)
        pref = (1.0 + u) ** (-(3 + 2 * self.m) / 2)
        return pref * np.array([amp_a + 1j * amp_b * x[2], amp_b * (1j * x[0] - x[1])])

    def h(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return self.alpha / (1.0 + float(x @ x))

    def radial_density(self, r: float) -> float:
        """|psi|^2 on the sphere of radius r."""
        amp_a, amp_b = self._amplitudes(r * r)
        return (1.0 + r * r) ** (-(3 + 2 * self.m)) * (amp_a**2 + r * r * amp_b**2)


def mp_psi(f: ZeroModeField, x) -> list:
    """psi at x from the exact a_n, b_n in the power basis, to 50 digits."""
    with mpmath.workdps(50):
        x1, x2, x3 = (mpmath.mpf(float(v)) for v in x)
        u = x1 * x1 + x2 * x2 + x3 * x3
        amp_a = mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator for c in reversed(f.a)], u)
        amp_b = mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator for c in reversed(f.b)], u)
        pref = (1 + u) ** (-mpmath.mpf(3 + 2 * f.m) / 2)
        return [
            complex(pref * amp_a, pref * amp_b * x3),
            complex(-pref * amp_b * x2, pref * amp_b * x1),
        ]


def reference_evaluate(f: ZeroModeField, x) -> np.ndarray:
    """The reference route of `evaluate`: the radial functions at every point."""
    x = np.asarray(x, dtype=float)
    u = np.sum(x * x, axis=-1)
    y = (1.0 - u) / (1.0 + u)
    return fields._spinor(x, *f._jacobi(y, f.k), (1.0 + u) ** -1.5)


def reference_sigma_d(f: ZeroModeField, x) -> np.ndarray:
    """The reference route of `sigma_d`: the radial functions at every point."""
    x = np.asarray(x, dtype=float)
    u = np.sum(x * x, axis=-1)
    y = (1.0 - u) / (1.0 + u)
    w = 1.0 + u
    p, q = f._jacobi(y, f.k)
    dp, dq = ((f.k + 3) / 2 * d for d in f._jacobi(y, f.k - 1, 1.0))
    return fields._spinor(x, 3 * q - 4 * u / w * dq, 3 * p + 4 * dp / w, w**-2.5)


def loss_yau_residual(f, x, step: float = 1e-3) -> float:
    """|| (sigma.D) psi - h psi || at x, derivatives by finite differences."""
    lhs = _sigma_d(f.evaluate, x, step)
    rhs = f.h(x) * f.evaluate(x)
    return float(np.linalg.norm(lhs - rhs))


def quadrature_l2(f: PowerBasisField) -> float:
    """4 pi int_0^inf r^2 |psi|^2 dr: adaptive on [0, 100], the tail on u = 1/r."""

    def integrand(r):
        return r * r * f.radial_density(r)

    head, _ = quad(integrand, 0.0, 100.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    tail, _ = quad(lambda v: integrand(1.0 / v) / (v * v), 0.0, 0.01, epsabs=1e-13, epsrel=1e-12)
    return 4 * math.pi * (head + tail)


def fraction_l2(f: ZeroModeField) -> float:
    """The reference route for the exact L2 norm: the Beta-integral sum, term by term in Fraction."""
    big_n = 2 * f.m + 2
    c = [F(0)] * big_n  # A^2 + u B^2, ascending in u
    for i in range(f.m + 1):
        for j in range(f.m + 1):
            c[i + j] += f.a[i] * f.a[j]
            c[i + j + 1] += f.b[i] * f.b[j]
    radial = sum(
        cn * F(math.comb(2 * p, p) * math.comb(2 * q, q), math.comb(big_n, p))
        for p, q, cn in zip(range(1, big_n + 1), range(big_n - 1, -1, -1), c)
    )
    return float(2 * radial / 4**big_n) * math.pi**2


def beta_sum_l2(f: ZeroModeField) -> Fraction:
    """The reference route for the closed-form L2 norm: the norm over pi^2, exactly.

    |psi|^2 = (1 + r^2)^-(N+1) (A(r^2)^2 + r^2 B(r^2)^2) with N = 2m + 2, and
    int_0^inf r^2p (1 + r^2)^-(N+1) dr = B(p + 1/2, N - p + 1/2)/2
    = pi C(2p, p) C(2N-2p, N-p) / (2 4^N C(N, p)), summed in integers.
    """
    big_n = 2 * f.m + 2
    den, (a, b) = recurrence.over_common_denominator(f.a, f.b)
    c = [0] * big_n  # den^2 (A^2 + u B^2), ascending in u
    for i in range(f.m + 1):
        for j in range(f.m + 1):
            c[i + j] += a[i] * a[j]
            c[i + j + 1] += b[i] * b[j]
    binom = [math.comb(big_n, p) for p in range(1, big_n + 1)]
    lcm = math.lcm(*binom)
    radial = sum(
        cn * math.comb(2 * p, p) * math.comb(2 * q, q) * (lcm // bp)
        for p, q, cn, bp in zip(range(1, big_n + 1), range(big_n - 1, -1, -1), c, binom)
    )  # den^2 lcm 4^N times the radial integral over pi/2
    return Fraction(2 * radial, den**2 * lcm * 4**big_n)  # 4 pi from the angles


def csv_reference(f: ZeroModeField, extent: float, n: int) -> str:
    """The reference route for the CSV text: csv.writer and one repr per cell."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    writer.writerows([repr(v) for v in row] for row in fields._grid_rows(f, extent, n).tolist())
    return out.getvalue()
