"""Reference routes that the tests compare the package against; no request runs them.

Each route reaches a production result another way; its docstring says
how.  The third column names what the two share, where a fault would
not show up as a disagreement.

| Production route | Reference route | Shared |
|---|---|---|
| `coefficient_polynomials` | `matrix_chain_pair(m, m)` (`seed_pair`, `recurrence_matrix`) | nothing |
| the chain's 2m recurrence equations | `system_polynomials` on `matrix_chain_pairs` | nothing |
| `build_amn_polynomial` | `pair_route`; `matrix_chain_pairs(m)[m]` | the chain (`pair_route`) |
| `instantiate_solution` | `evaluate_pairs` on `matrix_chain_pairs` | `homogeneous` |
| `verify_system` | `fraction_verify_system` | nothing |
| the lift in `closed_form_integers` | `lift_solution` | `times_linear`, `verify_system` |
| `closed_form_integers(k, k, sign)` | `jacobi_coefficients` | nothing |
| `fields.jacobi` | `exact_jacobi` | nothing |
| `verify_factorization` | `deflate` | nothing |
| `check_root_solutions` | `reference_root_solutions` on `matrix_chain_pairs` | `verify_system`, `homogeneous` |
| `root_theorem_failures` | `monotonicity_check` | the build, `root_product`, `homogeneous` |
| `spin_density` | `reference_spin_density` (`SIGMA`) | nothing |
| `fields._sigma_dot` | `reference_sigma_dot` (`SIGMA`) | nothing |
| `ZeroModeField.evaluate` | `reference_evaluate`; `PowerBasisField` and `mp_psi` on the solution | `_jacobi` and its `jacobi`, `_spinor` (first) |
| `ZeroModeField.sigma_d` | `reference_sigma_d`; `fields._sigma_d` | `_jacobi` and its `jacobi`, `_spinor` (first) |
| sigma.D psi = h psi | `loss_yau_residual` | `evaluate`, `h`, `_sigma_d` |
| `l2_norm_squared` | `beta_sum_l2` and `quadrature_l2` on the solution | `over_common_denominator` (first) |
| `sample_grid` | `csv_reference` | `_grid_rows` |
| psi != 0 on R^3, the divisor of the potential A | `coprime_mod_p` on `closed_form_integers(k, k, sign)` | `closed_form_integers` |

A field keeps only its family member (k, sign), so the routes marked "on
the solution" read the coefficients of `instantiate_solution(m, b0)` for
the request (m, b0) that built the field (`PowerBasisField` holds them).

Helpers on ascending coefficient tuples: `trim`, `add`, `mul`, `horner`,
`rational_form` and its inverse `rational_primitive_form`.
`pair_denominator` is the D of the chain's closing pair, `plus_one` is a
tampered P_m, and `enumerate_family` lists every member (b0, field) of
an order.
"""

import csv
import io
import math
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import zip_longest

import mpmath
import numpy as np

from amnmodes import fields, roots
from amnmodes.fields import CSV_COLUMNS, ZeroModeField, _sigma_d
from amnmodes.polynomials import (
    homogeneous,
    over_common_denominator,
    primitive_integer_form,
    times_linear,
)
from amnmodes.recurrence import (
    AmnPolynomial,
    AnsatzSolution,
    coefficient_polynomials,
    family_b0,
    verify_system,
)
from amnmodes.roots import predicted_roots

F = Fraction

SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # sigma_1..3


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


def rational_primitive_form(coeffs) -> tuple:
    """(q, s) with q = s * p primitive, for a rational p: its denominators
    cleared by `over_common_denominator`, then `primitive_integer_form`."""
    den, (ints,) = over_common_denominator(coeffs)
    integer, s = primitive_integer_form(ints)
    return integer, s * den


def plus_one(amn):
    """P_m + 1 in primitive integer form: it vanishes at no predicted root."""
    bad = list(rational_form(amn))
    bad[0] += 1
    return AmnPolynomial(amn.m, *rational_primitive_form(bad))


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


def _times(k, acc):
    """The 2x2 matrix product k * acc, both row-major with polynomial entries."""
    return (
        add(mul(k[0], acc[0]), mul(k[1], acc[2])),
        add(mul(k[0], acc[1]), mul(k[1], acc[3])),
        add(mul(k[2], acc[0]), mul(k[3], acc[2])),
        add(mul(k[2], acc[1]), mul(k[3], acc[3])),
    )


def _apply(acc, pair):
    """The 2x2 matrix acc applied to the pair (p, q)."""
    p, q = pair
    return add(mul(acc[0], p), mul(acc[1], q)), add(mul(acc[2], p), mul(acc[3], q))


IDENTITY = ((1,), (), (), (1,))


def matrix_chain_pair(m, j):
    """(p_j, q_j) as K_j K_{j-1} ... K_2 applied to the seed: the matrices
    are multiplied out first over the rationals, then applied once, a
    different route from the stepwise `coefficient_polynomials`.  It starts
    from the seed, so j = 0 gives pair 1 as j = 1 does."""
    acc = IDENTITY
    for p in range(2, j + 1):
        acc = _times(recurrence_matrix(m, p), acc)
    return _apply(acc, seed_pair(m))


@cache
def matrix_chain_pairs(m) -> tuple:
    """The rational pairs j = 0..m of the matrix chain.  Pair 0 = (1, 1),
    a_0 = 1 and b_0 = b0, is set here, since the chain starts from the
    seed; pair j >= 1 is `matrix_chain_pair(m, j)`, with the running
    product K_j ... K_2 carried from one j to the next.  Kept per m, as
    a tuple, for the several tests that read the same order."""
    pairs = [((F(1),), (F(1),))]
    acc = IDENTITY
    for j in range(1, m + 1):
        if j > 1:
            acc = _times(recurrence_matrix(m, j), acc)
        pairs.append(_apply(acc, seed_pair(m)))
    return tuple(pairs)


def pair_denominator(m) -> int:
    """D = prod_{j=1..m} 2j(2j+3): `coefficient_polynomials(m)` is (D p_m, D q_m)."""
    return math.prod(2 * j * (2 * j + 3) for j in range(1, m + 1))


def system_polynomials(m: int, pairs) -> Iterator[tuple]:
    """The 2m+1 equations of `verify_system` as rational polynomials in t = b0**2.

    On the rational pairs j = 0..m (`matrix_chain_pairs`): for j = 1..m,
    the a-equation 2j p_j - (2m+5-2j) p_{j-1} + 3t q_{j-1}, then the
    b-equation (2j+3) q_j - (2m+2-2j) q_{j-1} - 3 p_j with the common
    factor b0 removed; after the last pair, the closing p_m - t q_m.
    Each is trimmed, ascending in t, so the zero polynomial is ().  At
    b0 != 0 the residuals of `verify_system` vanish exactly where these
    do at t = b0**2.  The recurrence makes the first 2m identically zero;
    the closing one is a multiple of -P_m, zero only at the roots.
    """
    for j in range(1, m + 1):
        (p0, q0), (p1, q1) = pairs[j - 1], pairs[j]
        yield add(add(mul((2 * j,), p1), mul((-(2 * m + 5 - 2 * j),), p0)), mul((0, 3), q0))
        yield add(add(mul((2 * j + 3,), q1), mul((-(2 * m + 2 - 2 * j),), q0)), mul((-3,), p1))
    p, q = pairs[m]
    yield add(p, mul((0, -1), q))


def pair_route(m):
    """t*q_m - p_m from the closing pair of the chain: the reference route of P_m."""
    p, q = coefficient_polynomials(m)
    cols = zip_longest(p, (0,) + q, fillvalue=0)
    return trim(F(c - a, pair_denominator(m)) for a, c in cols)


def evaluate_pairs(pairs, b0):
    """The rational pairs j = 0..m evaluated at t = b0**2, a_j = p_j(t) and
    b_j = b0 q_j(t): the reference route of `instantiate_solution`."""
    b0 = F(b0)
    n, q = b0.numerator**2, b0.denominator**2

    def at(cs):
        # cs(t) at t = n/q, through the integer q**D * L * cs(n/q), L the lcm denominator
        den = math.lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (den // c.denominator) for c in cs]
        return F(homogeneous(ints, n, q), q ** (len(cs) - 1) * den)

    a = tuple(at(p) for p, _ in pairs)
    b = tuple(b0 * at(q) for _, q in pairs)
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


def jacobi_coefficients(k: int, sign: int) -> tuple[tuple, tuple]:
    """The a and b of the order-k designated solution from the Jacobi form that
    `ZeroModeField` evaluates: the reference route of `closed_form_integers(k, k, sign)`.

    F_k(s) = sum c_n s^n, c_n = (-k)_n (k+3)_n / ((3/2)_n n!) (DLMF 18.5.7), and
    psi = <x>^-3 [F_k(s) + sign (-1)^k F_k(1-s) X] phi0 with s = u/(1+u), u = |x|^2,
    is <x>^-(3+2k) [A(u) + B(u) X] phi0 with A(u) = (1+u)^k F_k(u/(1+u)) and
    B(u) = sign (-1)^k (1+u)^k F_k(1/(1+u)), expanded binomially in Fractions.
    """
    def rising(x, n):
        return math.prod((x + i for i in range(n)), start=F(1))

    c = [rising(-k, n) * rising(k + 3, n) / (rising(F(3, 2), n) * math.factorial(n))
         for n in range(k + 1)]
    a = tuple(sum(c[n] * math.comb(k - n, i - n) for n in range(i + 1)) for i in range(k + 1))
    b = tuple(sign * (-1) ** k * sum(c[n] * math.comb(k - n, i) for n in range(k + 1))
              for i in range(k + 1))
    return a, b


def exact_jacobi(n: int, a, b, y: float) -> Fraction:
    """The reference route of `fields.jacobi`: P_n^(a,b)(y) exactly, by the
    three-term recurrence (DLMF 18.9.1, 18.9.2) in Fractions at the exact double y."""
    a, b, y = F(a), F(b), F(y)
    previous, p = F(0), F(1)
    if n < 0:
        return previous
    for j in range(n):
        c = 2 * j + a + b
        step = (c + 1) * ((c + 2) * c * y + a * a - b * b) * p - 2 * (j + a) * (j + b) * (c + 2) * previous
        previous, p = p, step / (2 * (j + 1) * (j + a + b + 1) * c)
    return p


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
    """The per-root route: evaluate the rational pairs j = 0..m
    (`matrix_chain_pairs`) at each b0 = +-(2j+1)/3, run verify_system."""
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


def coprime_mod_p(a, b, p: int) -> bool:
    """Whether the integer polynomials a and b (ascending coefficients) have no
    common factor mod the prime p: Euclid's algorithm over GF(p).  Where both
    leading coefficients are nonzero mod p, a common factor over Q would stay one
    mod p (Gauss's lemma), so coprime mod p implies coprime over Q."""
    a, b = list(trim(c % p for c in a)), list(trim(c % p for c in b))
    while b:  # a, b = b, a mod b
        inverse = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inverse % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            a = list(trim(a))
        a, b = b, a
    return len(a) == 1


def enumerate_family(m: int) -> list[tuple[Fraction, ZeroModeField]]:
    """(b0, ZeroModeField(m, b0)) for all 2(m+1) verified fields of order m.

    Ordered by (j, sign) with the positive sign first; the designated
    field is the (j = m+1, +) member.
    """
    b0s = [family_b0(j, sign) for j in range(1, m + 2) for sign in (1, -1)]
    return [(b0, ZeroModeField(m, b0)) for b0 in b0s]


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


def mp_psi(s: AnsatzSolution, x) -> list:
    """psi at x from the exact a_n, b_n of s in the power basis, to 50 digits."""
    with mpmath.workdps(50):
        x1, x2, x3 = (mpmath.mpf(float(v)) for v in x)
        u = x1 * x1 + x2 * x2 + x3 * x3
        amp_a = mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator for c in reversed(s.a)], u)
        amp_b = mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator for c in reversed(s.b)], u)
        pref = (1 + u) ** (-mpmath.mpf(3 + 2 * s.m) / 2)
        return [
            complex(pref * amp_a, pref * amp_b * x3),
            complex(-pref * amp_b * x2, pref * amp_b * x1),
        ]


def reference_spin_density(s) -> np.ndarray:
    """The reference route of `spin_density`: the sums conj(s_i) sigma_k,ij s_j over `SIGMA`."""
    return np.einsum("...i,kij,...j->...k", np.conj(s), SIGMA, s).real


def reference_sigma_dot(v, s) -> np.ndarray:
    """The reference route of `fields._sigma_dot`: the sums v_k sigma_k,ij s_j over `SIGMA`."""
    return np.einsum("...k,kij,...j->...i", v, SIGMA, s)


def reference_evaluate(f: ZeroModeField, x) -> np.ndarray:
    """The reference route of `evaluate`: the radial functions at every point."""
    x = np.asarray(x, dtype=float)
    u = np.sum(x * x, axis=-1)
    y = (1.0 - u) / (1.0 + u)
    return fields._spinor(x, *f._jacobi(y, f.k), 1.0 / ((1.0 + u) * np.sqrt(1.0 + u)))


def reference_sigma_d(f: ZeroModeField, x) -> np.ndarray:
    """The reference route of `sigma_d`: the radial functions at every point."""
    x = np.asarray(x, dtype=float)
    u = np.sum(x * x, axis=-1)
    y = (1.0 - u) / (1.0 + u)
    w = 1.0 + u
    p, q = f._jacobi(y, f.k)
    dp, dq = ((f.k + 3) / 2 * d for d in f._jacobi(y, f.k - 1, 1.0))
    return fields._spinor(x, 3 * q - 4 * u / w * dq, 3 * p + 4 * dp / w, 1.0 / (w * w * np.sqrt(w)))


def loss_yau_residual(f, x, step: float = 1e-3) -> float:
    """|| (sigma.D) psi - h psi || at x, derivatives by finite differences."""
    lhs = _sigma_d(f.evaluate, x, step)
    rhs = f.h(x) * f.evaluate(x)
    return float(np.linalg.norm(lhs - rhs))


def quadrature_l2(f: PowerBasisField) -> float:
    """4 pi int_0^inf r^2 |psi|^2 dr, with |psi|^2 = (1 + u)^-(3+2m) (A(u)^2 + u B(u)^2)
    and u = r^2 from the field's coefficients: mpmath's adaptive quadrature at 20
    digits, split at r = 1 and 10, whose exponents do not overflow far out."""
    with mpmath.workdps(20):
        a, b = ([mpmath.mpf(c) for c in cs[::-1]] for cs in (f.a, f.b))

        def density(r):  # r^2 |psi|^2 on the sphere of radius r
            u = r * r
            return u * (mpmath.polyval(a, u) ** 2 + u * mpmath.polyval(b, u) ** 2) / (1 + u) ** (3 + 2 * f.m)

        return 4 * math.pi * float(mpmath.quad(density, [0, 1, 10, mpmath.inf]))


def beta_sum_l2(s: AnsatzSolution) -> Fraction:
    """The reference route for the closed-form L2 norm: the norm over pi^2 of s, exactly.

    |psi|^2 = (1 + r^2)^-(N+1) (A(r^2)^2 + r^2 B(r^2)^2) with N = 2m + 2, and
    int_0^inf r^2p (1 + r^2)^-(N+1) dr = B(p + 1/2, N - p + 1/2)/2
    = pi C(2p, p) C(2N-2p, N-p) / (2 4^N C(N, p)), summed in integers.
    """
    big_n = 2 * s.m + 2
    den, (a, b) = over_common_denominator(s.a, s.b)
    c = [0] * big_n  # den^2 (A^2 + u B^2), ascending in u
    for i in range(s.m + 1):
        for j in range(s.m + 1):
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
