"""Verdict checks that compute their own answers.

Nothing here imports amnmodes.  Expected values come from closed forms:
the factorization P_m = d_m * prod(t - ((2j+1)/3)**2), the Beta-function
value of the L2 norm, and a 50-digit mpmath evaluation of the field.
Each check returns a list of failure causes, empty when the output
passes.  A cause is "<code>: <detail>"; the code before the colon is
what the seed baseline in `KNOWN_FIELD_FAILURES` is keyed on.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

RESIDUAL_BOUND = 1e-7  # acceptance criteria 07/08, per unit |psi|
PSI_RTOL = 1e-9
COUPLING_RTOL = 1e-12
L2_RTOL = 1e-6

VERIFY_FLAGS = ("oracle_matches", "factorization_ok", "system_ok", "monotonicity_ok")
FIELD_COLUMNS = [
    "x1", "x2", "x3",
    "re_psi1", "im_psi1", "re_psi2", "im_psi2",
    "psi_norm2", "A1", "A2", "A3", "h", "residual",
]

# Field failures of the seed program, as (cause code -> lowest order at
# which it appears).  All three come from evaluating A and B in the power
# basis in doubles (ROADMAP item 3): cancellation first pushes the
# finite-difference residual past its bound, then corrupts psi itself,
# and from m = 16 the quadrature integrand overflows.  A failure with
# one of these codes at or above its order is counted in `failed` but
# does not make the run incorrect; any other failure does.
KNOWN_FIELD_FAILURES = {"residual_bound": 10, "psi_mismatch": 22, "l2_overflow": 16}


def cause_code(cause: str) -> str:
    return cause.split(":", 1)[0]


def is_known_failure(workload: str, m: int, cause: str) -> bool:
    if workload != "field":
        return False
    first = KNOWN_FIELD_FAILURES.get(cause_code(cause))
    return first is not None and m >= first


def fraction_string(q: Fraction) -> str:
    """The "num/den" wire format, or "num" for integers."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- verify ---------------------------------------------------------------


def root_strings(m: int) -> list[str]:
    """((2j+1)/3)**2 for j = 1..m+1, ascending."""
    return [fraction_string(Fraction((2 * j + 1) ** 2, 9)) for j in range(1, m + 2)]


def check_verify(m: int, report: dict) -> list[str]:
    causes = [
        f"flag: {flag} is {report.get(flag)!r}"
        for flag in VERIFY_FLAGS
        if report.get(flag) is not True
    ]
    expected = root_strings(m)
    for key in ("oracle", "predicted"):
        got = report.get(key)
        if got != expected:
            missing = sorted(set(expected) - set(got or []), key=Fraction)
            causes.append(f"roots: {key} differs from ((2j+1)/3)^2, missing {missing[:3]}")
    return causes


# -- build ----------------------------------------------------------------


def root_product(m: int) -> list[int]:
    """Ascending coefficients of prod_{j=1}^{m+1} (9t - (2j+1)**2)."""
    coeffs = [1]
    for j in range(1, m + 2):
        n = (2 * j + 1) ** 2
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] -= n * c
            nxt[i + 1] += 9 * c
        coeffs = nxt
    return coeffs


def leading_coefficient(m: int) -> Fraction:
    """d_m = (-1)**m 3**(2m) / (5*7*...*(2m+3) * 2**m * m!)."""
    odd = math.prod(range(5, 2 * m + 4, 2))
    return Fraction((-1) ** m * 3 ** (2 * m), odd * 2**m * math.factorial(m))


def _first_difference(got: list, expected: list) -> str:
    if not isinstance(got, list) or len(got) != len(expected):
        return f"length {len(got) if isinstance(got, list) else got!r} != {len(expected)}"
    i = next(i for i, (g, e) in enumerate(zip(got, expected)) if g != e)
    return f"first difference at t^{i}"


def check_build(m: int, report: dict) -> list[str]:
    product = root_product(m)
    content = math.gcd(*product)  # the leading coefficient 9**(m+1) is positive
    integer = [str(c // content) for c in product]
    d = leading_coefficient(m) / 9 ** (m + 1)
    rational = [fraction_string(d * c) for c in product]
    causes = []
    got = report.get("integer_coefficients")
    if got != integer:
        causes.append(f"integer_coefficients: {_first_difference(got, integer)}")
    got = report.get("rational_coefficients")
    if got != rational:
        causes.append(f"rational_coefficients: {_first_difference(got, rational)}")
    return causes


# -- field ----------------------------------------------------------------


def grid_axis(n: int, extent: float) -> list[float]:
    return [-extent + 2 * extent * i / (n - 1) for i in range(n)]


def psi_reference(m: int, a: list[Fraction], b: list[Fraction], x) -> list:
    """(re psi1, im psi1, re psi2, im psi2) at x, to 50 digits.

    psi = (1 + r^2)^-(3+2m)/2 [A(r^2) phi0 + B(r^2) i sigma.x phi0] with
    phi0 = (1, 0), so psi = pref (A + i B x3, B (i x1 - x2)).
    """
    with mpmath.workdps(50):
        x1, x2, x3 = (mpmath.mpf(v) for v in x)
        u = x1 * x1 + x2 * x2 + x3 * x3
        big_a = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * u**n for n, c in enumerate(a))
        big_b = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * u**n for n, c in enumerate(b))
        pref = (1 + u) ** (-mpmath.mpf(3 + 2 * m) / 2)
        return [pref * big_a, pref * big_b * x3, -pref * big_b * x2, pref * big_b * x1]


def _half_gamma_ratio(k: int) -> Fraction:
    """Gamma(k + 1/2) / sqrt(pi) = (2k)! / (4**k k!)."""
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k))


def l2_norm_over_pi2(m: int, a: list[Fraction], b: list[Fraction]) -> Fraction:
    """The exact L2 norm of the order-m field divided by pi**2.

    |psi|^2 = (1 + r^2)^-s (A(r^2)^2 + r^2 B(r^2)^2) with s = 3 + 2m, and
    int_0^inf r^(2n+2) (1 + r^2)^-s dr = B(n + 3/2, s - n - 3/2) / 2, a
    rational multiple of pi since both arguments are half-integers.
    """
    s = 3 + 2 * m
    c = [Fraction(0)] * (2 * len(a))
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            c[i + j] += ai * aj
    for i, bi in enumerate(b):
        for j, bj in enumerate(b):
            c[i + j + 1] += bi * bj
    radial = sum(
        cn * _half_gamma_ratio(n + 1) * _half_gamma_ratio(s - n - 2)
        for n, cn in enumerate(c)
        if cn
    ) / math.factorial(s - 1)
    return 4 * radial / 2  # 4 pi from the angles, 1/2 from the Beta form, pi from the Gammas


def _relative(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def check_field(
    m: int, rows: list[list[str]], mode: dict, l2: float | None, l2_error: str | None,
    sample: list[int], grid: int, extent: float,
) -> list[str]:
    """Check one `field` CSV (rows include the header) and its L2 norm.

    `mode` is the JSON of `mode --m M --designated`; its exact a, b are
    the coefficients the 50-digit reference and the Beta value use.
    `sample` lists the data rows compared against the reference.
    """
    b0 = Fraction(2 * m + 3, 3)
    if mode.get("b0") != fraction_string(b0) or any(r != "0" for r in mode.get("residuals", ["?"])):
        return [f"mode: designated solution b0={mode.get('b0')} is not exact"]
    if not rows or rows[0] != FIELD_COLUMNS or len(rows) != grid**3 + 1:
        return [f"shape: expected header and {grid ** 3} rows, got {len(rows) - 1 if rows else 0}"]
    data = [[float(v) for v in row] for row in rows[1:]]
    axis = grid_axis(grid, extent)
    coords = [(x1, x2, x3) for x1 in axis for x2 in axis for x3 in axis]
    if any(max(abs(p - q) for p, q in zip(row[:3], c)) > 1e-12 for row, c in zip(data, coords)):
        return [f"shape: grid coordinates differ from the {grid}^3 cube"]

    causes = []
    bad_coupling = 0
    worst_residual, bad_residual = 0.0, 0
    for row in data:
        x1, x2, x3, *_, psi_norm2, a1, a2, a3, h, residual = row
        h_exact = float(3 * b0) / (1.0 + x1 * x1 + x2 * x2 + x3 * x3)
        a_norm = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
        if not (_relative(a_norm, h) <= COUPLING_RTOL and _relative(h, h_exact) <= COUPLING_RTOL):
            bad_coupling += 1
        scaled = residual / math.sqrt(psi_norm2)
        if not scaled <= RESIDUAL_BOUND:  # also catches NaN
            bad_residual += 1
            worst_residual = max(worst_residual, math.inf if math.isnan(scaled) else scaled)
    if bad_coupling:
        causes.append(f"coupling: |A| != h or h != 3 b0/<x>^2 at {bad_coupling} rows")
    if bad_residual:
        causes.append(
            f"residual_bound: residual/|psi| up to {worst_residual:.3g} > {RESIDUAL_BOUND:g} "
            f"at {bad_residual} of {len(data)} rows"
        )

    a = [Fraction(v) for v in mode["a"]]
    b = [Fraction(v) for v in mode["b"]]
    worst_psi, bad_psi = 0.0, 0
    for i in sample:
        row = data[i]
        ref = psi_reference(m, a, b, row[:3])
        err = math.sqrt(sum(float(row[3 + k] - ref[k]) ** 2 for k in range(4)))
        rel = err / math.sqrt(sum(float(r) ** 2 for r in ref))
        if not rel <= PSI_RTOL:
            bad_psi += 1
            worst_psi = max(worst_psi, rel)
    if bad_psi:
        causes.append(
            f"psi_mismatch: relative error up to {worst_psi:.3g} > {PSI_RTOL:g} "
            f"at {bad_psi} of {len(sample)} sampled rows"
        )

    if l2_error is not None:
        code = "l2_overflow" if l2_error.startswith("OverflowError") else "l2_error"
        causes.append(f"{code}: l2_norm_squared raised {l2_error}")
    else:
        exact = float(l2_norm_over_pi2(m, a, b)) * math.pi**2
        if not _relative(l2, exact) <= L2_RTOL:
            causes.append(f"l2_mismatch: {l2!r} != {exact!r} (Beta-function value)")
    return causes
