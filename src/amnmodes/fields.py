"""Concrete spinor fields built from verified coefficient solutions.

A field of order m evaluates

    psi(x) = <x>^-(3+2m) [ A(|x|^2) 1 + B(|x|^2) X ] phi0,

with <x> = sqrt(1 + |x|^2), X = i sigma.x, A and B the even polynomials
with the exact a_n, b_n coefficients, and phi0 = (1, 0).  Coefficients
stay exact rationals through construction and become doubles only at
evaluation, so any residual seen numerically is method error, not
coefficient error.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from .recurrence import AnsatzSolution, coefficient_polynomials, instantiate_solution, verify_system

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

PHI0 = np.array([1.0, 0.0], dtype=complex)


def spin_density(s: np.ndarray) -> np.ndarray:
    """The real 3-vector (s.sigma_k s); its length equals |s|^2."""
    return np.array([np.real(np.conj(s) @ (sig @ s)) for sig in SIGMA])


class ZeroModeField:
    """Evaluatable spinor field of order m with coupling h = 3*b0/<x>^2.

    Construction verifies the coefficient system exactly and refuses
    non-solutions.
    """

    def __init__(self, solution: AnsatzSolution, label: tuple[int, int] | None = None):
        if any(r != 0 for r in verify_system(solution)):
            raise ValueError("coefficients do not solve the order-m system")
        self.m = solution.m
        self.b0 = solution.b0
        self.a = solution.a
        self.b = solution.b
        self.label = label
        self.alpha = 3 * solution.b0
        self._af = np.array([float(c) for c in solution.a])
        self._bf = np.array([float(c) for c in solution.b])

    @classmethod
    def base_mode(cls) -> "ZeroModeField":
        """The order-0 field <x>^-3 (1 + X) phi0."""
        return cls(instantiate_solution(0, 1))

    @classmethod
    def designated(cls, m: int) -> "ZeroModeField":
        """The designated member: j = m+1 with positive sign, b0 = (2m+3)/3."""
        return cls(instantiate_solution(m, Fraction(2 * m + 3, 3)), label=(m + 1, 1))

    # -- pointwise evaluation ------------------------------------------------

    def _amplitudes(self, r2: float) -> tuple[float, float]:
        """A(r2) and B(r2) in the power basis."""
        powers = r2 ** np.arange(self.m + 1)
        return float(self._af @ powers), float(self._bf @ powers)

    def evaluate(self, x) -> np.ndarray:
        """psi(x) as a complex 2-vector."""
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        pref = (1.0 + r2) ** (-(3 + 2 * self.m) / 2)
        amp_a, amp_b = self._amplitudes(r2)
        # X phi0 = i * (x3, x1 + i x2) for phi0 = (1, 0)
        xphi = 1j * np.array([x[2], x[0] + 1j * x[1]])
        return pref * (amp_a * PHI0 + amp_b * xphi)

    def h(self, x) -> float:
        """The coupling 3*b0/<x>^2."""
        x = np.asarray(x, dtype=float)
        return float(self.alpha) / (1.0 + float(x @ x))

    def vector_potential(self, x) -> np.ndarray:
        """A(x) = h(x) * spin_density(psi(x)) / |psi(x)|^2."""
        return _potential(x, self.evaluate(x), self.h(x))[0]

    def radial_density(self, r: float) -> float:
        """|psi|^2 on the sphere of radius r (the field norm is radial)."""
        r2 = r * r
        amp_a, amp_b = self._amplitudes(r2)
        return (1.0 + r2) ** (-(3 + 2 * self.m)) * (amp_a**2 + r2 * amp_b**2)


def _potential(x, s: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """The vector potential and |s|^2 for s = psi(x) and h = h(x)."""
    n2 = float(np.real(np.conj(s) @ s))
    if n2 < 1e-30:
        raise ValueError(f"spinor vanishes at {x}")
    return h * spin_density(s) / n2, n2


# -- finite-difference residuals ---------------------------------------------


def _sigma_d(evaluate, x, step: float) -> np.ndarray:
    """(sigma.D) psi at x; D = -i grad by 4th-order central differences."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    out = np.zeros(2, dtype=complex)
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        grad_k = (
            evaluate(x - 2 * e) - 8 * evaluate(x - e) + 8 * evaluate(x + e) - evaluate(x + 2 * e)
        ) / (12 * step)
        out += -1j * (SIGMA[k] @ grad_k)
    return out


def _residual(f: ZeroModeField, x, s: np.ndarray, a: np.ndarray, step: float) -> float:
    """|| sigma.(D - A) psi || at x, given s = psi(x) and the potential a = A(x)."""
    sigma_a = sum(a[k] * SIGMA[k] for k in range(3))
    return float(np.linalg.norm(_sigma_d(f.evaluate, x, step) - sigma_a @ s))


def loss_yau_residual(f: ZeroModeField, x, step: float = 1e-3) -> float:
    """|| (sigma.D) psi - h psi || at x, derivatives by finite differences."""
    lhs = _sigma_d(f.evaluate, x, step)
    rhs = f.h(x) * f.evaluate(x)
    return float(np.linalg.norm(lhs - rhs))


def weyl_dirac_residual(f: ZeroModeField, x, step: float = 1e-3) -> float:
    """|| sigma.(D - A) psi || at x; A from the induced vector potential."""
    s = f.evaluate(x)
    a, _ = _potential(x, s, f.h(x))
    return _residual(f, x, s, a, step)


def l2_norm_squared(f: ZeroModeField, r_max: float = 100.0, tolerance: float = 1e-8) -> float:
    """Integral of |psi|^2 over R^3 by adaptive radial quadrature.

    |psi|^2 is exactly radial (the cross term between the two spinor
    branches is purely imaginary), so the angular integral is 4*pi and
    the radial part is adaptive out to r_max plus a tail integrated on
    the inverted variable.  Raises if the achieved error estimate misses
    the tolerance.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")

    def integrand(r):
        return r * r * f.radial_density(r)

    eps = tolerance / (8 * math.pi)
    head, err_head = quad(integrand, 0.0, r_max, epsabs=eps, epsrel=1e-12, limit=200)
    tail, err_tail = quad(
        lambda u: integrand(1.0 / u) / (u * u),
        0.0,
        1.0 / r_max,
        epsabs=eps,
        epsrel=1e-12,
        limit=200,
    )
    total = 4 * math.pi * (head + tail)
    achieved = 4 * math.pi * (err_head + err_tail)
    if achieved > tolerance:
        raise RuntimeError(
            f"quadrature error {achieved:.3e} exceeds tolerance {tolerance:.3e}; "
            f"estimate {total!r}"
        )
    return total


def enumerate_family(m: int) -> list[ZeroModeField]:
    """All 2(m+1) verified fields of order m, both root signs.

    Ordered by (j, sign) with the positive sign first; the designated
    field is the (j = m+1, +) member.  The pair chain is built once.
    """
    if m < 1:
        raise ValueError("family enumeration defined for m >= 1")
    pairs = coefficient_polynomials(m)
    fields = []
    for j in range(1, m + 2):
        for sign in (1, -1):
            s = instantiate_solution(m, Fraction(sign * (2 * j + 1), 3), pairs)
            fields.append(ZeroModeField(s, label=(j, sign)))
    return fields


CSV_COLUMNS = [
    "x1", "x2", "x3",
    "re_psi1", "im_psi1", "re_psi2", "im_psi2",
    "psi_norm2", "A1", "A2", "A3", "h", "residual",
]


def sample_grid(f: ZeroModeField, out, extent: float = 2.0, n: int = 5, step: float = 1e-3):
    """Write field samples on a cubic grid as CSV.

    Each row comes from one evaluation of psi at the grid point, plus the
    finite-difference stencil of the residual.  Floats use repr
    formatting, which round-trips IEEE doubles exactly.  The first point
    with a non-finite value (power-basis overflow) raises FloatingPointError.
    """
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    axis = np.linspace(-extent, extent, n)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows raise below
        for x1 in axis:
            for x2 in axis:
                for x3 in axis:
                    x = np.array([x1, x2, x3])
                    s = f.evaluate(x)
                    h = f.h(x)
                    a, n2 = _potential(x, s, h)
                    row = [
                        x1, x2, x3,
                        s[0].real, s[0].imag, s[1].real, s[1].imag,
                        n2,
                        a[0], a[1], a[2],
                        h,
                        _residual(f, x, s, a, step),
                    ]
                    row = [float(v) for v in row]
                    if not all(map(math.isfinite, row)):
                        raise FloatingPointError(f"non-finite field value at x = {tuple(row[:3])}")
                    writer.writerow([repr(v) for v in row])
