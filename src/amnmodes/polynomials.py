"""Exact univariate polynomials as integer coefficient sequences.

Coefficients are stored in ascending power order.  A rational polynomial
is kept as its primitive integer form (`IntPoly`) plus the scale that
makes it; nothing in this module touches floating point.  This is the
package's one exact kernel: the linear-factor product, the common
denominator and the primitive normaliser live here and nowhere else.
`over_common_denominator` is the one place where rationals become
integers; `IntPoly` and `primitive_integer_form` take integers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def rational_to_string(q: Fraction) -> str:
    """Format as "num/den", or just "num" when the denominator is 1.

    This is the JSON wire format of every exact rational; `Fraction(s)`
    parses it back.
    """
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def homogeneous(coeffs: tuple, n: int, q: int) -> int:
    """q**D * P(n/q) = sum c_k n**k q**(D-k), c_k ascending, D = len(coeffs) - 1.

    Ints only; zero exactly when n/q is a root (q != 0).
    """
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * n + c * qk
        qk *= q
    return acc


def times_linear(poly, n, q) -> tuple:
    """poly * (q*t - n), ascending; ints or Fractions.

    (n, q) = (-1, 1) multiplies by 1 + t: the adjacent-pair sums.
    """
    return tuple(q * a - n * b for a, b in zip((0, *poly), (*poly, 0)))


def over_common_denominator(*lists) -> tuple[int, list]:
    """The lcm of the denominators of rational lists, and each list times it, in integers."""
    den = math.lcm(*(c.denominator for cs in lists for c in cs))
    return den, [[c.numerator * (den // c.denominator) for c in cs] for cs in lists]


@dataclass(frozen=True)
class IntPoly:
    """Primitive integer polynomial: content 1, positive leading coefficient;
    `coeffs` is a tuple of ints, ascending.  The coefficients are kept as
    given: a non-integer one makes the content check raise TypeError."""

    coeffs: tuple

    def __post_init__(self):
        cs = list(self.coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("IntPoly must be nonzero")
        if cs[-1] < 0:
            raise ValueError("leading coefficient must be positive")
        if math.gcd(*cs) != 1:
            raise ValueError("coefficients must have content 1")
        object.__setattr__(self, "coeffs", tuple(cs))


def primitive_integer_form(coeffs) -> tuple[IntPoly, Fraction]:
    """Unique primitive integer multiple of an integer polynomial, plus the scale applied.

    `coeffs` is a sequence of ints, ascending; a rational polynomial goes
    through `over_common_denominator` first.  Returns (q, s) with
    q = s * p, q having content 1 and positive leading coefficient, and
    s = 1/g for the signed content g of p.
    """
    g = math.gcd(*coeffs)
    if not g:
        raise ValueError("cannot normalize zero polynomial")
    if next(c for c in reversed(coeffs) if c) < 0:
        g = -g
    return IntPoly(c // g for c in coeffs), Fraction(1, g)
