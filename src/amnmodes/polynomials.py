"""Exact univariate polynomials as integer coefficient sequences.

Coefficients are stored in ascending power order.  A rational polynomial
is kept as its primitive integer form (`IntPoly`) plus the scale that
clears its denominators; nothing in this module touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


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


class IntPoly:
    """Primitive integer polynomial: content 1, positive leading coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise ValueError("IntPoly must be nonzero")
        if cs[-1] < 0:
            raise ValueError("leading coefficient must be positive")
        if math.gcd(*(abs(c) for c in cs)) != 1:
            raise ValueError("coefficients must have content 1")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def coefficient_strings(self) -> list[str]:
        """Decimal strings, ascending power order (JSON wire format).

        Strings, not native numbers: coefficients outgrow 64-bit range
        quickly as the degree climbs.
        """
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


def primitive_integer_form(coeffs) -> tuple[IntPoly, Fraction]:
    """Unique primitive integer multiple of a polynomial, plus the scale applied.

    `coeffs` are ints or Fractions, ascending.  Returns (q, s) with
    q = s * p, q having content 1 and positive leading coefficient.
    """
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("cannot normalize zero polynomial")
    den = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = math.gcd(*ints)
    sign = 1 if ints[-1] > 0 else -1
    scale = Fraction(sign * den, g)
    return IntPoly(sign * c // g for c in ints), scale
