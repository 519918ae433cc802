"""Zero-mode spinor fields in closed form.

Every verified order-m solution is the order-k designated one
(b0 = sign (2k+3)/3, 0 <= k <= m) lifted m-k times, and the lifts cancel
against the prefactor, so psi = <x>^-3 [F_k(s) + sign (-1)^k F_k(1-s) X] phi0
with s = |x|^2/(1+|x|^2), X = i sigma.x, phi0 = (1, 0) and
F_k(s) = 2F1(-k, k+3; 3/2; s) = k!/(3/2)_k P_k^(1/2,3/2)(1-2s), a Jacobi
polynomial (DLMF 18.5.7).  Pfaff's transformation (DLMF 15.8.1) gives
F_k(s) = (1+u)^-k 2F1(-k, -k-3/2; 3/2; -u), u = |x|^2, whose term ratio is
the a_n ratio of the closed form in `recurrence`.  A field is built from its
request (m, b0) alone, after one exact check of the lifted closed form in
integers (`ZeroModeField`).  psi and (sigma.D) psi are evaluated on arrays of
points; their radial parts depend on |x|^2 alone and are evaluated once
per distinct |x|^2, by the forward recurrence (DLMF 18.9.1) with the
reflection P_n^(b,a)(y) = (-1)^n P_n^(a,b)(-y) (DLMF 18.6.1).  Every
number of a field grid comes from real + - * / and sqrt on real and
imaginary parts, which IEEE 754 rounds correctly: the powers of w = 1+u
are 1/(w sqrt(w)) and 1/(w^2 sqrt(w)), and the spin algebra and the
residual norm are written out per component, so no complex product,
power or library norm is left whose last bit numpy's dispatch by CPU
feature could change.  The L2 norm is a
closed form in k, from the Jacobi norms.  No
request runs the finite-difference Weyl-Dirac residual (with `_sigma_d`
and `vector_potential`, which it reads), `designated` or the L2 norm:
the bench harness in `perfbench/` calls them by name.

psi has no zero, so the potential h <psi, sigma psi>/|psi|^2 is smooth on R^3.  With
psi = <x>^-(2m+3) [A(u) + B(u) X] phi0, u = |x|^2 and X^2 = -u, |psi|^2 <x>^(4m+6)
= A^2 + u B^2 is a_0^2 = 1 at u = 0; a common root u0 > 0 of A and B would give
A = B = 0 by uniqueness, as sigma.D psi = h psi is a linear first-order system in
(A, B) that is regular at u > 0 (A' and B' carry -2(1+u) and 2u(1+u)), against a_0 = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .recurrence import closed_form_failures, family_b0, family_member


def _spinors(re1, im1, re2, im2) -> np.ndarray:
    """The spinors (re1 + i im1, re2 + i im2), shape (..., 2), from real parts."""
    return np.stack([re1, im1, re2, im2], axis=-1).view(complex)


def _parts(s: np.ndarray) -> tuple:
    """(a, b, c, d) with s = (a + ib, c + id) per point."""
    return s[..., 0].real, s[..., 0].imag, s[..., 1].real, s[..., 1].imag


def _norm2(s: np.ndarray) -> np.ndarray:
    """|s|^2 = (a^2 + b^2) + (c^2 + d^2) per point."""
    a, b, c, d = _parts(s)
    return (a * a + b * b) + (c * c + d * d)


def spin_density(s: np.ndarray) -> np.ndarray:
    """The real 3-vectors (s.sigma_k s) of spinors s, shape (..., 2); their length is |s|^2.

    For s = (a + ib, c + id): (2(ac + bd), 2(ad - bc), (a^2 + b^2) - (c^2 + d^2)).
    """
    a, b, c, d = _parts(s)
    return np.stack([2 * (a * c + b * d), 2 * (a * d - b * c), (a * a + b * b) - (c * c + d * d)], axis=-1)


def _sigma_dot(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(sigma.v) s per point, for real 3-vectors v: with s = (a + ib, c + id),
    (v3 s1 + (v1 - i v2) s2, (v1 + i v2) s1 - v3 s2) in real and imaginary parts."""
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    a, b, c, d = _parts(s)
    return _spinors(v3 * a + (v1 * c + v2 * d), v3 * b + (v1 * d - v2 * c),
                    (v1 * a - v2 * b) - v3 * c, (v1 * b + v2 * a) - v3 * d)


def _spinor(x: np.ndarray, upper, lower, scale) -> np.ndarray:
    """scale (upper + lower X) phi0 = scale (upper + i lower x3, lower (i x1 - x2))."""
    return _spinors(scale * upper, scale * (lower * x[..., 2]),
                    scale * -(lower * x[..., 1]), scale * (lower * x[..., 0]))


def _radial_spinor(x, radial) -> np.ndarray:
    """_spinor(x, *radial(u)), the elementwise radial(u) taken once per distinct u = |x|^2."""
    x = np.asarray(x, dtype=float)
    u = np.sum(x * x, axis=-1)
    distinct, index = np.unique(u, return_inverse=True)
    return _spinor(x, *(v[index.reshape(u.shape)] for v in radial(distinct)))


def jacobi(n: int, a: float, b: float, y: np.ndarray) -> np.ndarray:
    """P_n^(a,b)(y) by the forward three-term recurrence (DLMF 18.9.1-2) from
    P_-1 = 0 and P_0 = 1, so degree -1 gives zeros.  Each step coefficient is
    one division of products that are exact for half-integer a and b."""
    previous, p = np.zeros_like(y), np.ones_like(y)
    if n < 0:
        return previous
    for j in range(n):  # d P_j+1 = (c+1) ((c+2) c y + a^2 - b^2) P_j - 2 (j+a) (j+b) (c+2) P_j-1
        c = 2 * j + a + b
        d = 2 * (j + 1) * (j + a + b + 1) * c
        slope, offset = (c + 1) * (c + 2) * c / d, (c + 1) * (a * a - b * b) / d
        p, previous = (slope * y + offset) * p - 2 * (j + a) * (j + b) * (c + 2) / d * previous, p
    return p


class ZeroModeField:
    """Evaluatable spinor field of order m with coupling h = 3*b0/<x>^2.

    Construction runs one exact check, in integers.  It takes (j, sign) =
    `family_member(b0)` and refuses b0 if it is no family member or j > m+1:
    `root_theorem_failures` proves that such b0^2 is no root of P_m, so the
    closing equation fails.  Otherwise the lifted closed form of (k, sign),
    k = j-1, must pass `closed_form_failures(m, k, sign)`: a_0 = 1, b_0 = b0
    and every equation of the order-m system.  Given a_0 and b_0 the
    equations fix (a, b), so these are the coefficients that
    `instantiate_solution(m, b0)` steps.  The field then keeps only
    (k, sign), which is all that it evaluates.
    Methods take points of shape (..., 3) and return spinors of shape (..., 2).
    """

    def __init__(self, m: int, b0):
        try:
            j, self.sign = family_member(Fraction(b0))
            if j > m + 1:
                raise ValueError
        except ValueError:
            raise ValueError("coefficients do not solve the order-m system") from None
        self.k = k = j - 1
        if closed_form_failures(m, k, self.sign):
            raise ValueError("coefficients differ from the lifted closed form")
        # k!/(3/2)_k, which turns P_k^(1/2,3/2)(1-2s) into F_k(s)
        self._norm = float(Fraction(math.factorial(k) * 2**k, math.prod(range(3, 2 * k + 2, 2))))

    @classmethod
    def designated(cls, m: int) -> "ZeroModeField":
        """The designated member, j = m+1 with positive sign and b0 = (2m+3)/3."""
        return cls(m, family_b0(m + 1))

    def _jacobi(self, y, n: int, shift: float = 0.0):
        """k!/(3/2)_k times P_n^(1/2+shift,3/2+shift)(y) and sign P_n^(3/2+shift,1/2+shift)(y),
        the second from the same run at -y."""
        p = self._norm * jacobi(n, 0.5 + shift, 1.5 + shift, np.concatenate([y, -y]))
        return p[:len(y)], self.sign * (-1) ** (n % 2) * p[len(y):]

    def evaluate(self, x) -> np.ndarray:
        """psi at points x."""
        def radial(u):
            w = 1.0 + u
            return *self._jacobi((1.0 - u) / w, self.k), 1.0 / (w * np.sqrt(w))
        return _radial_spinor(x, radial)

    def sigma_d(self, x) -> np.ndarray:
        """(sigma.D) psi at points x, D = -i grad, from the Jacobi form.

        psi = (f(u) + g(u) X) phi0 with u = |x|^2 gives (sigma.D) psi = [(3g + 2u g') - 2f' X] phi0;
        dy/du = -2/(1+u)^2 and dP_n^(a,b)/dy = (n+a+b+1)/2 P_{n-1}^(a+1,b+1).
        """
        def radial(u):
            w, y = 1.0 + u, (1.0 - u) / (1.0 + u)
            p, q = self._jacobi(y, self.k)
            dp, dq = ((self.k + 3) / 2 * d for d in self._jacobi(y, self.k - 1, 1.0))
            return 3 * q - 4 * u / w * dq, 3 * p + 4 * dp / w, 1.0 / (w * w * np.sqrt(w))
        return _radial_spinor(x, radial)

    def h(self, x):
        """The coupling 3*b0/<x>^2 at points x; 3*b0 = sign (2k+3) exactly."""
        x = np.asarray(x, dtype=float)
        return float(self.sign * (2 * self.k + 3)) / (1.0 + np.sum(x * x, axis=-1))

    def vector_potential(self, x) -> np.ndarray:
        """A(x) = h(x) * spin_density(psi(x)) / |psi(x)|^2."""
        return _potential(self.evaluate(x), self.h(x))[0]


def _potential(s: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """The vector potential and |s|^2 per point, for s = psi(x) and h = h(x)."""
    n2 = _norm2(s)
    return (h / n2)[..., None] * spin_density(s), n2


def _sigma_d(evaluate, x, step: float) -> np.ndarray:
    """(sigma.D) psi at x; D = -i grad by 4th-order central differences."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    out = np.zeros(2, dtype=complex)
    for unit in np.eye(3):
        e = step * unit
        grad = (evaluate(x - 2 * e) - 8 * evaluate(x - e) + 8 * evaluate(x + e) - evaluate(x + 2 * e)) / (12 * step)
        out += _sigma_dot(unit, grad)
    return -1j * out


def weyl_dirac_residual(f: ZeroModeField, x, step: float = 1e-3) -> float:
    """|| sigma.(D - A) psi || at x; A from the induced vector potential."""
    lhs = _sigma_d(f.evaluate, x, step)
    return float(np.sqrt(_norm2(lhs - _sigma_dot(f.vector_potential(x), f.evaluate(x)))))


def l2_norm_squared(f: ZeroModeField) -> float:
    """The integral of |psi|^2 over R^3: 2(2k+3) pi^2 / (3(k+1)(k+2)), rounded once.

    psi = <x>^-3 c (P(y) + sign Q(y) X) phi0 with c = k!/(3/2)_k, P = P_k^(1/2,3/2),
    Q(y) = P_k^(3/2,1/2)(y) = (-1)^k P(-y) and y = (1-u)/(1+u); then
    4 pi r^2 |psi|^2 dr = (pi/2) c^2 (1-y)^(1/2) (1+y)^(1/2) (P^2 + Q^2 (1-y)/(1+y)) dy.
    Reflecting y -> -y in the Q^2 term and adding (1-y) + (1+y) = 2 leaves
    pi c^2 int P^2 w/(1-y^2) dy, w = (1-y)^a (1+y)^b the Jacobi weight at
    a = 1/2, b = 3/2.  Split 1/(1-y^2) = (1/(1-y) + 1/(1+y))/2; with
    P = P(1) + (y-1) R, deg R < k, orthogonality leaves a Beta integral,
    int w P^2/(1-y) = (2k+a+b+1) h_k/(2a), and likewise at y = -1 with b.
    So the integral is (2k+3)(1/a + 1/b) h_k/4 = 2(2k+3) h_k/3, and
    h_k = 8 Gamma(k+3/2) Gamma(k+5/2) / ((2k+3) k! (k+2)!) (DLMF Table 18.3.1)
    gives c^2 h_k = pi/((k+1)(k+2)).  Neither m (the lifts cancel) nor the
    sign enters; k = 0 is the base mode's pi^2.
    """
    return float(Fraction(2 * (2 * f.k + 3), 3 * (f.k + 1) * (f.k + 2))) * math.pi**2


CSV_COLUMNS = [
    "x1", "x2", "x3",
    "re_psi1", "im_psi1", "re_psi2", "im_psi2",
    "psi_norm2", "A1", "A2", "A3", "h", "residual",
]
CSV_BLOCK_ROWS = 1024  # rows held as text at a time


def _grid_rows(f: ZeroModeField, extent: float, n: int) -> np.ndarray:
    """The CSV_COLUMNS values on a cubic n^3 grid, x3 varying fastest.

    Each column is evaluated once on the whole grid; the residual
    || sigma.(D - A) psi || uses the analytic sigma.D.  A value that is not
    finite raises FloatingPointError at the first such row.  No grid inside
    `cli.FIELD_EXTENT_MAX` has one, so this only guards against printing NaN.
    """
    axis = np.linspace(-extent, extent, n)
    x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    with np.errstate(all="ignore"):  # a non-finite row raises below
        s = f.evaluate(x)
        h = f.h(x)
        a, n2 = _potential(s, h)
        residual = np.sqrt(_norm2(f.sigma_d(x) - _sigma_dot(a, s)))
    rows = np.column_stack([x, s.view(float), n2, a, h, residual])  # psi as re, im per component
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise FloatingPointError(f"non-finite field value at x = {tuple(rows[np.argmax(bad), :3].tolist())}")
    return rows


def sample_grid(f: ZeroModeField, extent: float, n: int):
    """Field samples on a cubic grid as CSV text chunks, x3 varying fastest.

    The rows are those of `_grid_rows`, which raises on the first bad row
    before this returns, so before any text exists.  The chunks are the
    header, then the lines of CSV_BLOCK_ROWS rows at a time.  Floats use
    repr, which round-trips doubles, once per distinct magnitude of the grid:
    for every finite double, -0.0 included, repr(-v) is "-" + repr(v).
    Lines end in CRLF, as csv.writer ends them.
    """
    rows = _grid_rows(f, extent, n)
    # distinct doubles told apart by bit pattern, so that -0.0 keeps its sign: first per
    # column, then across the columns' distinct values, so that no sort spans the grid
    columns = [np.unique(column, return_inverse=True) for column in rows.view(np.int64).T]
    del rows
    bits, where = np.unique(np.concatenate([d for d, _ in columns]), return_inverse=True)
    magnitudes, of = np.unique(bits & np.int64(2**63 - 1), return_inverse=True)  # sign bit cleared
    values, text = magnitudes.view(np.float64), np.empty(len(magnitudes), dtype=object)
    for start in range(0, len(text), CSV_BLOCK_ROWS):  # no list of every double or repr at once
        block = slice(start, start + CSV_BLOCK_ROWS)
        text[block] = [repr(v) for v in values[block].tolist()]
    # one string per signed double keeps the peak low: a magnitude seen only with the sign
    # bit set takes its "-" in place, before the gather, and the other negatives after it
    negative, positive = bits < 0, np.zeros(len(magnitudes), dtype=bool)
    positive[of[~negative]] = True
    text[~positive] = "-" + text[~positive]
    text, paired = text[of], negative & positive[of]
    text[paired] = "-" + text[paired]
    ends = np.cumsum([len(d) for d, _ in columns])
    texts = [text[w] for w in np.split(where, ends[:-1])]  # shared strings, per column
    return _csv_chunks(texts, [index for _, index in columns])


def _csv_chunks(texts: list, indices: list):
    """The header, then per block of rows the lines whose cell c is texts[c][indices[c][row]]."""
    yield ",".join(CSV_COLUMNS) + "\r\n"
    for start in range(0, len(indices[0]), CSV_BLOCK_ROWS):
        block = (t[i[start:start + CSV_BLOCK_ROWS]].tolist() for t, i in zip(texts, indices))
        yield "\r\n".join(map(",".join, zip(*block))) + "\r\n"
