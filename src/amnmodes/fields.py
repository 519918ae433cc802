"""Zero-mode spinor fields in closed form.

Every verified order-m solution is the order-k designated one
(b0 = sign (2k+3)/3, 0 <= k <= m) lifted m-k times, and the lifts cancel
against the prefactor, so psi = <x>^-3 [F_k(s) + sign (-1)^k F_k(1-s) X] phi0
with s = |x|^2/(1+|x|^2), X = i sigma.x, phi0 = (1, 0) and
F_k(s) = 2F1(-k, k+3; 3/2; s) = k!/(3/2)_k P_k^(1/2,3/2)(1-2s), a Jacobi
polynomial (DLMF 15.8.1, 18.5.7).  A field is built from its request
(m, b0) alone and checks its coefficients against the lifted closed form
exactly.  psi and (sigma.D) psi are evaluated on arrays of points; their
radial parts depend on |x|^2 alone and are evaluated once per distinct
|x|^2.  The L2 norm is a closed form in k, from the Jacobi norms.  No
request runs the finite-difference Weyl-Dirac residual (with `_sigma_d`
and `vector_potential`, which it reads), `designated` or the L2 norm:
the bench harness in `perfbench/` calls them by name.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .recurrence import closed_form_solution, family_b0, family_member, instantiate_solution, verify_system

SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])  # sigma_1..3
SPINOR_FLOOR = 1e-30  # |psi|^2 below this is a vanished spinor; the potential divides by it


def spin_density(s: np.ndarray) -> np.ndarray:
    """The real 3-vectors (s.sigma_k s) of spinors s, shape (..., 2); their length is |s|^2."""
    return np.einsum("...i,kij,...j->...k", np.conj(s), SIGMA, s).real


def _sigma_dot(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(sigma.v) s, per point."""
    return np.einsum("...k,kij,...j->...i", v, SIGMA, s)


def _spinor(x: np.ndarray, upper, lower, scale) -> np.ndarray:
    """scale (upper + lower X) phi0 = scale (upper + i lower x3, lower (i x1 - x2))."""
    up, down = upper + 1j * lower * x[..., 2], lower * (1j * x[..., 0] - x[..., 1])
    return np.stack([scale * up, scale * down], axis=-1)


def _radial_spinor(x, radial) -> np.ndarray:
    """_spinor(x, *radial(u)), the elementwise radial(u) taken once per distinct u = |x|^2."""
    x = np.asarray(x, dtype=float)
    u = np.sum(x * x, axis=-1)
    distinct, index = np.unique(u, return_inverse=True)
    return _spinor(x, *(v[index.reshape(u.shape)] for v in radial(distinct)))


class ZeroModeField:
    """Evaluatable spinor field of order m with coupling h = 3*b0/<x>^2.

    Construction steps the coefficients at (m, b0) with `instantiate_solution`,
    checks them exactly against the coefficient system and the lifted closed
    form of (k, sign), and refuses anything else.  `label` is the family
    index (j, sign) = `family_member(b0)`, k = j-1.  Methods take points of
    shape (..., 3) and return spinors of shape (..., 2).
    """

    def __init__(self, m: int, b0):
        solution = instantiate_solution(m, b0)
        if any(r != 0 for r in verify_system(solution)):
            raise ValueError("coefficients do not solve the order-m system")
        j, self.sign = self.label = family_member(solution.b0)
        self.k = k = j - 1
        closed = closed_form_solution(m, k, self.sign)
        if (closed.a, closed.b) != (solution.a, solution.b):
            raise ValueError("coefficients differ from the lifted closed form")
        self.m = m
        self.b0 = solution.b0
        self.a = solution.a
        self.b = solution.b
        self.alpha = 3 * solution.b0
        # k!/(3/2)_k, which turns P_k^(1/2,3/2)(1-2s) into F_k(s)
        self._norm = float(Fraction(math.factorial(k) * 2**k, math.prod(range(3, 2 * k + 2, 2))))

    @classmethod
    def designated(cls, m: int) -> "ZeroModeField":
        """The designated member, j = m+1 with positive sign and b0 = (2m+3)/3."""
        return cls(m, family_b0(m + 1))

    def _jacobi(self, y, n: int, shift: float = 0.0):
        """k!/(3/2)_k times P_n^(1/2+shift,3/2+shift)(y) and sign P_n^(3/2+shift,1/2+shift)(y)."""
        from scipy.special import eval_jacobi  # here, so that only field requests import scipy

        return (
            self._norm * eval_jacobi(n, 0.5 + shift, 1.5 + shift, y),
            self.sign * self._norm * eval_jacobi(n, 1.5 + shift, 0.5 + shift, y),
        )

    def evaluate(self, x) -> np.ndarray:
        """psi at points x."""
        def radial(u):
            return *self._jacobi((1.0 - u) / (1.0 + u), self.k), (1.0 + u) ** -1.5
        return _radial_spinor(x, radial)

    def sigma_d(self, x) -> np.ndarray:
        """(sigma.D) psi at points x, D = -i grad, from the Jacobi form.

        psi = (f(u) + g(u) X) phi0 with u = |x|^2 gives (sigma.D) psi = [(3g + 2u g') - 2f' X] phi0;
        dy/du = -2/(1+u)^2 and dP_n^(a,b)/dy = (n+a+b+1)/2 P_{n-1}^(a+1,b+1).
        """
        def radial(u):
            w = 1.0 + u
            y = (1.0 - u) / w
            p, q = self._jacobi(y, self.k)
            # eval_jacobi is 0 at degree -1, so both derivatives vanish at k = 0
            dp, dq = ((self.k + 3) / 2 * d for d in self._jacobi(y, self.k - 1, 1.0))
            return 3 * q - 4 * u / w * dq, 3 * p + 4 * dp / w, w**-2.5
        return _radial_spinor(x, radial)

    def h(self, x):
        """The coupling 3*b0/<x>^2 at points x."""
        x = np.asarray(x, dtype=float)
        return float(self.alpha) / (1.0 + np.sum(x * x, axis=-1))

    def vector_potential(self, x) -> np.ndarray:
        """A(x) = h(x) * spin_density(psi(x)) / |psi(x)|^2."""
        a, n2 = _potential(self.evaluate(x), self.h(x))
        if np.any(n2 < SPINOR_FLOOR):
            raise ValueError(f"spinor vanishes at {x}")
        return a


def _potential(s: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """The vector potential and |s|^2 per point, for s = psi(x) and h = h(x)."""
    n2 = np.sum(s.real**2 + s.imag**2, axis=-1)
    return (h / n2)[..., None] * spin_density(s), n2


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


def weyl_dirac_residual(f: ZeroModeField, x, step: float = 1e-3) -> float:
    """|| sigma.(D - A) psi || at x; A from the induced vector potential."""
    lhs = _sigma_d(f.evaluate, x, step)
    return float(np.linalg.norm(lhs - _sigma_dot(f.vector_potential(x), f.evaluate(x))))


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
    || sigma.(D - A) psi || uses the analytic sigma.D.  The first bad row
    raises: ValueError if its spinor vanishes, FloatingPointError if a
    value is not finite (|x|^2 overflows).
    """
    axis = np.linspace(-extent, extent, n)
    x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    with np.errstate(all="ignore"):  # bad rows raise below
        s = f.evaluate(x)
        h = f.h(x)
        a, n2 = _potential(s, h)
        residual = np.linalg.norm(f.sigma_d(x) - _sigma_dot(a, s), axis=-1)
    psi = [s[:, 0].real, s[:, 0].imag, s[:, 1].real, s[:, 1].imag]
    rows = np.column_stack([x, *psi, n2, a, h, residual])
    vanishing = n2 < SPINOR_FLOOR
    bad = vanishing | ~np.isfinite(rows).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if vanishing[i]:
            raise ValueError(f"spinor vanishes at {x[i]}")
        raise FloatingPointError(f"non-finite field value at x = {tuple(rows[i, :3].tolist())}")
    return rows


def sample_grid(f: ZeroModeField, extent: float, n: int):
    """Field samples on a cubic grid as CSV text chunks, x3 varying fastest.

    The rows are those of `_grid_rows`, which raises on the first bad row
    before this returns, so before any text exists.  The chunks are the
    header, then the lines of CSV_BLOCK_ROWS rows at a time.  Floats use
    repr, which round-trips doubles, once per distinct double of the grid;
    lines end in CRLF, as csv.writer ends them.
    """
    rows = _grid_rows(f, extent, n)
    # distinct doubles told apart by bit pattern, so that -0.0 keeps its sign: first per
    # column, then across the columns' distinct values, so that no sort spans the grid
    columns = [np.unique(column, return_inverse=True) for column in rows.view(np.int64).T]
    del rows
    bits, where = np.unique(np.concatenate([d for d, _ in columns]), return_inverse=True)
    values, text = bits.view(np.float64), np.empty(len(bits), dtype=object)
    for start in range(0, len(text), CSV_BLOCK_ROWS):  # no list of every double or repr at once
        block = slice(start, start + CSV_BLOCK_ROWS)
        text[block] = [repr(v) for v in values[block].tolist()]
    ends = np.cumsum([len(d) for d, _ in columns])
    texts = [text[w] for w in np.split(where, ends[:-1])]  # shared strings, per column
    return _csv_chunks(texts, [index for _, index in columns])


def _csv_chunks(texts: list, indices: list):
    """The header, then per block of rows the lines whose cell c is texts[c][indices[c][row]]."""
    yield ",".join(CSV_COLUMNS) + "\r\n"
    for start in range(0, len(indices[0]), CSV_BLOCK_ROWS):
        block = (t[i[start:start + CSV_BLOCK_ROWS]].tolist() for t, i in zip(texts, indices))
        yield "\r\n".join(map(",".join, zip(*block))) + "\r\n"
