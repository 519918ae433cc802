"""Numeric spinor fields: evaluation, potentials, residual oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import (
    SIGMA,
    PowerBasisField,
    beta_sum_l2,
    coprime_mod_p,
    csv_reference,
    enumerate_family,
    exact_jacobi,
    horner,
    jacobi_coefficients,
    lift_solution,
    loss_yau_residual,
    mp_psi,
    mul,
    quadrature_l2,
    rational_form,
    reference_evaluate,
    reference_sigma_d,
    reference_sigma_dot,
    reference_spin_density,
)

from amnmodes import fields, recurrence, roots
from amnmodes.cli import FIELD_EXTENT_MAX
from amnmodes.fields import (
    CSV_COLUMNS,
    ZeroModeField,
    _sigma_d,
    l2_norm_squared,
    sample_grid,
    spin_density,
    weyl_dirac_residual,
)
from amnmodes.recurrence import (
    AnsatzSolution,
    build_amn_polynomial,
    family_b0,
    family_member,
    instantiate_solution,
    verify_system,
)

F = Fraction


def assert_l2_closed_form(m: int, members) -> None:
    """For each (b0, field) of order m, `l2_norm_squared` is 2(2k+3) pi^2 / (3(k+1)(k+2)),
    equal to the Beta sum of `instantiate_solution(m, b0)` exactly."""
    for b0, f in members:
        closed = Fraction(2 * (2 * f.k + 3), 3 * (f.k + 1) * (f.k + 2))
        assert beta_sum_l2(instantiate_solution(m, b0)) == closed, (m, b0)
        assert l2_norm_squared(f) == float(closed) * math.pi**2, (m, b0)


def grid_rows_or_error(f: ZeroModeField, extent: float, n: int):
    """`_grid_rows` as its shape and raw bytes, or the type and text of what it raised."""
    try:
        rows = fields._grid_rows(f, extent, n)
        return rows.shape, rows.tobytes()
    except FloatingPointError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def base():
    return ZeroModeField.designated(0)


@pytest.fixture(scope="module")
def order1():
    return ZeroModeField.designated(1)


class TestEvaluation:
    def test_origin_is_phi0(self, base, order1):
        for f in (base, order1, ZeroModeField.designated(3)):
            assert np.allclose(f.evaluate([0, 0, 0]), [1, 0])

    def test_order1_at_unit_z(self, order1):
        expected = (-1 + 1j) / (6 * math.sqrt(2))
        psi = order1.evaluate([0, 0, 1])
        assert abs(psi[0] - expected) < 1e-15
        assert abs(psi[1]) < 1e-15

    def test_base_mode_at_unit_x(self, base):
        psi = base.evaluate([1, 0, 0])
        assert np.allclose(psi, 2**-1.5 * np.array([1, 1j]))

    def test_construction_rejects_non_solution(self):
        # b0**2 = 49/25 is no root of P_1, so the closing equation fails
        with pytest.raises(ValueError, match="do not solve"):
            ZeroModeField(1, F(7, 5))

    @pytest.mark.parametrize("m", range(13))
    def test_construction_refuses_what_the_closing_equation_refuses(self, m):
        """The gate refuses a non-member, or a member j > m+1, without solving for
        it, on the strength of `root_theorem_failures`; here the closing residual
        of the stepped coefficients is computed and is nonzero for each such b0."""
        b0s = [F(7, 5), F(1, 2), *(family_b0(j, sign) for j in (m + 2, m + 3) for sign in (1, -1))]
        for b0 in b0s:
            *_, closing = verify_system(instantiate_solution(m, b0))
            assert closing != 0, b0
            with pytest.raises(ValueError, match="do not solve"):
                ZeroModeField(m, b0)

    def test_construction_rejects_scaled_solution(self, monkeypatch):
        # twice a solution solves the linear system, but is not the closed form
        def scaled(m, k, sign):
            den, a, b = original(m, k, sign)
            return den, [2 * c for c in a], [2 * c for c in b]

        original = recurrence.closed_form_integers
        monkeypatch.setattr(recurrence, "closed_form_integers", scaled)
        with pytest.raises(ValueError, match="closed form"):
            ZeroModeField(2, F(5, 3))

    @pytest.mark.parametrize("m", range(7))
    def test_matches_power_basis(self, m):
        rng = np.random.default_rng(m)
        points = rng.uniform(-2, 2, (50, 3))
        for b0, f in enumerate_family(m):
            ref = PowerBasisField(instantiate_solution(m, b0))
            got = f.evaluate(points)
            for x, psi in zip(points, got):
                want = ref.evaluate(x)
                assert np.linalg.norm(psi - want) <= 1e-13 * np.linalg.norm(want), (b0, x)

    def test_array_and_per_point_calls_agree(self):
        f = ZeroModeField(4, F(-7, 3))
        points = np.random.default_rng(5).uniform(-3, 3, (4, 5, 3))
        got = f.evaluate(points)
        assert got.shape == (4, 5, 2)
        assert f.sigma_d(points).shape == (4, 5, 2)
        for idx in np.ndindex(4, 5):
            assert np.array_equal(got[idx], f.evaluate(points[idx]))


class TestSpinDensity:
    def test_sigma3_eigenvector(self):
        assert np.allclose(spin_density(np.array([1, 0], complex)), [0, 0, 1])

    def test_sigma1_eigenvector(self):
        s = np.array([1, 1], complex) / math.sqrt(2)
        assert np.allclose(spin_density(s), [1, 0, 0])

    def test_matches_sigma_route(self):
        """`spin_density` and `_sigma_dot` against their sums over `SIGMA`: equal on
        small Gaussian integers, where every operation is exact, and within a few
        roundings on random doubles."""
        rng = np.random.default_rng(12)
        small = rng.integers(-9, 10, (500, 2)) + 1j * rng.integers(-9, 10, (500, 2))
        v = rng.integers(-9, 10, (500, 3)).astype(float)
        assert np.array_equal(spin_density(small), reference_spin_density(small))
        assert np.array_equal(fields._sigma_dot(v, small), reference_sigma_dot(v, small))
        s = rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))
        v = rng.normal(size=(500, 3))
        n2 = np.sum(np.abs(s) ** 2, axis=-1)
        scale = np.linalg.norm(v, axis=-1) * np.sqrt(n2)
        assert np.all(np.abs(spin_density(s) - reference_spin_density(s)) <= 1e-15 * n2[:, None])
        assert np.all(np.abs(fields._sigma_dot(v, s) - reference_sigma_dot(v, s)) <= 1e-15 * scale[:, None])

    def test_length_equals_norm_squared(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            s = rng.normal(size=2) + 1j * rng.normal(size=2)
            n2 = float(np.real(np.conj(s) @ s))
            assert abs(np.linalg.norm(spin_density(s)) - n2) <= 1e-12 * n2


class TestCoupling:
    def test_base_mode_at_origin(self, base):
        assert base.h([0, 0, 0]) == 3.0

    def test_order2_unit_sphere(self):
        f = ZeroModeField.designated(2)
        assert f.h([1, 0, 0]) == pytest.approx(3.5)

    def test_sign_flip(self):
        f = ZeroModeField(1, F(-5, 3))
        assert f.h([0, 0, 0]) == -5.0


class TestVectorPotential:
    def test_base_mode_origin(self, base):
        assert np.allclose(base.vector_potential([0, 0, 0]), [0, 0, 3])

    def test_base_mode_unit_z(self, base):
        assert np.allclose(base.vector_potential([0, 0, 1]), [0, 0, 1.5])

    def test_base_mode_closed_form(self, base):
        # (1-|x|^2) w0 + 2 (w0.x) x + 2 w0 x x, scaled by 3<x>^-4, w0 = e3
        rng = np.random.default_rng(3)
        w0 = np.array([0.0, 0.0, 1.0])
        for _ in range(1000):
            x = rng.uniform(-2, 2, 3)
            r2 = x @ x
            closed = (
                3
                / (1 + r2) ** 2
                * ((1 - r2) * w0 + 2 * (w0 @ x) * x + 2 * np.cross(w0, x))
            )
            a = base.vector_potential(x)
            assert np.linalg.norm(a - closed) <= 1e-12 * np.linalg.norm(closed)

    def test_magnitude_equals_coupling(self):
        rng = np.random.default_rng(11)
        for f in (ZeroModeField.designated(0), ZeroModeField.designated(2)):
            for _ in range(100):
                x = rng.uniform(-3, 3, 3)
                a = f.vector_potential(x)
                h = f.h(x)
                assert abs(np.linalg.norm(a) - abs(h)) <= 1e-12 * abs(h)


class TestLossYauResidual:
    def test_small_on_valid_field(self, order1):
        x = np.array([0.3, -0.2, 0.5])
        n = np.linalg.norm(order1.evaluate(x))
        assert loss_yau_residual(order1, x, 1e-3) <= 1e-8 * n

    def test_fourth_order_convergence(self, order1):
        x = np.array([0.3, -0.2, 0.5])
        steps = [1e-2, 5e-3, 2.5e-3]
        res = [loss_yau_residual(order1, x, h) for h in steps]
        order = np.polyfit(np.log(steps), np.log(res), 1)[0]
        assert 3.5 <= order <= 4.5

    def test_floor_on_perturbed_field(self):
        s = instantiate_solution(1, F(5, 3))
        f = PowerBasisField(AnsatzSolution(1, s.b0, (s.a[0], s.a[1] + F(1, 10)), s.b))
        x = np.array([0.4, 0.1, -0.7])
        residuals = [loss_yau_residual(f, x, h) for h in (1e-2, 1e-3, 1e-4)]
        assert min(residuals) >= 1e-3

    @pytest.mark.parametrize("m, b0", [(3, F(7, 5)), (8, F(-1, 3))])
    def test_defect_size_off_the_roots(self, m, b0):
        """|sigma.D psi - h psi| = 3 |P_m(b0^2)| |x|^(2m+1) (1+|x|^2)^-(m+5/2) at a
        non-root b0, whose only nonzero residual is the closing one, -P_m(b0^2).
        Points lie at 0.5 <= |x| <= 2.6: nearer the origin the defect, of order
        |x|^(2m+1), sinks below the finite-difference error."""
        p = abs(float(horner(rational_form(build_amn_polynomial(m)), b0 * b0)))
        f = PowerBasisField(instantiate_solution(m, b0))
        rng = np.random.default_rng(20)
        directions = rng.normal(size=(20, 3))
        points = directions / np.linalg.norm(directions, axis=1)[:, None] * rng.uniform(0.5, 2.6, (20, 1))
        for x in points:
            u = float(x @ x)
            want = 3 * p * u ** (m + 0.5) * (1 + u) ** -(m + 2.5)
            assert abs(loss_yau_residual(f, x) - want) <= 1e-7 * want, x

    def test_step_must_be_positive(self, order1):
        with pytest.raises(ValueError):
            loss_yau_residual(order1, [0, 0, 0], 0.0)

    @given(st.lists(st.fractions(), min_size=4, max_size=4).filter(any))
    @example([F(1), F(0), F(0), F(0)])
    @example([F(1, 2), F(-3), F(0), F(7, 5)])
    def test_loss_yau_step_exactly(self, parts):
        """For every spinor psi != 0, a = <psi, sigma psi> from `fields.SIGMA` gives
        (sigma.a) psi = |psi|^2 psi and a.a = |psi|^4, in Gaussian rationals: so
        A = h a/|psi|^2 has sigma.A psi = h psi, and the CSV residual at a root is
        rounding alone.  A sigma_k negated whole keeps both; sigma_1 sigma_2 sigma_3 = i
        fixes their signs."""
        assert np.array_equal(SIGMA[0] @ SIGMA[1] @ SIGMA[2], 1j * np.eye(2))

        def times(z, w):
            return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]

        def total(zs):
            re, im = zip(*zs)
            return sum(re), sum(im)

        # SIGMA's entries are 0, +-1 and +-i, exact as (re, im) pairs
        sigma = [[[(F(int(z.real)), F(int(z.imag))) for z in row] for row in s] for s in SIGMA]
        psi = [(parts[0], parts[1]), (parts[2], parts[3])]
        bra = [(re, -im) for re, im in psi]
        a = [total(times(bra[i], times(s[i][j], psi[j])) for i in range(2) for j in range(2))
             for s in sigma]
        assert all(im == 0 for _, im in a), a
        norm2 = sum(re * re + im * im for re, im in psi)
        for i in range(2):
            got = total(times((a[k][0], F(0)), times(sigma[k][i][j], psi[j]))
                        for k in range(3) for j in range(2))
            assert got == (norm2 * psi[i][0], norm2 * psi[i][1]), i
        assert sum(re * re for re, _ in a) == norm2 * norm2


def test_spinor_never_vanishes():
    """psi = 0 needs a common root u > 0 of A and B (`fields` docstring).  For every
    k <= 50 and both signs, A and B of the order-k closed form are coprime mod the
    prime 2**61 - 1, with leading coefficients nonzero mod it, so coprime over Q;
    a lift multiplies both by 1 + u, so no member of any order has such a root."""
    p = 2**61 - 1
    for k in range(51):
        for sign in (1, -1):
            _, a, b = recurrence.closed_form_integers(k, k, sign)
            assert a[-1] % p and b[-1] % p, (k, sign)
            assert coprime_mod_p(a, b, p), (k, sign)
    # control: a common factor 1 + 2u planted into the k = 50 pair is found
    assert not coprime_mod_p(mul(a, (1, 2)), mul(b, (1, 2)), p)


class TestWeylDiracResidual:
    @pytest.mark.parametrize("m", [0, 1])
    def test_zero_mode_property(self, m):
        f = ZeroModeField.designated(m)
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1, 1, 3) * 3 ** (1 / 3)
            n = np.linalg.norm(f.evaluate(x))
            worst = max(worst, weyl_dirac_residual(f, x, 1e-3) / n)
        assert worst <= 1e-7

    def test_wrong_potential_control(self, base):
        # replace h by h+1 in the potential: residual no longer vanishes
        x = np.array([0.5, 0.2, -0.3])
        a = base.vector_potential(x) * (base.h(x) + 1) / base.h(x)
        sigma_a = sum(a[k] * SIGMA[k] for k in range(3))
        val = _sigma_d(base.evaluate, x, 1e-3) - sigma_a @ base.evaluate(x)
        assert np.linalg.norm(val) >= 1e-2 * np.linalg.norm(base.evaluate(x))


class TestL2Norm:
    @pytest.mark.parametrize("m", range(7))
    def test_matches_quadrature(self, m):
        for b0 in (family_b0(m + 1), -1):  # the designated and the (j = 1, -) member
            ref = quadrature_l2(PowerBasisField(instantiate_solution(m, b0)))
            assert abs(l2_norm_squared(ZeroModeField(m, b0)) - ref) <= 1e-9 * ref, b0

    @pytest.mark.parametrize("m", [*range(13), 100, 200, 500])
    def test_closed_form_equals_beta_sum(self, m):
        """Every member up to m = 12; the designated and k = 0 members above."""
        if m <= 12:
            assert_l2_closed_form(m, enumerate_family(m))
        else:
            assert_l2_closed_form(m, [(b0, ZeroModeField(m, b0)) for b0 in (family_b0(m + 1), 1)])

    @pytest.mark.parametrize("k", range(51))
    def test_closed_form_equals_beta_sum_per_k(self, k):
        b0s = (family_b0(k + 1), family_b0(k + 1, -1))
        for m in (k, k + 3):
            assert_l2_closed_form(m, [(b0, ZeroModeField(m, b0)) for b0 in b0s])

    def test_lift_leaves_the_norm(self):
        # lifting multiplies A, B by 1 + |x|^2 and the prefactor divides it out
        values = [l2_norm_squared(f) for b0, f in enumerate_family(4) if b0 == F(-5, 3)]
        lifted = ZeroModeField(9, F(-5, 3))
        assert l2_norm_squared(lifted) == values[0]


class TestAnalyticSigmaD:
    @pytest.mark.parametrize("m", range(7))
    def test_matches_finite_differences(self, m):
        rng = np.random.default_rng(100 + m)
        points = rng.uniform(-2, 2, (20, 3))
        for b0, f in enumerate_family(m):
            got = f.sigma_d(points)
            for x, val in zip(points, got):
                fd = _sigma_d(f.evaluate, x, 1e-3)
                scale = np.linalg.norm(f.evaluate(x))
                assert np.linalg.norm(val - fd) <= 1e-7 * scale, (b0, x)

    def test_loss_yau_equation(self):
        # sigma.D psi = h psi holds for every member, far out too
        points = np.random.default_rng(8).normal(size=(200, 3)) * np.logspace(-2, 3, 200)[:, None]
        for b0, f in enumerate_family(5):
            psi = f.evaluate(points)
            res = np.linalg.norm(f.sigma_d(points) - f.h(points)[:, None] * psi, axis=-1)
            assert np.all(res <= 1e-12 * np.linalg.norm(psi, axis=-1)), b0


@pytest.mark.parametrize("k", range(51))
def test_every_accepted_order(k):
    """Every field the CLI accepts, (k, sign) for k <= 50, built at order k and at
    order 50: psi against a 50-digit value from that order's power-basis
    coefficients, and the CSV residual against its 1e-7 bound.  Every other
    member (m, b0) builds the same field as (k, b0) (`TestFamily`)."""
    rng = np.random.default_rng(1000 + k)
    # one point per decade of radius, in random directions
    directions = rng.normal(size=(4, 3))
    points = directions / np.linalg.norm(directions, axis=1)[:, None] * [[0.05], [0.7], [4.0], [60.0]]
    for m, b0 in ((m, family_b0(k + 1, sign)) for m in sorted({k, 50}) for sign in (1, -1)):
        f, s = ZeroModeField(m, b0), instantiate_solution(m, b0)
        psi = f.evaluate(points)
        for x, got in zip(points, psi):
            want = np.array(mp_psi(s, x))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (m, b0, x)
        sigma_a = np.einsum("pk,kij->pij", f.vector_potential(points), SIGMA)
        residual = np.linalg.norm(f.sigma_d(points) - np.einsum("pij,pj->pi", sigma_a, psi), axis=-1)
        assert np.all(residual <= 1e-7 * np.linalg.norm(psi, axis=-1)), (m, b0)


def test_every_field_at_the_extent_bound():
    """Every field the CLI accepts, (k, sign) for k <= 50, on the 16^3 grid at
    `cli.FIELD_EXTENT_MAX`: each value finite, |psi|^2 a normal double, and the
    residual within its 1e-7 bound, a rounding of h psi (1.44e-14 of |h| |psi| at
    most, measured) that never reads exactly 0.0, as it would once its squares
    underflow (from --extent 1e33).  Near the origin exact cancellation gives
    0.0 on some rows (302 at --extent 2), so zeros are refused at the bound only."""
    for k in range(51):
        for sign in (1, -1):
            rows = fields._grid_rows(ZeroModeField(k, family_b0(k + 1, sign)), FIELD_EXTENT_MAX, 16)
            n2, h, residual = rows[:, 7], np.abs(rows[:, 11]), rows[:, 12]
            assert np.isfinite(rows).all(), (k, sign)
            assert np.all(n2 >= np.finfo(float).tiny), (k, sign)
            assert np.all(residual <= 1e-7 * np.sqrt(n2)), (k, sign)
            assert np.all(residual <= 1e-13 * h * np.sqrt(n2)), (k, sign)
            assert np.all(residual != 0.0), (k, sign)


def times_den(den, a, b) -> tuple[list, list]:
    """The rational lists a and b times den: integers where den clears them."""
    return [den * c for c in a], [den * c for c in b]


@pytest.mark.parametrize("m", range(11))
def test_closed_form_is_repeated_lift(m):
    for k in range(m + 1):
        for sign in (1, -1):
            den, a, b = recurrence.closed_form_integers(k, k, sign)
            s = AnsatzSolution(k, family_b0(k + 1, sign), *(tuple(F(c, den) for c in cs) for cs in (a, b)))
            for _ in range(m - k):
                s = lift_solution(s)
            den, a, b = recurrence.closed_form_integers(m, k, sign)
            assert times_den(den, s.a, s.b) == (a, b), (k, sign)


@pytest.mark.parametrize("k", [*range(51), 100, 200])
def test_closed_form_is_the_jacobi_form(k):
    """The coefficients construction compares are those of the F_k that `evaluate` computes."""
    for sign in (1, -1):
        den, a, b = recurrence.closed_form_integers(k, k, sign)
        assert times_den(den, *jacobi_coefficients(k, sign)) == (a, b), sign


# y = (1-u)/(1+u) at |x|^2 = u from 1e-3 to 1e6, +-1 and 0, and the worst of 53
# sampled doubles (1.4e-13 at k = 37 for (3/2, 5/2))
RADII = np.array([1e-3, 0.3, 3.0, 11.0, 60.0, 1e3, 1e6])
JACOBI_POINTS = np.array([-1.0, 0.0, 1.0, *(1 - RADII) / (1 + RADII), -0.9894693908688506])


@pytest.mark.parametrize("k", [*range(51), 100, 200])
def test_jacobi_recurrence_against_exact(k):
    """`fields.jacobi` against `exact_jacobi` at the same doubles, for the parameters
    of psi, (1/2, 3/2), and of its derivative, (3/2, 5/2), at y and -y: within 3e-13
    of the pair norm (P^(a,b)(y)^2 + P^(b,a)(y)^2)^(1/2), as `_jacobi` takes
    P^(b,a)(y) = (-1)^k P^(a,b)(-y) from the same run.  The worst measured is
    1.4e-13; k = 100 and 200 are checked at five of the points."""
    y = JACOBI_POINTS if k <= 50 else JACOBI_POINTS[[0, 1, 2, 5, -1]]
    y = np.concatenate([y, -y])
    for a, b in ((0.5, 1.5), (1.5, 2.5)):
        want = np.array([float(exact_jacobi(k, a, b, v)) for v in y])
        pair_norm = np.tile(np.hypot(*np.split(want, 2)), 2)
        assert np.all(np.abs(fields.jacobi(k, a, b, y) - want) <= 3e-13 * pair_norm), (a, b)


class TestRadialOncePerRadius:
    @pytest.mark.parametrize("k", range(51))
    def test_rows_equal_full_grid_route(self, k, monkeypatch):
        """`_grid_rows` gives the doubles of evaluating every point, bit for bit, for
        the fields (k, +) and (k, -); a lifted member is one of these (`TestFamily`)."""
        for f in (ZeroModeField(k, family_b0(k + 1, sign)) for sign in (1, -1)):
            for n in (2, 5, 16):
                for extent in (0.7, 2.0, 1e3):
                    got = grid_rows_or_error(f, extent, n)
                    with monkeypatch.context() as patch:
                        patch.setattr(ZeroModeField, "evaluate", reference_evaluate)
                        patch.setattr(ZeroModeField, "sigma_d", reference_sigma_d)
                        want = grid_rows_or_error(f, extent, n)
                    assert got == want, (f.k, f.sign, n, extent)

    def test_per_point_calls_equal_full_grid_route(self):
        """Each point on its own gets the doubles the full-grid route gives it in
        an array: one point is evaluated as an array of one, the same path as a grid."""
        points = np.random.default_rng(9).uniform(-3, 3, (200, 3))
        for f in (ZeroModeField.designated(7), ZeroModeField(7, F(-5, 3))):
            routes = ((f.evaluate, reference_evaluate), (f.sigma_d, reference_sigma_d))
            for method, reference in routes:
                want = reference(f, points).view(np.int64)
                got = np.array([method(x) for x in points]).view(np.int64)
                assert np.array_equal(got, want), (f.k, f.sign)

    def test_jacobi_once_per_distinct_radius(self, monkeypatch):
        """Each Jacobi call covers the grid's distinct radii once, at y and -y:
        P_n^(3/2,1/2) comes from the same run as P_n^(1/2,3/2).  k = 0 calls
        degree -1 for its derivative, and the recurrence's base case gives zeros."""
        calls = []

        def counted(n, a, b, y):
            values = original(n, a, b, y)
            calls.append((n, np.size(y), values))
            return values

        original = fields.jacobi
        monkeypatch.setattr(fields, "jacobi", counted)
        axis = np.linspace(-2.0, 2.0, 16)
        x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        distinct = len(np.unique(np.sum(x * x, axis=-1)))
        assert distinct == 185
        # one for psi and two for sigma.D psi; the (0, -) field lifted 50 times
        for f in (ZeroModeField.designated(5), ZeroModeField(50, -1)):
            calls.clear()
            fields._grid_rows(f, 2.0, 16)
            assert [(n, size) for n, size, _ in calls] == [(f.k, 2 * distinct), (f.k, 2 * distinct),
                                                           (f.k - 1, 2 * distinct)], f.k
        assert not calls[-1][2].view(np.int64).any()  # +0.0 at each point


class TestFamily:
    def test_designated_is_the_instantiated_member(self):
        # designated is the request (m, (2m+3)/3): the unlifted closed form, member (k, +) = (m, +)
        for m in range(51):
            f = ZeroModeField.designated(m)
            s = instantiate_solution(m, family_b0(m + 1))
            den, a, b = recurrence.closed_form_integers(m, m, 1)
            assert times_den(den, s.a, s.b) == (a, b), m
            assert (f.k, f.sign) == (m, 1), m
        # a lifted member is the field of its k: every (m, b0) builds what (k, b0) builds,
        # so the float sweeps evaluate each (k, sign) once, at order k and at order 50
        unlifted = {}
        for m in range(51):
            for b0, f in enumerate_family(m):
                if b0 not in unlifted:
                    j, _ = family_member(b0)
                    unlifted[b0] = vars(ZeroModeField(j - 1, b0))
                assert vars(f) == unlifted[b0], (m, b0)

    def test_m1(self):
        fam = enumerate_family(1)
        assert [b0 for b0, _ in fam] == [1, -1, F(5, 3), F(-5, 3)]
        assert [(f.k, f.sign) for _, f in fam] == [(0, 1), (0, -1), (1, 1), (1, -1)]
        assert vars(fam[2][1]) == vars(ZeroModeField.designated(1))

    def test_m3(self):
        fam = enumerate_family(3)
        assert len(fam) == 8
        assert {abs(b0) for b0, _ in fam} == {1, F(5, 3), F(7, 3), 3}

    def test_builds_no_pair_chain(self, monkeypatch):
        original = recurrence.coefficient_polynomials
        calls = []

        def counted(m):
            calls.append(m)
            return original(m)

        # patch every module that binds the builder, as a caller would see it
        for module in (recurrence, roots, fields):
            if getattr(module, "coefficient_polynomials", None) is original:
                monkeypatch.setattr(module, "coefficient_polynomials", counted)
        fam = enumerate_family(5)
        assert len(fam) == 12
        assert calls == []


class TestCsvSampling:
    def test_header_and_round_trip(self, base):
        lines = "".join(sample_grid(base, extent=1.0, n=2)).strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2**3
        values = [float(v) for v in lines[1].split(",")]
        assert len(values) == len(CSV_COLUMNS)
        # repr formatting round-trips doubles exactly
        assert values[0] == -1.0

    def test_one_psi_evaluation_per_grid(self, order1, monkeypatch):
        original = ZeroModeField.evaluate
        shapes = []

        def counted(self, x):
            shapes.append(np.shape(x))
            return original(self, x)

        monkeypatch.setattr(ZeroModeField, "evaluate", counted)
        "".join(sample_grid(order1, extent=1.0, n=3))
        assert shapes == [(3**3, 3)]

    @given(st.floats(max_value=-0.0, allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(-5e-324)  # the least subnormal
    @example(-2.225073858507201e-308)  # the greatest subnormal
    @example(-2.2250738585072014e-308)  # the least normal
    @example(-1.7976931348623157e308)  # the greatest finite
    @example(-1e16)  # repr turns to an exponent from here up
    @example(-1e-5)  # and below 1e-4
    def test_repr_of_a_negative_is_minus_the_repr_of_its_magnitude(self, v):
        # what lets sample_grid format each magnitude once
        assert math.copysign(1.0, v) < 0
        assert repr(v) == "-" + repr(-v)

    @pytest.mark.parametrize("m, b0", [(0, None), (50, None), (5, F(-7, 3))], ids=str)
    def test_one_repr_per_distinct_magnitude_of_the_grid(self, m, b0, monkeypatch):
        # a double shared by two columns, or by v and -v, is formatted once, never negative
        f = ZeroModeField.designated(m) if b0 is None else ZeroModeField(m, b0)
        calls = []

        def counted(v):
            calls.append(v)
            return repr(v)

        monkeypatch.setattr(fields, "repr", counted, raising=False)
        "".join(sample_grid(f, extent=2.0, n=16))
        magnitudes = fields._grid_rows(f, 2.0, 16).view(np.int64) & np.int64(2**63 - 1)
        assert len(calls) == len(np.unique(magnitudes))
        assert not np.signbit(calls).any()

    @pytest.mark.parametrize(
        "m, b0", [(0, None), (1, None), (6, None), (5, F(-7, 3))],
        ids=["designated-0", "designated-1", "designated-6", "m5-j3-minus"],
    )
    def test_rows_match_public_per_point_calls(self, m, b0):
        """A sample row equals the row built from the public per-point calls.

        Coordinates, psi and h are the same doubles; |psi|^2 and A agree to
        rounding, and the residual, itself rounding-sized, to 1e-15 |psi|.
        """
        f = ZeroModeField.designated(m) if b0 is None else ZeroModeField(m, b0)
        extent, n = 2.0, 3
        expected = []
        for x1 in np.linspace(-extent, extent, n):
            for x2 in np.linspace(-extent, extent, n):
                for x3 in np.linspace(-extent, extent, n):
                    x = np.array([x1, x2, x3])
                    s = f.evaluate(x)
                    a = f.vector_potential(x)
                    sigma_a = sum(a[k] * SIGMA[k] for k in range(3))
                    expected.append([
                        x1, x2, x3,
                        s[0].real, s[0].imag, s[1].real, s[1].imag,
                        float(np.real(np.conj(s) @ s)),
                        *a,
                        f.h(x),
                        np.linalg.norm(f.sigma_d(x) - sigma_a @ s),
                    ])
        want = np.array(expected)
        lines = "".join(sample_grid(f, extent=extent, n=n)).splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert got.shape == want.shape
        exact = [0, 1, 2, 3, 4, 5, 6, 11]
        assert np.array_equal(got[:, exact], want[:, exact])
        np.testing.assert_allclose(got[:, 7], want[:, 7], rtol=1e-15)
        h = np.abs(want[:, 11:12])
        assert np.all(np.abs(got[:, 8:11] - want[:, 8:11]) <= 1e-15 * h)
        assert np.all(np.abs(got[:, 12] - want[:, 12]) <= 1e-15 * np.sqrt(want[:, 7]))

    @pytest.mark.parametrize(
        "m, b0, extent, n",
        [(m, b0, 2.0, n) for m in (0, 5, 50) for b0 in (None, -1) for n in (0, 1, 2, 5, 16)]
        + [(m, b0, 1e3, 5) for m in (0, 5, 50) for b0 in (None, -1)]
        + [(5, F(-7, 3), 2.0, 5)]
        # every row the origin: -0.0 beside 0.0 in a row, and with b0 = -1 negatives alone
        + [(m, b0, 0.0, n) for m in (0, 5) for b0 in (None, -1) for n in (2, 3)],
        ids=str,
    )
    def test_bytes_match_csv_writer(self, m, b0, extent, n):
        f = ZeroModeField.designated(m) if b0 is None else ZeroModeField(m, b0)
        want = csv_reference(f, extent, n)
        assert "".join(sample_grid(f, extent=extent, n=n)) == want
        if b0 == F(-7, 3) or extent == 0.0:
            assert ",-0.0," in want and ",0.0," in want  # signed zeros occur and must stay apart
