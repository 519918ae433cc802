"""Numeric spinor fields: evaluation, potentials, residual oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from reference import (
    PowerBasisField,
    beta_sum_l2,
    csv_reference,
    enumerate_family,
    fraction_l2,
    jacobi_coefficients,
    lift_solution,
    loss_yau_residual,
    mp_psi,
    quadrature_l2,
    reference_evaluate,
    reference_sigma_d,
)

from amnmodes import fields, recurrence, roots
from amnmodes.fields import (
    CSV_COLUMNS,
    SIGMA,
    ZeroModeField,
    _sigma_d,
    l2_norm_squared,
    sample_grid,
    spin_density,
    weyl_dirac_residual,
)
from amnmodes.recurrence import AnsatzSolution, instantiate_solution

F = Fraction


def assert_l2_closed_form(fs) -> None:
    """`l2_norm_squared` is 2(2k+3) pi^2 / (3(k+1)(k+2)), equal to the Beta sum exactly."""
    for f in fs:
        closed = Fraction(2 * (2 * f.k + 3), 3 * (f.k + 1) * (f.k + 2))
        assert beta_sum_l2(f) == closed, (f.m, f.label)
        assert l2_norm_squared(f) == float(closed) * math.pi**2, (f.m, f.label)


def grid_rows_or_error(f: ZeroModeField, extent: float, n: int):
    """`_grid_rows` as its shape and raw bytes, or the type and text of what it raised."""
    try:
        rows = fields._grid_rows(f, extent, n)
        return rows.shape, rows.tobytes()
    except (ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)


def members(m: int) -> list[ZeroModeField]:
    """Every verified field of order m, m = 0 included."""
    if m == 0:
        return [ZeroModeField.designated(0), ZeroModeField(0, -1)]
    return enumerate_family(m)


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

    def test_construction_rejects_scaled_solution(self, monkeypatch):
        # twice a solution solves the linear system, but is not the closed form
        def scaled(m, b0):
            s = instantiate_solution(m, b0)
            return AnsatzSolution(m, s.b0, tuple(2 * c for c in s.a), tuple(2 * c for c in s.b))

        monkeypatch.setattr(fields, "instantiate_solution", scaled)
        with pytest.raises(ValueError, match="closed form"):
            ZeroModeField(2, F(5, 3))

    @pytest.mark.parametrize("m", range(7))
    def test_matches_power_basis(self, m):
        rng = np.random.default_rng(m)
        points = rng.uniform(-2, 2, (50, 3))
        for f in members(m):
            ref = PowerBasisField(AnsatzSolution(f.m, f.b0, f.a, f.b))
            got = f.evaluate(points)
            for x, psi in zip(points, got):
                want = ref.evaluate(x)
                assert np.linalg.norm(psi - want) <= 1e-13 * np.linalg.norm(want), (f.label, x)

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

    def test_step_must_be_positive(self, order1):
        with pytest.raises(ValueError):
            loss_yau_residual(order1, [0, 0, 0], 0.0)


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
    def test_base_mode_is_pi_squared(self, base):
        assert abs(l2_norm_squared(base) - math.pi**2) <= 1e-6

    @pytest.mark.parametrize("m", range(7))
    def test_matches_quadrature(self, m):
        for f in (ZeroModeField.designated(m), members(m)[1]):
            ref = quadrature_l2(PowerBasisField(AnsatzSolution(f.m, f.b0, f.a, f.b)))
            assert abs(l2_norm_squared(f) - ref) <= 1e-9 * ref, f.label

    @pytest.mark.parametrize("m", [*range(13), 50])
    def test_equals_fraction_reference(self, m):
        for f in members(m) if m <= 12 else [ZeroModeField.designated(m)]:
            assert l2_norm_squared(f) == fraction_l2(f), f.label

    @pytest.mark.parametrize("m", [*range(13), 100, 200, 500])
    def test_closed_form_equals_beta_sum(self, m):
        """Every member up to m = 12; the designated and k = 0 members above."""
        if m <= 12:
            assert_l2_closed_form(members(m))
        else:
            k0 = ZeroModeField(m, 1)
            assert_l2_closed_form([ZeroModeField.designated(m), k0])

    @pytest.mark.parametrize("k", range(51))
    def test_closed_form_equals_beta_sum_per_k(self, k):
        assert_l2_closed_form([ZeroModeField(m, F(sign * (2 * k + 3), 3))
                               for m in (k, k + 3) for sign in (1, -1)])

    def test_lift_leaves_the_norm(self):
        # lifting multiplies A, B by 1 + |x|^2 and the prefactor divides it out
        values = [l2_norm_squared(f) for f in members(4) if f.label == (2, -1)]
        lifted = ZeroModeField(9, F(-5, 3))
        assert l2_norm_squared(lifted) == values[0]


class TestAnalyticSigmaD:
    @pytest.mark.parametrize("m", range(7))
    def test_matches_finite_differences(self, m):
        rng = np.random.default_rng(100 + m)
        points = rng.uniform(-2, 2, (20, 3))
        for f in members(m):
            got = f.sigma_d(points)
            for x, val in zip(points, got):
                fd = _sigma_d(f.evaluate, x, 1e-3)
                scale = np.linalg.norm(f.evaluate(x))
                assert np.linalg.norm(val - fd) <= 1e-7 * scale, (f.label, x)

    def test_loss_yau_equation(self):
        # sigma.D psi = h psi holds for every member, far out too
        points = np.random.default_rng(8).normal(size=(200, 3)) * np.logspace(-2, 3, 200)[:, None]
        for f in members(5):
            psi = f.evaluate(points)
            res = np.linalg.norm(f.sigma_d(points) - f.h(points)[:, None] * psi, axis=-1)
            assert np.all(res <= 1e-12 * np.linalg.norm(psi, axis=-1)), f.label


@pytest.mark.parametrize("m", range(51))
def test_every_accepted_order(m):
    """Every member of every order the CLI accepts: psi against a 50-digit
    power-basis value, and the CSV residual against its 1e-7 bound."""
    rng = np.random.default_rng(1000 + m)
    # one point per decade of radius, in random directions
    directions = rng.normal(size=(4, 3))
    points = directions / np.linalg.norm(directions, axis=1)[:, None] * [[0.05], [0.7], [4.0], [60.0]]
    for f in members(m):
        psi = f.evaluate(points)
        for x, got in zip(points, psi):
            want = np.array(mp_psi(f, x))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (f.label, x)
        sigma_a = np.einsum("pk,kij->pij", f.vector_potential(points), SIGMA)
        residual = np.linalg.norm(f.sigma_d(points) - np.einsum("pij,pj->pi", sigma_a, psi), axis=-1)
        assert np.all(residual <= 1e-7 * np.linalg.norm(psi, axis=-1)), f.label


@pytest.mark.parametrize("m", range(11))
def test_closed_form_is_repeated_lift(m):
    for k in range(m + 1):
        for sign in (1, -1):
            s = recurrence.closed_form_solution(k, k, sign)
            for _ in range(m - k):
                s = lift_solution(s)
            assert recurrence.closed_form_solution(m, k, sign) == s, (k, sign)


@pytest.mark.parametrize("k", range(51))
def test_closed_form_is_the_jacobi_form(k):
    """The coefficients construction compares are those of the F_k that `evaluate` computes."""
    for sign in (1, -1):
        s = recurrence.closed_form_solution(k, k, sign)
        assert (s.a, s.b) == jacobi_coefficients(k, sign), sign


class TestRadialOncePerRadius:
    @pytest.mark.parametrize("m", range(51))
    def test_rows_equal_full_grid_route(self, m, monkeypatch):
        """`_grid_rows` gives the doubles of evaluating every point, bit for bit."""
        for f in (ZeroModeField.designated(m), ZeroModeField(m, -1)):
            for n in (2, 5, 16):
                for extent in (0.7, 2.0, 1e3):
                    got = grid_rows_or_error(f, extent, n)
                    with monkeypatch.context() as patch:
                        patch.setattr(ZeroModeField, "evaluate", reference_evaluate)
                        patch.setattr(ZeroModeField, "sigma_d", reference_sigma_d)
                        want = grid_rows_or_error(f, extent, n)
                    assert got == want, (f.label, n, extent)

    def test_per_point_calls_equal_full_grid_route(self):
        """Each point on its own gets the doubles the full-grid route gives it in an array.

        numpy's scalar power (libm) and its array loop differ in the last bit
        of (1+u)^-1.5 at about 1 in 20 points, so one point is evaluated as an
        array of one, the same path as a grid.
        """
        points = np.random.default_rng(9).uniform(-3, 3, (200, 3))
        for f in (ZeroModeField.designated(7), ZeroModeField(7, F(-5, 3))):
            routes = ((f.evaluate, reference_evaluate), (f.sigma_d, reference_sigma_d))
            for method, reference in routes:
                want = reference(f, points).view(np.int64)
                got = np.array([method(x) for x in points]).view(np.int64)
                assert np.array_equal(got, want), f.label

    def test_jacobi_once_per_distinct_radius(self, monkeypatch):
        sizes = []

        def counted(n, alpha, beta, y):
            sizes.append(np.size(y))
            return original(n, alpha, beta, y)

        original = scipy.special.eval_jacobi
        monkeypatch.setattr(scipy.special, "eval_jacobi", counted)  # `_jacobi` imports it per call
        fields._grid_rows(ZeroModeField.designated(5), 2.0, 16)
        axis = np.linspace(-2.0, 2.0, 16)
        x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        distinct = len(np.unique(np.sum(x * x, axis=-1)))
        assert distinct == 185
        assert sizes == [distinct] * 6  # p and q for psi, and with p', q' for sigma.D psi


class TestFamily:
    def test_designated_is_the_instantiated_member(self):
        # designated is the request (m, (2m+3)/3): the unlifted closed form, label (m+1, +)
        for m in range(51):
            f = ZeroModeField.designated(m)
            s = recurrence.closed_form_solution(m, m, 1)
            assert (f.m, f.b0, f.a, f.b, f.label) == (m, s.b0, s.a, s.b, (m + 1, 1)), m

    def test_m1(self):
        fam = enumerate_family(1)
        assert [f.label for f in fam] == [(1, 1), (1, -1), (2, 1), (2, -1)]
        assert len(fam) == 4
        assert sorted(f.b0 for f in fam) == [F(-5, 3), -1, 1, F(5, 3)]
        designated = [f for f in fam if f.label == (2, 1)]
        assert designated[0].b0 == F(5, 3)

    def test_m3(self):
        fam = enumerate_family(3)
        assert len(fam) == 8
        assert {abs(f.b0) for f in fam} == {1, F(5, 3), F(7, 3), 3}

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

    @pytest.mark.parametrize("m, b0", [(0, None), (50, None), (5, F(-7, 3))], ids=str)
    def test_one_repr_per_distinct_double_of_the_grid(self, m, b0, monkeypatch):
        # a double shared by two columns is formatted once, not once per column
        f = ZeroModeField.designated(m) if b0 is None else ZeroModeField(m, b0)
        calls = []

        def counted(v):
            calls.append(v)
            return repr(v)

        monkeypatch.setattr(fields, "repr", counted, raising=False)
        "".join(sample_grid(f, extent=2.0, n=16))
        assert len(calls) == len(np.unique(fields._grid_rows(f, 2.0, 16).view(np.int64)))

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
        + [(5, F(-7, 3), 2.0, 5)],
        ids=str,
    )
    def test_bytes_match_csv_writer(self, m, b0, extent, n):
        f = ZeroModeField.designated(m) if b0 is None else ZeroModeField(m, b0)
        want = csv_reference(f, extent, n)
        assert "".join(sample_grid(f, extent=extent, n=n)) == want
        if b0 == F(-7, 3):
            assert ",-0.0," in want and ",0.0," in want  # signed zeros occur and must stay apart
