"""Numeric spinor fields: evaluation, potentials, residual oracles."""

import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from amnmodes import fields, recurrence
from amnmodes.fields import (
    CSV_COLUMNS,
    ZeroModeField,
    enumerate_family,
    l2_norm_squared,
    loss_yau_residual,
    sample_grid,
    spin_density,
    weyl_dirac_residual,
)
from amnmodes.recurrence import AnsatzSolution, instantiate_solution

F = Fraction


@pytest.fixture(scope="module")
def base():
    return ZeroModeField.base_mode()


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
        bad = AnsatzSolution(1, F(5, 3), (F(1), F(-5, 3) + F(1, 10)), (F(5, 3), F(-1)))
        with pytest.raises(ValueError, match="do not solve"):
            ZeroModeField(bad)


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
        s = instantiate_solution(1, F(-5, 3))
        f = ZeroModeField(s)
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
        for f in (ZeroModeField.base_mode(), ZeroModeField.designated(2)):
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

    def test_floor_on_perturbed_field(self, monkeypatch):
        s = instantiate_solution(1, F(5, 3))
        bad = AnsatzSolution(1, s.b0, (s.a[0], s.a[1] + F(1, 10)), s.b)
        monkeypatch.setattr(fields, "verify_system", lambda solution: [])  # admit the non-solution
        f = ZeroModeField(bad)
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
        from amnmodes.fields import SIGMA, _sigma_d

        a = base.vector_potential(x) * (base.h(x) + 1) / base.h(x)
        sigma_a = sum(a[k] * SIGMA[k] for k in range(3))
        val = _sigma_d(base.evaluate, x, 1e-3) - sigma_a @ base.evaluate(x)
        assert np.linalg.norm(val) >= 1e-2 * np.linalg.norm(base.evaluate(x))


class TestL2Norm:
    def test_base_mode_is_pi_squared(self, base):
        assert abs(l2_norm_squared(base, 100.0, 1e-8) - math.pi**2) <= 1e-6

    def test_stable_under_rmax_doubling(self, order1):
        a = l2_norm_squared(order1, 100.0, 1e-6)
        b = l2_norm_squared(order1, 200.0, 1e-6)
        assert a > 0
        assert abs(a - b) <= 1e-6


class TestFamily:
    def test_m1(self):
        fam = enumerate_family(1)
        assert len(fam) == 4
        assert sorted(f.b0 for f in fam) == [F(-5, 3), -1, 1, F(5, 3)]
        designated = [f for f in fam if f.label == (2, 1)]
        assert designated[0].b0 == F(5, 3)

    def test_m3(self):
        fam = enumerate_family(3)
        assert len(fam) == 8
        assert {abs(f.b0) for f in fam} == {1, F(5, 3), F(7, 3), 3}

    def test_pair_chain_built_once(self, monkeypatch):
        original = recurrence.coefficient_polynomials
        calls = []

        def counted(m):
            calls.append(m)
            return original(m)

        # patch every module that binds the builder, as a caller would see it
        for module in (recurrence, fields):
            if getattr(module, "coefficient_polynomials", None) is original:
                monkeypatch.setattr(module, "coefficient_polynomials", counted)
        fam = enumerate_family(5)
        assert len(fam) == 12
        assert calls == [5]


class TestCsvSampling:
    def test_header_and_round_trip(self, base):
        buf = io.StringIO()
        sample_grid(base, buf, extent=1.0, n=2)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2**3
        values = [float(v) for v in lines[1].split(",")]
        assert len(values) == len(CSV_COLUMNS)
        # repr formatting round-trips doubles exactly
        assert values[0] == -1.0

    def test_one_psi_evaluation_per_point(self, order1, monkeypatch):
        original = ZeroModeField.evaluate
        calls = []

        def counted(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(ZeroModeField, "evaluate", counted)
        sample_grid(order1, io.StringIO(), extent=1.0, n=3)
        # psi(x) once, plus the 12-point stencil of the residual
        assert len(calls) == 13 * 3**3

    @pytest.mark.parametrize(
        "m, b0", [(0, None), (1, None), (6, None), (5, F(-7, 3))],
        ids=["designated-0", "designated-1", "designated-6", "m5-j3-minus"],
    )
    def test_rows_match_public_per_point_calls(self, m, b0):
        """A sample row equals the row built from the public per-point calls."""
        f = ZeroModeField.designated(m) if b0 is None else ZeroModeField(instantiate_solution(m, b0))
        extent, n, step = 2.0, 3, 1e-3
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(CSV_COLUMNS)
        for x1 in np.linspace(-extent, extent, n):
            for x2 in np.linspace(-extent, extent, n):
                for x3 in np.linspace(-extent, extent, n):
                    x = np.array([x1, x2, x3])
                    s = f.evaluate(x)
                    row = [
                        x1, x2, x3,
                        s[0].real, s[0].imag, s[1].real, s[1].imag,
                        float(np.real(np.conj(s) @ s)),
                        *f.vector_potential(x),
                        f.h(x),
                        weyl_dirac_residual(f, x, step),
                    ]
                    writer.writerow([repr(float(v)) for v in row])
        got = io.StringIO()
        sample_grid(f, got, extent=extent, n=n, step=step)
        assert got.getvalue() == expected.getvalue()
