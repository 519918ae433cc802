"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from reference import PowerBasisField, lift_solution, loss_yau_residual, monotonicity_check

from amnmodes.fields import (
    ZeroModeField,
    l2_norm_squared,
    weyl_dirac_residual,
)
from amnmodes.recurrence import (
    AnsatzSolution,
    build_amn_polynomial,
    closed_form_extremes,
    instantiate_solution,
    verify_system,
)
from amnmodes.roots import (
    predicted_roots,
    rational_root_oracle,
    verify_factorization,
)

F = Fraction

# the six published integer polynomials, ascending power order
PRINTED = {
    1: (25, -34, 9),
    2: (-1225, 1891, -747, 81),
    3: (11025, -18244, 8614, -1476, 81),
    4: (-1334025, 2306749, -1206490, 256122, -23085, 729),
    5: (225450225, -401846806, 224657551, -54143028, 6206463, -330966, 6561),
    6: (
        -5636255625,
        10271620375,
        -6018285581,
        1578233251,
        -209304603,
        14480613,
        -494991,
        6561,
    ),
}


def announce(n, name, ok):
    print(f"\nACCEPTANCE {n:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def random_points_in_ball(rng, count, radius=3.0):
    pts = []
    while len(pts) < count:
        x = rng.uniform(-radius, radius, 3)
        if np.linalg.norm(x) <= radius:
            pts.append(x)
    return pts


def test_01_printed_polynomials_byte_exact():
    t0 = time.perf_counter()
    ok = all(build_amn_polynomial(m).integer.coeffs == PRINTED[m] for m in range(1, 7))
    elapsed = time.perf_counter() - t0
    announce(1, "printed polynomials m=1..6 byte-exact", ok and elapsed < 1.0)


def test_02_root_theorem_to_m26():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 27):
        amn = build_amn_polynomial(m)
        predicted = predicted_roots(m)
        ok = ok and verify_factorization(amn, predicted) == ()
        ok = ok and rational_root_oracle(amn.integer) == set(predicted)
    elapsed = time.perf_counter() - t0
    announce(2, "factorization + oracle agree with prediction m<=26", ok and elapsed < 30.0)


def test_03_closed_form_extremes_to_m30():
    ok = True
    for m in range(1, 31):
        amn = build_amn_polynomial(m)
        c, d = closed_form_extremes(m)
        constant, lead = amn.integer.coeffs[0], amn.integer.coeffs[-1]
        ok = ok and constant / amn.scale == -c and lead / amn.scale == d
    announce(3, "constant = -c_m and leading = d_m for m<=30", ok)


def test_04_monotone_root_chain_to_m26():
    announce(4, "root-set inclusion chain m<=26", monotonicity_check(26) == ())


def test_05_lift_soundness_to_m25():
    ok = True
    for m in range(1, 26):
        for j in range(1, m + 2):
            for sign in (1, -1):
                s = instantiate_solution(m, F(sign * (2 * j + 1), 3))
                lifted = lift_solution(s)
                ok = ok and all(r == 0 for r in verify_system(lifted))
    announce(5, "lift of every root solution solves the next system, m<=25", ok)


def test_06_order1_remark_coefficients():
    s = instantiate_solution(1, F(5, 3))
    ok = s.a == (1, F(-5, 3)) and s.b == (F(5, 3), -1)
    announce(6, "order-1 coefficients (1, -5/3) / (5/3, -1)", ok)


def test_07_loss_yau_residual_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for m in (0, 1, 2, 3, 6):
        f = ZeroModeField.designated(m)
        worst = max(
            loss_yau_residual(f, x, 1e-3) / np.linalg.norm(f.evaluate(x))
            for x in random_points_in_ball(rng, 100)
        )
        ok = ok and worst <= 1e-7
    # convergence order over the stated steps
    f = ZeroModeField.designated(1)
    x = np.array([0.3, -0.2, 0.5])
    steps = [1e-2, 5e-3, 2.5e-3]
    res = [loss_yau_residual(f, x, h) for h in steps]
    order = np.polyfit(np.log(steps), np.log(res), 1)[0]
    ok = ok and 3.5 <= order <= 4.5
    elapsed = time.perf_counter() - t0
    announce(7, "Loss-Yau residual <= 1e-7 and 4th-order convergence", ok and elapsed < 10.0)


def test_08_weyl_dirac_residual_and_negative_control():
    rng = np.random.default_rng(4711)
    ok = True
    for m in (0, 1, 2, 3, 6):
        f = ZeroModeField.designated(m)
        worst = max(
            weyl_dirac_residual(f, x, 1e-3) / np.linalg.norm(f.evaluate(x))
            for x in random_points_in_ball(rng, 100)
        )
        ok = ok and worst <= 1e-7
    # perturb a_1 by 1/10: the residual must not vanish with the step
    s = instantiate_solution(1, F(5, 3))
    f = PowerBasisField(AnsatzSolution(1, s.b0, (s.a[0], s.a[1] + F(1, 10)), s.b))
    x = np.array([0.4, 0.1, -0.7])
    floor = min(loss_yau_residual(f, x, h) for h in (1e-2, 1e-3, 1e-4))
    ok = ok and floor >= 1e-3
    announce(8, "zero-mode residual <= 1e-7, perturbed control >= 1e-3", ok)


def test_09_potential_magnitude_equals_coupling():
    rng = np.random.default_rng(99)
    ok = True
    for m in (0, 1, 3):
        f = ZeroModeField.designated(m)
        for x in random_points_in_ball(rng, 1000):
            a = np.linalg.norm(f.vector_potential(x))
            h = abs(f.h(x))
            ok = ok and abs(a - h) <= 1e-12 * h
    announce(9, "|A(x)| = h(x) to 1e-12 relative at 1000 points per field", ok)


def test_10_base_mode_l2_norm():
    value = l2_norm_squared(ZeroModeField.designated(0))
    announce(10, "L2 norm^2 of base mode = pi^2 within 1e-6", abs(value - math.pi**2) <= 1e-6)


def test_11_m100_headroom():
    from amnmodes.roots import verification_report

    t0 = time.perf_counter()
    report, _ = verification_report(100)
    elapsed = time.perf_counter() - t0
    ok = (
        report["oracle_matches"]
        and report["factorization_ok"]
        and report["system_ok"]
        and elapsed < 60.0
    )
    # coefficient bit growth must be reported and monotone
    bits = [
        max(abs(c).bit_length() for c in build_amn_polynomial(m).integer.coeffs)
        for m in (10, 40, 100)
    ]
    ok = ok and bits == sorted(bits) and bits[0] < bits[-1]
    announce(11, f"m=100 poly + verify in {elapsed:.1f}s (<60s), bit growth monotone", ok)
