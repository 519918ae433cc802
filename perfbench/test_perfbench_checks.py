"""Controls for the benchmark's verdict checks.

Each check must pass a genuine program output and reject the same output
with one thing corrupted, so that a check cannot pass silently.
"""

import csv
import json
import math
import random

import pytest

import checks
from amnmodes import cli, fields

FIELD_M, FIELD_GRID, FIELD_EXTENT = 2, 5, 2.0
SAMPLE = random.Random(0).sample(range(FIELD_GRID**3), 16)


def program_output(tmp_path, argv):
    path = tmp_path / "out"
    assert cli.main(argv + ["-o", str(path)]) == 0
    return path.read_text()


@pytest.fixture
def build_report(tmp_path):
    return json.loads(program_output(tmp_path, ["poly", "--m", "6"]))


@pytest.fixture
def verify_report(tmp_path):
    return json.loads(program_output(tmp_path, ["verify", "--m", "5"]))


@pytest.fixture
def field_output(tmp_path):
    rows = list(csv.reader(program_output(tmp_path, [
        "field", "--m", str(FIELD_M), "--designated",
        "--grid", str(FIELD_GRID), "--extent", str(FIELD_EXTENT),
    ]).splitlines()))
    mode = json.loads(program_output(tmp_path, ["mode", "--m", str(FIELD_M), "--designated"]))
    l2 = fields.l2_norm_squared(fields.ZeroModeField.designated(FIELD_M))
    return rows, mode, l2


def check_field(rows, mode, l2):
    return checks.check_field(FIELD_M, rows, mode, l2, None, SAMPLE, FIELD_GRID, FIELD_EXTENT)


def codes(causes):
    return {checks.cause_code(c) for c in causes}


def test_build_check_rejects_coefficient_off_by_one(build_report):
    assert checks.check_build(6, build_report) == []
    coeffs = build_report["integer_coefficients"]
    coeffs[3] = str(int(coeffs[3]) + 1)
    assert codes(checks.check_build(6, build_report)) == {"integer_coefficients"}


def test_build_check_rejects_rational_coefficient_change(build_report):
    build_report["rational_coefficients"][0] = "1"
    assert codes(checks.check_build(6, build_report)) == {"rational_coefficients"}


def test_verify_check_rejects_dropped_oracle_root(verify_report):
    assert checks.check_verify(5, verify_report) == []
    verify_report["oracle"].pop(2)
    assert codes(checks.check_verify(5, verify_report)) == {"roots"}


def test_verify_check_rejects_false_flag(verify_report):
    verify_report["system_ok"] = False
    assert codes(checks.check_verify(5, verify_report)) == {"flag"}


def test_field_check_rejects_perturbed_psi(field_output):
    rows, mode, l2 = field_output
    assert check_field(rows, mode, l2) == []
    row = rows[1 + SAMPLE[0]]
    norm = math.sqrt(float(row[7]))
    row[3] = repr(float(row[3]) + 1e-6 * norm)
    assert codes(check_field(rows, mode, l2)) == {"psi_mismatch"}


def test_field_check_rejects_residual_above_bound(field_output):
    rows, mode, l2 = field_output
    row = rows[1 + 17]
    row[12] = repr(10 * checks.RESIDUAL_BOUND * math.sqrt(float(row[7])))
    assert codes(check_field(rows, mode, l2)) == {"residual_bound"}


def test_field_check_rejects_wrong_l2_norm(field_output):
    rows, mode, l2 = field_output
    assert codes(check_field(rows, mode, l2 * (1 + 1e-5))) == {"l2_mismatch"}


def test_base_mode_l2_norm_is_pi_squared():
    assert checks.l2_norm_over_pi2(0, [1], [1]) == 1


def test_only_listed_field_failures_from_their_order_are_known():
    assert checks.is_known_failure("field", 10, "residual_bound: x")
    assert not checks.is_known_failure("field", 9, "residual_bound: x")
    assert not checks.is_known_failure("field", 40, "coupling: x")
    assert not checks.is_known_failure("verify", 40, "residual_bound: x")
