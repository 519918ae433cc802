"""CLI contract: subcommands, exit codes, golden JSON/CSV schemas."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import mp_psi, plus_one

import amnmodes
from amnmodes import roots
from amnmodes.cli import B0_BITS, FIELD_EXTENT_MAX, FIELD_GRID_MAX, FIELD_M_MAX, POLY_M_MAX, main
from amnmodes.fields import ZeroModeField, sample_grid
from amnmodes.polynomials import IntPoly
from amnmodes.recurrence import (
    AmnPolynomial,
    build_amn_polynomial,
    family_b0,
    instantiate_solution,
    root_theorem_failures,
)


# the next double past the bound, the smallest --extent that `field` refuses
PAST_EXTENT_MAX = repr(math.nextafter(FIELD_EXTENT_MAX, math.inf))


def run(args):
    return main(args)


def exit_code(args):
    """The exit code, whether main returns it or argparse exits with it."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


# member selectors that conflict, or a --sign that no --j would read
CONFLICTING_SELECTORS = (
    ["--designated", "--sign", "-"],
    ["--j", "1", "--b0", "5/3"],
    ["--j", "1", "--designated"],
    ["--designated", "--b0", "5/3"],
    ["--b0", "5/3", "--sign", "+"],
    ["--sign", "-"],
)


def tampered_build(m):
    """P_m with its constant term plus 1: no longer has the predicted roots."""
    return plus_one(build_amn_polynomial(m))


class TestPoly:
    def test_m1_golden(self, tmp_path, capsys):
        out = tmp_path / "p1.json"
        assert run(["poly", "--m", "1", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["integer_coefficients"] == ["25", "-34", "9"]
        assert set(doc) == {
            "m", "rational_coefficients", "integer_coefficients", "scale", "c_m", "d_m",
        }

    def test_m5_leading_coefficient(self, tmp_path):
        out = tmp_path / "p5.json"
        assert run(["poly", "--m", "5", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["integer_coefficients"][-1] == "6561"

    def test_m_outside_range_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        for command in (["poly"], ["mode", "--designated"]):  # mode takes poly's orders
            for m in (-1, POLY_M_MAX + 1):
                assert run([*command, "--m", str(m), "-o", str(out)]) == 2
                assert capsys.readouterr() == ("", f"error: --m must be in 0..{POLY_M_MAX}\n")
                assert not out.exists()

    def test_unwritable_output_is_io_error(self, capsys):
        assert run(["poly", "--m", "1", "-o", "/nonexistent/dir/x.json"]) == 3


class TestVerify:
    def test_m6_passes(self, tmp_path):
        out = tmp_path / "v6.json"
        assert run(["verify", "--m", "6", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["predicted"] == ["1", "25/9", "49/9", "9", "121/9", "169/9", "25"]
        assert doc["oracle"] == doc["predicted"]
        assert doc["factorization_ok"] and doc["system_ok"]

    def test_tamper_hook_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(roots, "build_amn_polynomial", tampered_build)
        out = tmp_path / "t.json"
        assert run(["verify", "--m", "1", "-o", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["factorization_ok"] is False
        assert doc["factorization_failures"] == ["coefficient of t^0: product 25 != P_m 15"]
        assert doc["oracle_matches"] is False

    def test_bad_m(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        for m in (-1, POLY_M_MAX + 1):
            assert run(["verify", "--m", str(m), "-o", str(out)]) == 2
            assert capsys.readouterr() == ("", f"error: --m must be in 0..{POLY_M_MAX}\n")
            assert not out.exists()

    def test_constant_build_fails(self, tmp_path, monkeypatch, capsys):
        # a fault in the object under check is a failed verification, never a usage error
        monkeypatch.setattr(roots, "build_amn_polynomial",
                            lambda m: AmnPolynomial(m, IntPoly((1,)), Fraction(1)))
        out = tmp_path / "t.json"
        assert run(["verify", "--m", "3", "-o", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["oracle"] == [] and doc["oracle_matches"] is False
        assert doc["factorization_ok"] is False
        assert capsys.readouterr().err == ""

    def test_vanishing_closing_pair_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(roots, "coefficient_polynomials", lambda m: ((0,), (0,)))
        out = tmp_path / "t.json"
        assert run(["verify", "--m", "3", "-o", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["system_ok"] is False
        assert doc["oracle_matches"] and doc["factorization_ok"] and doc["monotonicity_ok"]
        assert capsys.readouterr().err == ""


class TestMode:
    def test_designated_order1(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["mode", "--m", "1", "--designated", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["b0"] == "5/3"
        assert doc["a"] == ["1", "-5/3"]
        assert doc["b"] == ["5/3", "-1"]
        assert doc["residuals"] == ["0", "0", "0"]

    def test_explicit_b0(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["mode", "--m", "1", "--b0", "2", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["residuals"][-1] != "0"

    def test_small_b0_at_the_highest_order_prints(self, tmp_path):
        # its numbers pass Python's default int-to-str limit of 4,300 digits,
        # which main lifts for the whole request and then puts back
        out = tmp_path / "m.json"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert run(["mode", "--m", "500", "--b0", "1/100000", "-o", str(out)]) == 0
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            values = [Fraction(r) for r in json.loads(out.read_text())["residuals"]]
        finally:
            sys.set_int_max_str_digits(limit)
        assert values[:-1] == [0] * 1000
        assert values[-1] != 0  # 1/100000 is no root of P_500

    @pytest.mark.parametrize("b0", [f"{2**B0_BITS - 1}/{2**B0_BITS - 2}", f"-1/{2**B0_BITS - 1}", "1e-9"])
    def test_b0_just_inside_the_bound(self, b0, tmp_path):
        out = tmp_path / "m.json"
        assert run(["mode", "--m", "3", f"--b0={b0}", "-o", str(out)]) == 0
        assert Fraction(json.loads(out.read_text())["b0"]) == Fraction(b0)

    def test_j_and_sign(self, tmp_path):
        out = tmp_path / "m.json"
        assert run(["mode", "--m", "2", "--j", "1", "--sign", "-", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["b0"] == "-1"

    def test_missing_selector(self, capsys):
        assert run(["mode", "--m", "2"]) == 2

    def test_j_out_of_range(self, capsys):
        assert run(["mode", "--m", "2", "--j", "9"]) == 2

    @pytest.mark.parametrize("selectors", CONFLICTING_SELECTORS, ids=" ".join)
    def test_conflicting_selectors(self, selectors, capsys):
        assert exit_code(["mode", "--m", "2", *selectors]) == 2


class TestField:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run([
            "field", "--m", "0", "--designated", "--grid", "2", "--extent", "1.0",
            "-o", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[:4] == ["x1", "x2", "x3", "re_psi1"]
        assert len(lines) == 9

    def test_m_out_of_range(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        for m in (-1, FIELD_M_MAX + 1):
            assert run(["field", "--m", str(m), "--designated", "-o", str(out)]) == 2
            assert capsys.readouterr().err == f"error: --m must be in 0..{FIELD_M_MAX}\n"
            assert not out.exists()
        # sampling inputs that would crash or print NaN rows are usage errors too
        for bad in (
            ["--grid", "-1"],
            ["--extent", "nan"],
            ["--extent", "inf"],
            ["--extent", PAST_EXTENT_MAX, "--grid", "2"],
            ["--extent=-2", "--grid", "2"],  # a negative half-width would mirror the cube
            ["--extent=-1e-300", "--grid", "2"],
        ):
            assert run(["field", "--m", "1", "--designated", *bad, "-o", str(out)]) == 2, bad
            assert capsys.readouterr().err.startswith("error:"), bad
            assert not out.exists(), bad
        # a grid past the cap would exhaust memory; it is refused before anything is built
        for grid in (FIELD_GRID_MAX + 1, 100_000):
            capsys.readouterr()
            argv = ["field", "--m", "0", "--designated", "--grid", str(grid), "-o", str(out)]
            assert run(argv) == 2, grid
            assert capsys.readouterr().err == f"error: --grid must be in 0..{FIELD_GRID_MAX}\n"
            assert not out.exists()

    def test_zero_extent_samples_the_origin(self, tmp_path):
        # --extent is the cube's half-width: 0 is one point, a negative one is refused
        out = tmp_path / "f.csv"
        for extent in ("0", "-0.0"):
            assert run(["field", "--m", "2", "--designated", "--grid", "2",
                        f"--extent={extent}", "-o", str(out)]) == 0, extent
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == 8
            assert all(float(v) == 0 for row in rows for v in row.split(",")[:3])

    def test_non_finite_values_fail(self, tmp_path, capsys, monkeypatch):
        # no grid inside FIELD_EXTENT_MAX has a non-finite value, so one NaN is planted:
        # sample_grid raises when it is called, and main maps it before it opens a file
        evaluate = ZeroModeField.evaluate

        def one_nan(self, x):
            psi = evaluate(self, x)
            psi[0, 0] = np.nan
            return psi

        monkeypatch.setattr(ZeroModeField, "evaluate", one_nan)
        out = tmp_path / "f.csv"
        assert run(["field", "--m", "0", "--designated", "--grid", "2", "-o", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: non-finite field value at x = (-2.0, -2.0, -2.0)\n"

    @pytest.mark.parametrize("m, extent, error", [
        (50, 1e160, FloatingPointError),  # |x|^2 overflows
    ], ids=["non-finite"])
    def test_grid_checks_run_before_any_chunk(self, m, extent, error):
        # `field` refuses this extent, but sample_grid itself still raises when it is
        # called, so a caller of the library sees the error before any chunk exists
        with pytest.raises(error, match=r"non-finite field value at x = \(-1e\+160, "):
            sample_grid(ZeroModeField.designated(m), extent=extent, n=2)

    def test_far_out_at_the_highest_order(self, tmp_path):
        # |x| ~ 1.7e3 at m = 50, where a power-basis evaluation overflows
        out = tmp_path / "f.csv"
        argv = ["field", "--m", "50", "--designated", "--grid", "2", "--extent", "1e3"]
        assert run([*argv, "-o", str(out)]) == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 8
        s = instantiate_solution(50, family_b0(51))  # the --designated request
        for row in rows:
            psi = np.array([complex(row[3], row[4]), complex(row[5], row[6])])
            want = np.array(mp_psi(s, row[:3]))
            assert np.linalg.norm(psi - want) <= 1e-12 * np.linalg.norm(want)
            assert row[12] <= 1e-7 * math.sqrt(row[7])
            assert row[11] == pytest.approx(103 / (1 + 3e6), rel=1e-15)

    @pytest.mark.parametrize("argv", [
        ["--m", "0", "--designated", "--grid", "0"],
        ["--m", "5", "--j", "3", "--sign", "-", "--grid", "2"],
        ["--m", "50", "--designated", "--grid", "13"],  # 2197 rows: three blocks
    ], ids=lambda argv: " ".join(argv))
    def test_stdout_matches_output_file(self, argv, tmp_path, capsysbinary):
        out = tmp_path / "f.csv"
        assert run(["field", *argv, "-o", str(out)]) == 0
        assert run(["field", *argv]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("selectors", CONFLICTING_SELECTORS, ids=" ".join)
    def test_conflicting_selectors(self, selectors, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert exit_code(["field", "--m", "2", "--grid", "2", *selectors, "-o", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("j", [1, 2, 5])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_bytes_independent_of_order(self, j, sign, tmp_path):
        # the lifts of the (j, sign) member cancel against the prefactor at every m >= j-1
        texts = set()
        for m in range(j - 1, j + 6):
            out = tmp_path / f"f{m}.csv"
            assert run(["field", "--m", str(m), "--j", str(j), "--sign", sign, "--grid", "5",
                        "-o", str(out)]) == 0
            texts.add(out.read_text())
        assert len(texts) == 1


class TestBench:
    def test_reports_growth(self, tmp_path):
        out = tmp_path / "b.json"
        assert run(["bench", "--m-max", "8", "-o", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [r["m"] for r in rows] == list(range(1, 9))
        bits = [r["max_coefficient_bits"] for r in rows]
        assert bits == sorted(bits)
        assert all(r["build_ms"] >= 0 for r in rows)


class TestGolden:
    """Output text pinned against documents built here from the closed forms."""

    @staticmethod
    def expected_poly(m):
        # P_m = d_m * prod_j (t - ((2j+1)/3)**2), expanded with plain Fraction lists
        odd = math.prod(range(5, 2 * m + 4, 2))
        coeffs = [Fraction((-1) ** m * 9**m, odd * 2**m * math.factorial(m))]
        for j in range(1, m + 2):
            r = Fraction(2 * j + 1, 3) ** 2
            coeffs = [s - r * c for s, c in zip([0] + coeffs, coeffs + [0])]
        den = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * den) for c in coeffs]
        g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
        return {
            "m": m,
            "rational_coefficients": [str(c) for c in coeffs],
            "integer_coefficients": [str(c // g) for c in ints],
            "scale": str(Fraction(den, g)),
            "c_m": str(-coeffs[0]),
            "d_m": str(coeffs[-1]),
        }

    def test_poly_text(self, tmp_path):
        out = tmp_path / "p.json"
        for m in [*range(0, 31), 64, 100, 200]:
            assert run(["poly", "--m", str(m), "-o", str(out)]) == 0
            assert out.read_text() == json.dumps(self.expected_poly(m), indent=2), m

    @pytest.mark.parametrize(
        "m, cold",
        [(m, cold) for m in (0, 1, 2, 5, 12) for cold in (False, True)] + [(64, False), (200, False)],
    )
    def test_verify_document(self, tmp_path, m, cold):
        # cold: the root-theorem certificate runs inside this request; the
        # document is the same, with no stage of its own
        if cold:
            root_theorem_failures.cache_clear()
        predicted = [str(Fraction(2 * j + 1, 3) ** 2) for j in range(1, m + 2)]
        stages = ["build_ms", "oracle_ms", "factorization_ms", "system_ms"]
        expected = {
            "m": m,
            "predicted": predicted,
            "oracle": predicted,
            "oracle_matches": True,
            "factorization_ok": True,
            "factorization_failures": [],
            "system_ok": True,
            "monotonicity_ok": True,
            "timings_ms": dict.fromkeys(stages),
        }
        out = tmp_path / "v.json"
        assert run(["verify", "--m", str(m), "-o", str(out)]) == 0
        text = out.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2)
        assert all(isinstance(v, float) and v >= 0 for v in doc["timings_ms"].values())
        doc["timings_ms"] = dict.fromkeys(doc["timings_ms"])
        assert json.dumps(doc) == json.dumps(expected)


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--m", "3"],
        ["poly", "--m", "1", "--format", "json"],
        ["verify", "--m", "5", "--threads", "2"],
        ["verify", "--m", "1", "--tamper"],
        ["field", "--m", "1", "--designated", "--step", "1e-3"],
        ["verify", "--m", "5", "--chain"],
    ],
    ids=["roots", "format", "threads", "tamper", "step", "chain"],
)
def test_removed_surface_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["mode", "field"])
@pytest.mark.parametrize(
    "b0",
    # the first two are short literals that Fraction would expand to 10**1000000 and
    # 10**30000000 (about 27 s for the second alone), so they are refused on the
    # string; so is a zero with a far exponent
    ["1e-1000000", "1e-30000000", str(2**B0_BITS), f"1/{2**B0_BITS}", "1e-10", "0e-99999"],
)
def test_b0_past_the_bound_is_usage_error(command, b0, tmp_path, capsys):
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run([command, "--m", "1", "--b0", b0, "-o", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: --b0 numerator and denominator must be below 2**{B0_BITS}\n"
    assert not out.exists()


def test_usage_error_on_unknown_command():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_one_parser_serves_a_sequence_of_requests(tmp_path, capsys):
    """poly, verify, a usage error and field through one process's main."""
    out = tmp_path / "out"

    assert run(["poly", "--m", "3", "-o", str(out)]) == 0
    assert out.read_text() == json.dumps(TestGolden.expected_poly(3), indent=2)

    assert run(["verify", "--m", "4", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["oracle"] == [str(Fraction(2 * j + 1, 3) ** 2) for j in range(1, 6)]
    assert doc["oracle_matches"] and doc["factorization_ok"] and doc["system_ok"]

    # conflicting selectors: argparse exits 2 and must leave no state behind
    assert exit_code(["field", "--m", "2", "--j", "1", "--designated"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err

    assert run(["field", "--m", "2", "--designated", "--grid", "2", "-o", str(out)]) == 0
    text = "".join(sample_grid(ZeroModeField.designated(2), extent=2.0, n=2))
    assert out.read_bytes() == text.encode()

    # defaults come back on the next parse: no --grid, the default 5 points per axis
    assert run(["field", "--m", "2", "--designated", "-o", str(out)]) == 0
    text = "".join(sample_grid(ZeroModeField.designated(2), extent=2.0, n=5))
    assert out.read_bytes() == text.encode()


@pytest.mark.parametrize("argv", [
    ["verify", "--m", "1"],
    ["mode", "--m", "1", "--designated"],
    ["field", "--m", "1", "--designated"],
    ["bench", "--m-max", "2"],
], ids=lambda argv: argv[0])
def test_unwritable_output_is_io_error(argv, capsys):
    assert run([*argv, "-o", "/nonexistent/dir/x"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["poly", "--m", "1"],
    ["verify", "--m", "1"],
    ["mode", "--m", "1", "--designated"],
    ["field", "--m", "1", "--designated"],
    ["bench", "--m-max", "2"],
], ids=lambda argv: argv[0])
def test_nul_byte_in_output_path_is_io_error(argv, capsys):
    # open() refuses the path with ValueError, before the file system is touched
    assert run([*argv, "-o", "a\0b"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["poly", "--m", "1"],
    ["field", "--m", "1", "--designated"],
], ids=lambda argv: argv[0])
def test_closed_stdout_is_io_error(argv, capsys):
    # Python's sys.stdout is None when it starts with fd 1 closed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", None)
        assert run(argv) == 3
    assert capsys.readouterr().err == "error: cannot write output: stdout is closed\n"


def child_env():
    """The environment in which a fresh interpreter imports this amnmodes."""
    src = os.path.dirname(os.path.dirname(amnmodes.__file__))
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_child_with_closed_stdout_exits_3():
    child = subprocess.run([sys.executable, "-m", "amnmodes.cli", "poly", "--m", "1"],
                           stderr=subprocess.PIPE, text=True, env=child_env(),
                           preexec_fn=lambda: os.close(1))
    assert child.returncode == 3
    assert child.stderr == "error: cannot write output: stdout is closed\n"


def child_stdout(script, *argv) -> str:
    """The stdout of `script` run with `argv` in a fresh interpreter; this one
    has imported numpy and scipy for other tests."""
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=child_env(), check=True).stdout


def loaded_in_child(argv, tmp_path, module):
    """Whether `main(argv)` loads `module` in a fresh interpreter, after it exits 0
    with output."""
    script = ("import sys; from amnmodes.cli import main; "
              f"print(main(sys.argv[1:]), {module!r} in sys.modules)")
    rc, loaded = child_stdout(script, *argv, "-o", str(tmp_path / "out")).split()
    assert rc == "0" and (tmp_path / "out").stat().st_size > 0
    return loaded == "True"


EVERY_COMMAND = pytest.mark.parametrize("argv", [
    ["poly", "--m", "3"],
    ["verify", "--m", "3"],
    ["mode", "--m", "3", "--designated"],
    ["bench", "--m-max", "3"],
    ["field", "--m", "3", "--designated", "--grid", "2"],
], ids=lambda argv: argv[0])


@EVERY_COMMAND
def test_no_command_loads_scipy(argv, tmp_path):
    assert not loaded_in_child(argv, tmp_path, "scipy")


@EVERY_COMMAND
def test_each_command_loads_only_the_modules_it_runs(argv, tmp_path):
    runs = {"verify": "amnmodes.roots", "field": "amnmodes.fields"}
    for module in ("amnmodes.roots", "amnmodes.fields"):
        assert loaded_in_child(argv, tmp_path, module) == (runs.get(argv[0]) == module), module


def test_verification_imports_nothing_once_roots_is_loaded():
    """Every module the oracle needs is loaded with `roots`, so no stage time
    of `verify` includes an import."""
    script = ("import sys; from amnmodes import roots; before = set(sys.modules); "
              "roots.verification_report(3); print(sorted(set(sys.modules) - before))")
    assert child_stdout(script) == "[]\n"


def test_malformed_field_selector_loads_no_numpy():
    script = ("import sys; from amnmodes.cli import main; "
              "print(main(['field', '--m', '1', '--b0', '1/0']), 'numpy' in sys.modules)")
    assert child_stdout(script) == "2 False\n"


@pytest.mark.parametrize("argv", [
    ["poly", "--m", "3"],
    ["mode", "--m", "3", "--designated"],
    ["bench", "--m-max", "3"],
], ids=lambda argv: argv[0])
def test_exact_builds_load_no_numpy(argv, tmp_path):
    assert not loaded_in_child(argv, tmp_path, "numpy")


def test_b0_that_is_no_root_is_usage_error_for_field(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert run(["field", "--m", "1", "--b0", "2", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: coefficients do not solve the order-m system\n"
    assert not out.exists()


class TestDigitLimit:
    """main lifts Python's int-to-str digit limit for the whole request, --b0 parsing
    included, and gives the caller's value back on every path."""

    BOUND_LINE = f"error: --b0 numerator and denominator must be below 2**{B0_BITS}\n"

    @pytest.fixture(autouse=True)
    def default_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        assert sys.get_int_max_str_digits() == 4300
        sys.set_int_max_str_digits(limit)

    def test_long_literal_past_the_bound(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["mode", "--m", "1", "--b0", "1" + "0" * 5000, "-o", str(out)]) == 2
        assert capsys.readouterr().err == self.BOUND_LINE
        assert not out.exists()

    @pytest.mark.parametrize("b0, want", [("1.5" + "0" * 5000, "3/2"), ("0" * 5000 + "5/3", "5/3")],
                             ids=["trailing-zeros", "leading-zeros"])
    def test_long_literal_inside_the_bound(self, b0, want, tmp_path):
        out = tmp_path / "m.json"
        assert run(["mode", "--m", "1", "--b0", b0, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["b0"] == want

    def test_literal_at_the_argv_cap(self, tmp_path, capsys):
        # Linux refuses a single argv string past MAX_ARG_STRLEN = 131,072 bytes
        out = tmp_path / "f.csv"
        start = time.perf_counter()
        assert run(["field", "--m", "1", "--b0", "1" + "0" * 131071, "-o", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == self.BOUND_LINE
        assert not out.exists()

    def test_error_path(self, capsys):
        assert run(["field", "--m", "1", "--designated", "--grid", str(FIELD_GRID_MAX + 1)]) == 2


# a missing directory, and a NUL byte, which open() refuses
UNWRITABLE = ["/nonexistent/dir/x", "a\0b"]
# malformed literals, offered to every value flag
MALFORMED = ["nan", "inf", "1/0", "0x10", "1_000", "-0", "e", "1e-1000000"]
# member selectors drawn together: the valid sets, then none, a --sign alone and conflicts
MEMBERS = [["--designated"], ["--j"], ["--j", "--sign"], ["--b0"],
           [], ["--sign"], ["--j", "--b0"], ["--designated", "--sign"]]


def values(*good):
    """A good value in four draws of five, else a malformed literal."""
    return st.integers(0, 4).flatmap(lambda i: st.sampled_from(MALFORMED if i == 4 else good))


@st.composite
def requests(draw):
    """An argv over every subcommand and flag; None stands for a writable output path."""
    command = draw(st.sampled_from(["poly", "verify", "mode", "field", "bench"]))
    orders = values(*range(-1, 7), FIELD_M_MAX, FIELD_M_MAX + 1, POLY_M_MAX + 1)
    flags = {"--m-max" if command == "bench" else "--m": orders}
    if command == "field":
        for name, value in (
            ("--grid", values(*range(-1, 4), FIELD_GRID_MAX + 1)),
            ("--extent", values("2.0", "1e-320", "1e8", "1e160", "-inf", "-2.0",
                                repr(FIELD_EXTENT_MAX), PAST_EXTENT_MAX)),
        ):
            if draw(st.booleans()):
                flags[name] = value
    if command in ("mode", "field"):
        member = {
            "--j": values(*range(0, 9)),
            "--sign": st.sampled_from(["+", "-", "*"]),
            "--designated": None,
            "--b0": values(
                "5/3", "7/3", "-1", "1e-9", "1.5" + "0" * 5000,
                f"{2**B0_BITS - 1}/{2**B0_BITS - 2}", str(2**B0_BITS), f"1/{2**B0_BITS}",
                "1e-10", "1" + "0" * 5000,
            ),
        }
        flags.update((name, member[name]) for name in draw(st.sampled_from(MEMBERS)))
    argv = [command]
    for name, value in flags.items():
        argv.append(name if value is None else f"{name}={draw(value)}")
    output = draw(st.sampled_from(["stdout", "file", *UNWRITABLE]))
    if output != "stdout":
        argv += ["-o", None if output == "file" else output]
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(requests())
def test_every_request_ends_in_a_documented_exit_code(argv):
    limit = sys.get_int_max_str_digits()
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        argv = [path if a is None else a for a in argv]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse: usage lines, then "amnmodes: error: ..."
                assert exc.code == 2
                assert "error:" in stderr.getvalue().splitlines()[-1]
                rc = None
        written = os.path.exists(path)
    assert sys.get_int_max_str_digits() == limit
    if rc is None:
        assert not written and stdout.getvalue() == ""
        return
    assert rc in (0, 1, 2, 3)
    assert not (rc == 1 and argv[0] == "field"), "field exits 1 only on an internal fault"
    if rc in (2, 3):
        err = stderr.getvalue()
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
        assert not written and stdout.getvalue() == ""
    else:
        assert stderr.getvalue() == ""
        assert not set(UNWRITABLE) & set(argv)
        assert written or stdout.getvalue().endswith("\n")
