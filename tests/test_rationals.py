"""String wire format for exact rationals: `mode --b0` parsing and formatting."""

import json
from fractions import Fraction

from amnmodes.cli import main
from amnmodes.polynomials import rational_to_string


def mode_b0(tmp_path, b0):
    """Parse b0 through `mode --m 1 --b0`; returns (exit code, echoed b0)."""
    out = tmp_path / "m.json"
    rc = main(["mode", "--m", "1", f"--b0={b0}", "-o", str(out)])
    return rc, json.loads(out.read_text())["b0"] if rc == 0 else None


def test_parse_fraction(tmp_path):
    assert mode_b0(tmp_path, "25/9") == (0, "25/9")
    assert mode_b0(tmp_path, "-5/3") == (0, "-5/3")


def test_parse_integer(tmp_path):
    assert mode_b0(tmp_path, "7") == (0, "7")


def test_format():
    assert rational_to_string(Fraction(25, 9)) == "25/9"
    assert rational_to_string(Fraction(-10)) == "-10"
    assert rational_to_string(Fraction(0)) == "0"


def test_denominator_always_positive():
    assert rational_to_string(Fraction(3, -7)) == "-3/7"


def test_parse_rejects_garbage(tmp_path, capsys):
    for b0 in ("1/2/3", "1/0", "1e"):  # "1e": an exponent marker with no exponent
        assert mode_b0(tmp_path, b0) == (2, None)
        assert main(["field", "--m", "1", f"--b0={b0}"]) == 2
        assert capsys.readouterr().err.startswith("error:")
