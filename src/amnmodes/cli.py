"""Command-line front end.

Subcommands: poly, verify, mode, field, bench.  Exit codes are the
contract: 0 pass, 1 verification failure, 2 usage error, 3 I/O error.
Each `cmd_*` returns its text chunks and verdict or raises, and `main` alone
maps the outcome: ValueError -> 2, FloatingPointError -> 1, OSError or
ValueError (a NUL byte in the path) while writing -> 3, each with one
`error:` line and no output; otherwise the text is written and the
verdict gives 0 or 1.  `field` fails only on usage and I/O: inside
FIELD_EXTENT_MAX no value is non-finite, and FloatingPointError guards
against printing NaN with exit 0.  Large integers are serialized as
decimal strings; native JSON numbers lose precision once coefficients
pass 2**53.  numpy loads only here: `verify` imports `roots` and
`field` `fields`, each of which imports numpy, once its arguments are
checked, so `poly`, `mode` and `bench` load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from fractions import Fraction

from .recurrence import (build_amn_polynomial, family_b0, instantiate_solution, polynomial_report,
                         solution_report, timed)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

POLY_M_MAX = 500
FIELD_M_MAX = 50
# points per axis; all n^3 are evaluated at once: --grid 64 at m = 50 takes
# 0.47-0.51 s and 146 MB (2-vCPU VM, Python 3.11.7)
FIELD_GRID_MAX = 64
# --extent E at most this.  On the cube u = |x|^2 <= 3 E^2; far out |h psi| ~ (2k+3)/u^2, and
# its smallest component, Re (h psi)_1 ~ (2k+3)^2/(3 u^2.5), is a factor |x| below.  The
# residual column rounds these components and np.linalg.norm squares them, so those squares
# must stay normal: (3/(3 E^2)^2.5)^2 >= 2.2e-308 (k = 0) gives E <= 4.2e30.  From 1e33 the
# column reads exact zeros; inside, every value is a normal double (|psi|^2 ~ 1/u^2 >= 1e-121).
FIELD_EXTENT_MAX = 1e30
B0_BITS = 32  # --b0 numerator and denominator below 2**B0_BITS (README time table)


def _check_order(m: int, top: int = POLY_M_MAX) -> None:
    """The one order range: --m in 0..top, P_0 = t - 1 being the first member."""
    if not 0 <= m <= top:
        raise ValueError(f"--m must be in 0..{top}")


def _emit(chunks: Iterable[str], path: str | None) -> None:
    if path is None:
        if sys.stdout is None:  # Python's stdout when it started with fd 1 closed
            raise OSError("stdout is closed")
        chunk = ""
        for chunk in chunks:
            sys.stdout.write(chunk)
        if not chunk.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _parse_b0(text: str) -> Fraction:
    """--b0 as a Fraction whose numerator and denominator are below 2**B0_BITS.

    `Fraction` expands 10**|e| for a decimal exponent e (0.2 s at
    1e-1000000, about 40 s at 1e-30000000), so e is bounded on the string
    first: past len(text) + B0_BITS no literal but a zero can meet the bound.
    """
    _, marker, exponent = text.lower().partition("e")
    try:
        too_far = bool(marker) and abs(int(exponent)) > len(text) + B0_BITS
    except ValueError:  # no exponent after all; Fraction names the malformed literal
        too_far = False
    try:
        b0 = None if too_far else Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"b0 {text!r} has a zero denominator") from None
    if b0 is None or max(abs(b0.numerator), b0.denominator) >= 2**B0_BITS:
        raise ValueError(f"--b0 numerator and denominator must be below 2**{B0_BITS}")
    return b0


def _select_b0(args) -> Fraction:
    if args.sign is not None and args.j is None:
        raise ValueError("--sign selects a root sign and needs --j")
    if args.b0 is not None:
        return _parse_b0(args.b0)
    if args.designated:
        return family_b0(args.m + 1)
    if args.j is None:
        raise ValueError("select b0 with --j/--sign, --designated, or --b0")
    if not 1 <= args.j <= args.m + 1:
        raise ValueError(f"root index j must be in 1..{args.m + 1}")
    return family_b0(args.j, -1 if args.sign == "-" else 1)


def cmd_poly(args) -> tuple[Iterable[str], bool]:
    _check_order(args.m)
    return (json.dumps(polynomial_report(args.m), indent=2),), True


def cmd_verify(args) -> tuple[Iterable[str], bool]:
    _check_order(args.m)
    from . import roots
    report, ok = roots.verification_report(args.m)
    return (json.dumps(report, indent=2),), ok


def cmd_mode(args) -> tuple[Iterable[str], bool]:
    _check_order(args.m)
    report = solution_report(instantiate_solution(args.m, _select_b0(args)))
    return (json.dumps(report, indent=2),), True


def cmd_field(args) -> tuple[Iterable[str], bool]:
    _check_order(args.m, FIELD_M_MAX)
    if not 0 <= args.grid <= FIELD_GRID_MAX:
        raise ValueError(f"--grid must be in 0..{FIELD_GRID_MAX}")
    if not math.isfinite(args.extent):
        raise ValueError("--extent must be finite")
    if args.extent < 0:
        raise ValueError("--extent is a half-width and must not be negative")
    if args.extent > FIELD_EXTENT_MAX:
        raise ValueError(f"--extent must be at most {FIELD_EXTENT_MAX!r}")
    b0 = _select_b0(args)
    from . import fields
    return fields.sample_grid(fields.ZeroModeField(args.m, b0), extent=args.extent, n=args.grid), True


def cmd_bench(args) -> tuple[Iterable[str], bool]:
    if not 1 <= args.m_max <= POLY_M_MAX:
        raise ValueError(f"bench defined for m-max in 1..{POLY_M_MAX}")
    rows = []
    for m in range(1, args.m_max + 1):
        row = {"m": m}
        amn = timed(row, "build_ms", build_amn_polynomial, m)
        row["max_coefficient_bits"] = max(abs(c).bit_length() for c in amn.integer.coeffs)
        rows.append(row)
    return (json.dumps(rows, indent=2),), True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amnmodes",
        description="Exact construction and verification of the Adam-Muratori-Nash "
        "polynomial sequence and its zero modes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_b0=False):
        p.add_argument("--output", "-o", default=None, help="output file (default: stdout)")
        if with_b0:
            member = p.add_mutually_exclusive_group()
            member.add_argument("--j", type=int, default=None, help="root index, 1..m+1")
            member.add_argument("--designated", action="store_true",
                                help="use the designated member (j = m+1, +)")
            member.add_argument("--b0", default=None, help='explicit rational b0, e.g. "5/3"')
            p.add_argument("--sign", choices=["+", "-"], default=None,
                           help="root sign with --j (default +)")

    p = sub.add_parser("poly", help="emit P_m in rational and integer form")
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("verify", help="full exact verification for one m")
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mode", help="emit the coefficient solution for a chosen b0")
    p.add_argument("--m", type=int, required=True)
    common(p, with_b0=True)
    p.set_defaults(func=cmd_mode)

    p = sub.add_parser("field", help="sample a zero-mode field on a grid (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=int, default=5, help="points per axis")
    p.add_argument("--extent", type=float, default=2.0, help="half-width of the cube")
    common(p, with_b0=True)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("bench", help="timing and coefficient growth per m")
    p.add_argument("--m-max", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


# built once per process: building takes about 20 times as long as parsing
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    # inside the --b0 bound the numbers outgrow Python's default int-to-str limit
    # of 4,300 digits (about 19,000 at m = 500), and so may an in-bound --b0 literal
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        chunks, ok = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    finally:
        sys.set_int_max_str_digits(limit)
    try:
        _emit(chunks, args.output)
    except (OSError, ValueError) as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
