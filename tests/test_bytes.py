"""The byte contract: one sha256 per request group over what `cli.main` writes.

Each request runs in this process through `cli.main`, with `-o` to a
file where it writes one.  A group's digest covers, request by request
and in order, the argv (without `-o`), the exit code, the stderr text and
the output bytes.  `verify` documents are pinned without their
`timings_ms`, re-serialised as `json.dumps(doc, indent=2)`, as the CI pins
do.  A request that argparse refuses is pinned by its exit code only: the
usage text argparse writes differs between Python versions.

The exact groups (`verify`, `poly`, `mode`, `errors`) print rationals and
integers only, so their bytes are the same on every platform.  The field
groups print doubles from numpy and scipy's `eval_jacobi`; their digests
hold for the versions in FIELD_VERSIONS, with which they were made.  On
any other versions those groups are skipped with a reason naming both
sets of versions, so the skip shows in the summary.

A digest is to be remade only for a change that means to change the
bytes; CHANGES.md then says which request changed and why.
"""

import contextlib
import hashlib
import io
import json

import numpy
import pytest
import scipy

from amnmodes.cli import main

FIELD_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

GROUPS = {
    "verify": [["verify", "--m", str(m)] for m in [*range(1, 65), 100, 200]],
    "poly": [["poly", "--m", str(m)] for m in [*range(1, 41), 200, 500]],
    "mode": [
        ["mode", "--m", str(m), *selector]
        for selector in (["--designated"], ["--j", "1", "--sign", "-"],
                         ["--b0", "7/5"], ["--b0", "1/100000"])
        for m in range(41)
    ],
    "field": [
        ["field", "--m", str(m), "--designated", "--grid", str(grid)]
        for grid in (0, 2, 5, 16)
        for m in range(51)
    ],
    # lifted members (k < m): the deepest lift, a middle root, and --b0 = -5/3 (j = 2, -),
    # which m = 0 does not solve
    "field_members": [
        *(["field", "--m", str(m), "--j", "1", "--sign", "-", "--grid", "2"] for m in range(51)),
        *(["field", "--m", str(m), "--j", str(m // 2 + 1), "--grid", "2"] for m in range(51)),
        *(["field", "--m", str(m), "--b0=-5/3", "--grid", "2"] for m in range(51)),
        ["field", "--m", "50", "--j", "1", "--sign", "-", "--grid", "16"],
    ],
    # the README's malformed and out-of-range inputs: each exits 2
    "errors": [
        ["mode", "--m", "1", "--b0", "1/0"],
        ["field", "--m", "1", "--designated", "--grid", "-1"],
        ["field", "--m", "1", "--designated", "--grid", "65"],
        ["field", "--m", "1", "--designated", "--extent", "nan"],
        ["field", "--m", "1", "--designated", "--extent=-2"],
        ["mode", "--m", "2", "--designated", "--b0", "5/3"],
        ["mode", "--m", "2", "--j", "1", "--b0", "5"],
        ["mode", "--m", "2", "--designated", "--sign", "-"],
        ["mode", "--m", "1", "--b0", "1e-1000000"],
        ["mode", "--m", "1", "--b0", "4294967296"],
        ["poly", "--m", "0"],
        ["verify", "--m", "501"],
        ["field", "--m", "51", "--designated"],
    ],
    # the README's field grids that reach too far out: non-finite values exit 1, a
    # spinor that underflows to zero exits 2; their error lines print grid doubles
    "field_errors": [
        ["field", "--m", "50", "--designated", "--grid", "2", "--extent", "1e160"],
        ["field", "--m", "0", "--designated", "--grid", "2", "--extent", "1e10"],
    ],
}

DIGESTS = {
    "verify": "b5a1484d1ef07eef23ade719b68032e93b31832f43b7089df8d4d24328edc4e5",
    "poly": "4f8dde48531812d37bd4a5f92e60fd0c0f3c6bb7404080f5cf158e11215835a8",
    "mode": "3e6e1098b40b25820c86f9d7444890e26750af52ac37f3bfbf1b1b049ee95cdc",
    "field": "94d03383671b676187f86b0bc73589e1ad25bcf24c8bba1c414ffecb0be0af5f",
    "field_members": "df790046a86c5a96832f2a5279a59c8acfde3e0e0f952e60537b53757084e064",
    "errors": "390c72c26c4801032d0d0fd4710d4f4e57ff6a21f54d6c4e18b5b4bd2da0c7bf",
    "field_errors": "9818f28399f98887adb11ff5e50a003cd780a2ab12318088de3a74bd2b3c4c6e",
}


def request_bytes(argv: list, out) -> bytes:
    """The argv, exit code, stderr and output of one request, as one record."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "-o", str(out)])
        except SystemExit as exc:  # argparse: its usage text varies with the Python version
            code = exc.code
            err = io.StringIO("argparse")
    output = out.read_bytes() if out.exists() else b""
    out.unlink(missing_ok=True)
    if argv[0] == "verify" and output:
        doc = json.loads(output)
        del doc["timings_ms"]
        output = json.dumps(doc, indent=2).encode()
    head = json.dumps([argv, code, err.getvalue(), len(output)]).encode()
    return head + b"\n" + output + b"\n"


def group_digest(group: str, tmp_path) -> str:
    h = hashlib.sha256()
    for argv in GROUPS[group]:
        h.update(request_bytes(argv, tmp_path / "out"))
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_group_bytes(group, tmp_path):
    if group.startswith("field"):
        found = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        if found != FIELD_VERSIONS:
            pytest.skip(f"field digests made with {FIELD_VERSIONS}; this run has {found}")
    assert group_digest(group, tmp_path) == DIGESTS[group]
