"""The byte contract: one sha256 per request group over what `cli.main` writes.

Each request runs in this process through `cli.main`, with `-o` to a
file where it writes one.  A group's digest covers, request by request
and in order, the argv (without `-o`), the exit code, the stderr text and
the output bytes.  `verify` documents are pinned without their
`timings_ms`, re-serialised as `json.dumps(doc, indent=2)`.  A request
that argparse refuses is pinned by its exit code only: the usage text
argparse writes differs between Python versions.

The exact groups (`verify`, `poly`, `mode`, `largest`, `errors`) print
rationals and integers only, so their bytes are the same on every
platform; `largest` holds the order-500 requests.  The field groups
print doubles.  Each one rests on real + - * / and sqrt, which IEEE 754
rounds correctly, on `repr`, and on numpy's `unique` and `linspace`; no
operation on the way is one whose result numpy's dispatch by CPU feature
can change (no power, no complex product, no library norm), and
`test_field_bytes_independent_of_cpu_dispatch` checks that in a child
with the dispatched kernels switched off.  Their digests hold for the
numpy version in FIELD_VERSIONS, with which they were made.  On any other
version those groups are skipped with a reason naming both versions, so
the skip shows in the summary.

A digest is to be remade only for a change that means to change the
bytes; CHANGES.md then says which request changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy
import pytest

import amnmodes
from amnmodes.cli import main

FIELD_VERSIONS = {"numpy": "2.4.6"}

GROUPS = {
    "verify": [["verify", "--m", str(m)] for m in [*range(1, 65), 100, 200]],
    "poly": [["poly", "--m", str(m)] for m in [*range(1, 41), 200, 500]],
    "mode": [
        ["mode", "--m", str(m), *selector]
        for selector in (["--designated"], ["--j", "1", "--sign", "-"],
                         ["--b0", "7/5"], ["--b0", "1/100000"])
        for m in range(41)
    ],
    # the largest order: its report, and members whose coefficients print past the
    # int-to-str digit limit, up to the largest --b0 inside the bound
    "largest": [
        ["verify", "--m", "500"],
        ["mode", "--m", "500", "--designated"],
        ["mode", "--m", "500", "--b0", "1/100000"],
        ["mode", "--m", "500", "--b0=-4294967291/4294967279"],
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
    # far out, where y = (1-|x|^2)/(1+|x|^2) nears -1: k = 0 at |psi|^2 down to 1e-33 (1e8),
    # k = 0 lifted 50 times, and a k > 0 field
    "field_far": [
        *(["field", "--m", "0", "--designated", "--grid", "16", "--extent", extent]
          for extent in ("1e3", "1e7", "1e8")),
        ["field", "--m", "50", "--j", "1", "--sign", "-", "--grid", "16", "--extent", "1e3"],
        ["field", "--m", "5", "--designated", "--grid", "16", "--extent", "1e3"],
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
        ["poly", "--m", "-1"],
        ["verify", "--m", "501"],
        ["field", "--m", "51", "--designated"],
        ["field", "--m", "1", "--designated", "--extent", "1.0000000000000002e+30"],  # past cli.FIELD_EXTENT_MAX
    ],
    # the README's far-out field grids: 1e160, where |x|^2 would overflow, is past
    # cli.FIELD_EXTENT_MAX and exits 2; 1e10 prints its grid
    "field_errors": [
        ["field", "--m", "50", "--designated", "--grid", "2", "--extent", "1e160"],
        ["field", "--m", "0", "--designated", "--grid", "2", "--extent", "1e10"],
    ],
}

DIGESTS = {
    "verify": "b5a1484d1ef07eef23ade719b68032e93b31832f43b7089df8d4d24328edc4e5",
    "poly": "4f8dde48531812d37bd4a5f92e60fd0c0f3c6bb7404080f5cf158e11215835a8",
    "mode": "3e6e1098b40b25820c86f9d7444890e26750af52ac37f3bfbf1b1b049ee95cdc",
    "field": "dd204cffdbfdcca70240e49bc4fca0fbfed58060d53ebc5a3ed7329af5eeab02",
    "field_members": "b08c710d57f4cb54a0b3d5364ff1fdfa9994a4461a8b3f33b5d1fccde8c80f80",
    "field_far": "fb0052a191f6cd9841c264310b97b2287aab6bfdb4c3e54deeba6f6545470698",
    "largest": "5d30bac5122d7c6896f4f4b67224946f2d48fde21a57f5869d88da105097b63e",
    "errors": "2586aff98caa3ca67d5ad3e31ed320e268bdf84c5418fed6a1c75880754bbfe7",
    "field_errors": "e5f17cfe0420c028db61107ed4bb06670d82d00d7ccfc317c7c80ef5a86b7d62",
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
        found = {"numpy": numpy.__version__}
        if found != FIELD_VERSIONS:
            pytest.skip(f"field digests made with {FIELD_VERSIONS}; this run has {found}")
    assert group_digest(group, tmp_path) == DIGESTS[group]


# a designated field near the origin and the deepest lift far out
DISPATCH_REQUESTS = [
    ["field", "--m", "25", "--designated", "--grid", "16"],
    ["field", "--m", "50", "--j", "1", "--sign", "-", "--grid", "16", "--extent", "1e3"],
]


def test_field_bytes_independent_of_cpu_dispatch(tmp_path):
    """The field requests exit with the same code and print the same bytes in a
    child in which numpy's runtime-dispatched kernels are switched off
    (`NPY_DISABLE_CPU_FEATURES` naming every dispatch target this CPU enables)
    as in this process.  Only dispatch targets are named: numpy refuses to
    import with a baseline feature named, and it ignores an unknown name, so
    the child also reports that none of them is left on."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")  # numpy 2 names its dispatch here
    targets = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    if not targets:
        pytest.skip("numpy enables no runtime-dispatched CPU target here, so there is nothing to switch off")
    script = (
        "import json, sys\n"
        "from numpy._core import _multiarray_umath as m\n"
        "from amnmodes.cli import main\n"
        "print(json.dumps([t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)]))\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    print(main([*argv, '-o', f'{sys.argv[2]}.{i}']))\n"
    )
    src = os.path.dirname(os.path.dirname(amnmodes.__file__))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", script, json.dumps(DISPATCH_REQUESTS), str(tmp_path / "child")],
                           capture_output=True, text=True, env=env, check=True)
    left_on, *codes = child.stdout.splitlines()
    assert json.loads(left_on) == [], child.stderr
    for i, (argv, code) in enumerate(zip(DISPATCH_REQUESTS, codes)):
        here = main([*argv, "-o", str(tmp_path / "here")])
        assert (int(code), (tmp_path / f"child.{i}").read_bytes()) == (here, (tmp_path / "here").read_bytes()), argv
