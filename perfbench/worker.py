"""Runs one workload's requests in-process, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --out DIR
        [--setup-only] [--trace] [--deadline SECONDS]

run.py starts it with PYTHONPATH pointing at the checkout's `src`.  Set-up
(imports of numpy, scipy and amnmodes, drawing the orders, one warm-up
request) is timed from the first statement.  Then each request calls
`amnmodes.cli.main(argv)` with `-o <file in DIR>`; a `field` request also
computes `fields.l2_norm_squared` of the same member.  Requests run one
after another, and none starts after the deadline.  After the timed loop
the `mode` JSON each field check needs is written, untimed.  The result
goes to DIR/result.json and, with --trace, the spans to DIR/spans.jsonl.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.integrate  # noqa: E402, F401

import amnmodes  # noqa: E402
from amnmodes import cli, fields  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_request(workload, m: int, path: str, warmup: bool = False) -> dict:
    record = {"m": m, "path": path, "rc": None, "error": None, "l2": None, "l2_error": None}
    try:
        record["rc"] = cli.main(workload.argv(m, path, warmup))
    except SystemExit as exc:
        record["rc"] = exc.code
    except Exception as exc:  # a failed request is recorded and the run goes on
        record["error"] = repr(exc)
    if workload.command == "field":
        try:
            record["l2"] = fields.l2_norm_squared(fields.ZeroModeField.designated(m))
        except Exception as exc:
            record["l2_error"] = repr(exc)
    return record


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "amn_threads_unset": "AMN_THREADS" not in os.environ,
        "amnmodes": os.path.dirname(amnmodes.__file__),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--deadline", type=float, default=120.0)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    orders, warm = workloads.draw(workload, args.seed)
    warm_path = os.path.join(args.out, f"warmup.{workload.suffix}")
    warm_record = run_request(workload, warm, warm_path, warmup=True)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "env": environment(), "warmup": warm_record}
    if args.setup_only:
        return write_result(args.out, result)

    tracer = Tracer()
    request = run_request
    if args.trace:
        request = tracer.wrap("request", run_request)
        tracer.install()
    records = []
    start = time.perf_counter()
    for m in orders:
        path = os.path.join(args.out, f"{workload.command}_{m}.{workload.suffix}")
        t = time.perf_counter()
        if t - start > args.deadline:
            records.append({"m": m, "path": path, "skipped": "deadline"})
            continue
        record = request(workload, m, path)
        record["seconds"] = time.perf_counter() - t
        records.append(record)
    wall_s = time.perf_counter() - start
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if workload.command == "field":
        for record in records:
            record["mode_path"] = os.path.join(args.out, f"mode_{record['m']}.json")
            cli.main(["mode", "--m", str(record["m"]), "--designated", "-o", record["mode_path"]])
    if args.trace:
        tracer.write(os.path.join(args.out, "spans.jsonl"))
    result.update(wall_s=wall_s, peak_rss_mb=peak_rss_mb, requests=records)
    return write_result(args.out, result)


def write_result(out: str, result: dict) -> int:
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
