"""The amnmodes benchmark: one closed-loop client running CLI requests.

    python3 perfbench/run.py --workload {verify,build,field} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.
The seed draws the run's orders (workloads.py); each list takes 20-35 s
on a 2-core machine, and a pass starts no request after 4 x --seconds or
past the 180 s a run may take.  Each pass runs in a fresh interpreter
(worker.py) that calls `amnmodes.cli.main` in-process, one request after
another.  Set-up (imports, input generation, warm-up)
is timed in that pass and in SETUP_RUNS more interpreters that only set
up; `setup_s` is the median.  Every output is then checked by checks.py,
outside the timed region, against answers the benchmark computes itself.

--trace 0 prints the end-to-end metrics of the untraced pass.  --trace 1
runs the untraced pass and then a traced pass of the same orders in
another interpreter, and prints per-layer self times and counts from the
traced pass's spans.  Human-readable lines come first; the last line of
stdout is the JSON result.  Known failures of the seed program on the
`field` workload count in `failed` without making the run incorrect (see
checks.KNOWN_FIELD_FAILURES).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import mpmath

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 2
PSI_SAMPLE_ROWS = 16
RUN_BUDGET_S = 130.0  # the timed passes of one run
WORKER_BUDGET_S = 165.0  # every worker of one run, so that it ends within 180 s
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "AMN_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same sources
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def run_worker(root: Path, out: Path, args, *extra: str, end: float) -> dict:
    """Run worker.py to completion, or kill it at monotonic time `end`."""
    out.mkdir()
    timeout = max(1.0, end - time.monotonic())
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), *extra]
    try:
        proc = subprocess.run(cmd, cwd=root, env=worker_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(extra)} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def request_causes(workload: workloads.Workload, seed: int, record: dict) -> list[str]:
    """Failure causes of one request; empty when it passed every check."""
    if record.get("skipped"):
        return ["deadline: not started before the pass deadline"]
    if record["error"] is not None:
        return [f"exception: {record['error']}"]
    if record["rc"] != 0:
        return [f"exit: code {record['rc']}"]
    m = record["m"]
    with open(record["path"], encoding="utf-8") as fh:
        if workload.command == "verify":
            return checks.check_verify(m, json.load(fh))
        if workload.command == "poly":
            return checks.check_build(m, json.load(fh))
        rows = list(csv.reader(fh))
    with open(record["mode_path"], encoding="utf-8") as fh:
        mode = json.load(fh)
    points = workloads.FIELD_GRID**3
    sample = random.Random(f"{seed}/{m}").sample(range(points), PSI_SAMPLE_ROWS)
    return checks.check_field(m, rows, mode, record["l2"], record["l2_error"], sample,
                              workloads.FIELD_GRID, workloads.FIELD_EXTENT)


def check_pass(workload, seed: int, result: dict) -> tuple[int, bool, list[str]]:
    """(failed request count, whether any output is wrong unexpectedly, one line per cause).

    A request skipped at the deadline fails but has no output to be wrong.
    """
    failed, unexpected, lines = 0, False, []
    for record in result["requests"]:
        causes = request_causes(workload, seed, record)
        failed += bool(causes)
        for cause in causes:
            if checks.cause_code(cause) == "deadline":
                label = "skipped"
            elif checks.is_known_failure(workload.name, record["m"], cause):
                label = "known"
            else:
                label, unexpected = "UNEXPECTED", True
            lines.append(f"  m={record['m']} {label} {cause}")
    return failed, unexpected, lines


def layer_metrics(workload, spans_path: Path, traced: dict, untraced_wall: float) -> tuple[dict, list[str]]:
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    with open(spans_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    extra = json.loads(lines.pop())
    for line in lines:
        _, name, _, _, _, span_self = json.loads(line)
        self_s[name] += span_self
        calls[name] += 1
    for name, (count, seconds) in extra["aggregates"].items():
        self_s[name] += seconds
        calls[name] += count

    wall = traced["wall_s"]
    requests = calls["request"]
    points = requests * workloads.FIELD_GRID**3 if workload.command == "field" else 0
    metrics = {f"{name}.self_s": (self_s[name], "s") for name in tracer.SPANNED + tracer.AGGREGATED}
    metrics.update({
        "fields.ZeroModeField.evaluate.calls_per_point":
            (calls["fields.ZeroModeField.evaluate"] / points if points else 0.0, "count"),
        "recurrence.coefficient_polynomials.calls_per_request":
            (calls["recurrence.coefficient_polynomials"] / requests, "count"),
        "recurrence.verify_system.calls_per_request":
            (calls["recurrence.verify_system"] / requests, "count"),
        "polynomials.max_coeff_bits": (extra["max_coeff_bits"], "count"),
        "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
        "trace.unattributed_ratio": ((wall - sum(self_s.values())) / wall, "ratio"),
    })

    report = [f"layer {'name':<40} {'self_s':>10} {'share':>7} {'calls':>8}"]
    for name in sorted(self_s, key=self_s.get, reverse=True):
        report.append(f"layer {name:<40} {self_s[name]:10.4f} {self_s[name] / wall:7.1%} {calls[name]:8d}")
    return metrics, report


def run(args, root: Path, work: Path) -> tuple[dict, list[str]]:
    workload = workloads.WORKLOADS[args.workload]
    orders, warm = workloads.draw(workload, args.seed)
    passes = 2 if args.trace else 1
    deadline = str(min(4.0 * args.seconds, RUN_BUDGET_S / passes))
    end = time.monotonic() + WORKER_BUDGET_S

    setups = [] if args.trace else [
        run_worker(root, work / f"setup{i}", args, "--setup-only", end=end) for i in range(SETUP_RUNS)
    ]
    untraced = run_worker(root, work / "pass", args, "--deadline", deadline, end=end)

    env = dict(untraced["env"], mpmath=mpmath.__version__, seed=args.seed,
               amn_threads_cleared="AMN_THREADS" in os.environ,
               orders=[r["m"] for r in untraced["requests"]], warmup_order=warm)
    lines = [f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}",
             f"env {json.dumps(env)}"]
    if not env["amn_threads_unset"] or Path(env["amnmodes"]).resolve() != (root / "src" / "amnmodes").resolve():
        raise BenchError(f"worker environment is not the checkout's: {env}")

    for record in untraced["requests"]:
        lines.append(f"request m={record['m']} seconds={record.get('seconds', float('nan')):.4f}")
    failed, unexpected, failures = check_pass(workload, args.seed, untraced)
    lines += failures
    attempted = len(orders)
    times = [r["seconds"] for r in untraced["requests"] if "seconds" in r]
    if not times:
        raise BenchError("no request started before the pass deadline")

    if not args.trace:
        setup_samples = [r["setup_s"] for r in setups] + [untraced["setup_s"]]
        metrics = {
            "wall_s": (untraced["wall_s"], "s"),
            "request_s.p50": (statistics.median(times), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (untraced["peak_rss_mb"], "MB"),
        }
        lines.append(f"metric fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
        lines.append(f"metric request_s.p50 samples={len(times)}")
        lines.append(f"metric setup_s samples={[round(x, 4) for x in setup_samples]}")
    else:
        traced = run_worker(root, work / "traced", args, "--trace", "--deadline", deadline, end=end)
        _, traced_unexpected, traced_failures = check_pass(workload, args.seed, traced)
        lines += [f"traced{line}" for line in traced_failures]
        unexpected |= traced_unexpected
        metrics, report = layer_metrics(workload, work / "traced" / "spans.jsonl", traced, untraced["wall_s"])
        lines += report
        overhead = metrics["trace.overhead_ratio"][0]
        unattributed = metrics["trace.unattributed_ratio"][0]
        if unattributed > max(overhead - 1.0, 0.0) + 0.01:
            unexpected = True
            lines.append(f"UNEXPECTED self times leave {unattributed:.2%} of traced wall_s unattributed")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value!r} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "amnmodes" / "__init__.py").is_file():
        print(f"error: no amnmodes sources under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result, lines = run(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
