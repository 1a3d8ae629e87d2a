#!/usr/bin/env python3
"""The qmodver benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  This process imports nothing from
qmodver itself: every measurement runs in a child interpreter (at most one at
a time) with PYTHONPATH=src.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines before
it are a human-readable report.  See perfbench/README.md for the workloads,
the metrics and what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import MUST_MOVE, PER_LAYER, merge, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("suite-default", "exact-deep", "numeric-sweep")
EXACT_N = 120           # order of the exact-deep identities call
BUDGET_S = 2.0          # budget B of the max-exact-order search
MIN_ORDER = 60          # the search reports the largest order >= this within B
SETUP_SPAWNS = 10       # setup_s: median of this many processes before and after the ops
ORACLE_POINTS = 256     # sweep points (and their S-images) checked against mpmath
CHILD_TIMEOUT_S = 120
CLI_CHECK_ALL = ("-m", "qmodver.cli", "check", "--suite", "all")
SETUP_PROBE = ("-c", "import qmodver.cli; qmodver.cli.make_parser()")

_VERDICT_LINE = re.compile(r"^(PASS|XFAIL|FAIL|ABORT)\s+\[[^\]]+\] (.*?)(?:  residual=.*)?$")


class ChildError(Exception):
    """A child process timed out, exited nonzero or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, check=True):
    """Run one child to completion; returns (CompletedProcess, wall seconds)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{' '.join(args)}: timed out after {CHILD_TIMEOUT_S} s") from exc
    wall = time.perf_counter() - t0
    if check and proc.returncode != 0:
        raise ChildError(f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc, wall


def worker(*args) -> dict:
    proc, _ = spawn(("perfbench/worker.py", *map(str, args)))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise ChildError(f"worker {args[0]} printed no result") from exc


def cli_verdicts(stdout: str) -> list[list[str]]:
    rows = []
    for line in stdout.splitlines():
        m = _VERDICT_LINE.match(line)
        rows.append([m.group(1), m.group(2)] if m else ["UNPARSED", line])
    return rows


class Run:
    """Counts operations and failures, and collects the report lines."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failures: list[str] = []
        self.lines: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail(self, what: str):
        self.check(False, what)

    def report(self, name: str, value, unit: str, note: str = ""):
        self.lines.append(f"{name:<22} {value:>14} {unit:<6} {note}".rstrip())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmodver").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_meta(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
            "git_commit": git_commit(), "src_sha256_16": source_digest()}


def setup_walls(run: Run) -> list[float]:
    """Wall times of SETUP_SPAWNS fresh processes that import the CLI and build its parser."""
    walls = []
    for _ in range(SETUP_SPAWNS):
        proc, wall = spawn(SETUP_PROBE, check=False)
        run.check(proc.returncode == 0, f"setup probe exit {proc.returncode}")
        walls.append(wall)
    return walls


def p99(values) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def peak_child_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- suite-default ------------------------------------------------------------

def check_cli_output(run: Run, proc, golden):
    same = cli_verdicts(proc.stdout) == golden["verdicts"]
    run.check(proc.returncode == golden["exit_code"] and same,
              f"check --suite all: exit {proc.returncode}, "
              f"verdict table {'matches' if same else 'differs from'} golden")


def suite_default(run: Run, golden, trace_dir):
    g = golden["suite_default"]
    deadline = time.perf_counter() + run.args.seconds
    plain, traced, aggs, out_bytes = [], [], [], 0
    while time.perf_counter() < deadline or not plain or (trace_dir and not traced):
        proc, wall = spawn(CLI_CHECK_ALL, check=False)
        check_cli_output(run, proc, g)
        plain.append(wall)
        if trace_dir is None:
            continue
        path = trace_dir / f"op{len(traced)}.json"
        proc, wall = spawn(("perfbench/worker.py", "cli", "--trace", str(path), "--request",
                            str(len(traced)), "--", "check", "--suite", "all"), check=False)
        check_cli_output(run, proc, g)
        traced.append(wall)
        out_bytes += len(proc.stdout.encode())
        aggs.append(load_trace(run, path))
    if trace_dir is not None:
        return traced_metrics(run, aggs, len(traced), plain, traced, out_bytes)
    run.report("check_all_s", f"{statistics.median(plain):.4f}", "s",
               f"median of {len(plain)} fresh processes")
    return {"op_ms_p50": statistics.median(plain) * 1e3, "rss": peak_child_rss_mib()}


# -- exact-deep ---------------------------------------------------------------

def check_identities(run: Run, res: dict, golden, order: int):
    """Verdicts must match golden; at EXACT_N each report's order_used too."""
    width = 3 if order == EXACT_N else 2
    same = [r[:width] for r in res["reports"]] == [r[:width] for r in golden["reports"]]
    run.check(res["status"] == golden["status"] and same,
              f"identities at order {order}: status {res['status']}, "
              f"table {'matches' if same else 'differs from'} golden")


def max_exact_order(run: Run, golden) -> tuple[int, list]:
    """Largest order >= MIN_ORDER whose identities call takes at most BUDGET_S."""
    probes = []

    def fits(order: int) -> bool:
        res = worker("identities", order)
        check_identities(run, res, golden, order)
        probes.append((order, round(res["seconds"], 3)))
        return res["seconds"] <= BUDGET_S

    lo = MIN_ORDER
    if not fits(lo):
        return 0, probes
    hi = 2 * lo
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo, probes


def check_digests(run: Run, golden):
    res = worker("digests", EXACT_N)
    for name, want in golden["digests"].items():
        run.check(res["digests"].get(name) == want, f"digest of {name} at order {EXACT_N} differs")
    run.check(res["p100"] == golden["p100"], f"p(100) = {res['p100']}, expected {golden['p100']}")


def exact_deep(run: Run, golden, trace_dir):
    g = golden["exact_deep"]
    deadline = time.perf_counter() + run.args.seconds
    plain, traced, aggs, rss = [], [], [], 0.0
    while time.perf_counter() < deadline or not plain or (trace_dir and not traced):
        res = worker("identities", EXACT_N)
        check_identities(run, res, g, EXACT_N)
        plain.append(res["seconds"])
        rss = max(rss, res["maxrss_mib"])
        if trace_dir is None:
            continue
        path = trace_dir / f"op{len(traced)}.json"
        res = worker("identities", EXACT_N, "--trace", path, "--request", len(traced))
        check_identities(run, res, g, EXACT_N)
        traced.append(res["seconds"])
        aggs.append(load_trace(run, path))
    check_digests(run, golden)
    if trace_dir is not None:
        return traced_metrics(run, aggs, len(traced), plain, traced)
    best, probes = max_exact_order(run, g)
    run.report("identities_s", f"{statistics.median(plain):.4f}", "s",
               f"median of {len(plain)} fresh processes, order {EXACT_N}")
    run.report("max_exact_order", best, "order",
               f"budget {BUDGET_S} s; probes (order, s): {probes}")
    return {"op_ms_p50": statistics.median(plain) * 1e3, "rss": rss}


# -- numeric-sweep ------------------------------------------------------------

def numeric_sweep(run: Run, golden, trace_dir):
    args = ["sweep", run.args.seed, run.args.seconds]
    if trace_dir is not None:
        path = trace_dir / "sweep.json"
        args += ["--trace", path]
    res = worker(*args)
    laws = res["laws"]
    ops = len(res["point_s"]) + len(res.get("traced_point_s", []))
    run.attempted += ops * laws
    run.failures += [f"law {f['law']} failed at tau {f['tau']}: {f}" for f in res["failures"]]
    oracle = worker("oracle", run.args.seed, ORACLE_POINTS)
    run.attempted += oracle["checked"]
    run.failures += [f"oracle miss: {m}" for m in oracle["misses"]]
    run.lines.append(f"oracle: {oracle['checked']} values, {len(oracle['misses'])} misses, "
                     f"worst error/allowed {oracle['worst_error_over_allowed']:.3g}")
    if trace_dir is not None:
        agg = load_trace(run, path)
        return traced_metrics(run, [agg], len(res["traced_point_s"]),
                              res["point_s"], res["traced_point_s"])
    pooled = [t for samples in res["law_s"].values() for t in samples]
    pts = res["point_s"]
    run.report("law_point_us_p50", f"{statistics.median(pooled) * 1e6:.1f}", "us",
               f"one law at one tau; {len(pooled)} samples")
    run.report("law_point_us_p99", f"{p99(pooled) * 1e6:.1f}", "us")
    run.report("sweep_point_ms_p50", f"{statistics.median(pts) * 1e3:.4f}", "ms",
               f"all {laws} laws at one tau; {len(pts)} points")
    run.report("sweep_point_ms_p99", f"{p99(pts) * 1e3:.4f}", "ms")
    for name, samples in res["law_s"].items():
        if len(samples) < 2:  # every call of this law raised; counted as failures
            continue
        run.lines.append(f"  {name:<30} p50 {statistics.median(samples) * 1e6:8.1f} us  "
                         f"p99 {p99(samples) * 1e6:8.1f} us")
    run.lines.append(f"series build before timing: {res['build_s']:.3f} s")
    return {"op_ms_p50": statistics.median(pts) * 1e3, "rss": res["maxrss_mib"]}


# -- tracing ------------------------------------------------------------------

def load_trace(run: Run, path: Path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        run.fail(f"trace file {path.name}: {exc}")
        return {"stats": {}, "counters": {}}
    for problem in doc["self_check"]:
        run.fail(f"tracer self-check: {problem}")
    return doc["aggregates"]


def traced_metrics(run: Run, aggs, ops, plain, traced, out_bytes=0) -> dict:
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = per_layer_metrics(merge(aggs), ops, overhead, out_bytes)
    for name in MUST_MOVE[run.args.workload]:
        run.check(metrics[name] != 0, f"per-layer metric {name} reads 0 on {run.args.workload}")
    run.lines.append(f"traced {ops} operations; untraced median {statistics.median(plain):.6f} s, "
                     f"traced median {statistics.median(traced):.6f} s")
    return metrics


# -- main ---------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description="qmodver benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qmodver" / "__init__.py").is_file():
        print(f"error: no qmodver sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    run = Run(args)
    meta = run_meta(args)
    trace_dir = None
    if args.trace:
        trace_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)

    body = {"suite-default": suite_default, "exact-deep": exact_deep,
            "numeric-sweep": numeric_sweep}[args.workload]
    try:
        spawn(SETUP_PROBE)  # warm the bytecode cache; not counted
        # probes on both sides of the ops, so a load spike at one end moves the median less
        walls = setup_walls(run)
        result = body(run, golden, trace_dir)
        setup_s = statistics.median(walls + setup_walls(run))
    except ChildError as exc:
        run.fail(str(exc))
        result = None

    if result is None:
        metrics = {}
    elif args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in result.items()}
        with open(trace_dir / "run.json", "w") as fh:
            json.dump({"meta": meta, "metrics": metrics, "failures": run.failures}, fh, indent=1)
    else:
        rss = result["rss"]
        run.report("setup_s", f"{setup_s:.4f}", "s", f"median of {2 * SETUP_SPAWNS} fresh processes")
        run.report("peak_rss_mib", f"{rss:.1f}", "MiB", "largest ru_maxrss of a timed child")
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "op_ms_p50": {"value": result["op_ms_p50"], "unit": "ms"},
                   "peak_rss_mib": {"value": rss, "unit": "MiB"}}
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    run.report("fail_frac", f"{failed / attempted:.6f}", "ratio", f"{failed} of {attempted}")

    print("meta " + json.dumps(meta))
    for line in run.lines:
        print(line)
    for failure in run.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": failed == 0 and result is not None,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
