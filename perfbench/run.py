"""dendrodyn benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload {suite,ladder,analysis} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; dendrodyn is imported from
``src/``.  Workloads (one client, closed loop: each op starts when the
previous one has ended):

* ``suite``: thousands of seeded instances of at most 12 vertices, about
  40% finite-order maps and 40% folding maps (load + decide) and 20%
  covering-hull instances (load + find_periodic_in_hull).  Throughput of
  the acceptance sweeps; every power is computed once per map.
* ``ladder``: rotation stars, the identity on a star and interval
  involutions at 25 to 200 arms or breakpoints (load + decide), and bare
  stars with 100 to 800 arms through ``cli.main classify``.  The
  quadratic tree tables and pairwise injectivity test dominate.
* ``analysis``: ``cli.main`` recurrence, analyze, odometer and verify on
  odometer towers of depth 3 to 5 and four negative fixtures, reading an
  instance file and writing a JSON report.  Powers are recomputed many
  times over.

Untraced, three worker processes run one after another; each sets up
(import, seeded inputs, warm-up) and then runs whole passes of fresh
inputs, as many as took a third of ``--seconds`` at reference speed on
the commit that defined the benchmark.  The metrics pool
their ops; ``setup_s`` is the median of the three set-ups.  Traced, one
worker runs a fixed list of passes untraced and then traced (see
tracer.py), so the counts repeat exactly for a seed.

Times are reported at reference speed.  A shared host's speed can drift
by 2x for tens of seconds, so a fixed calibration loop (worker.py) is
timed every 0.2 s, and each op time is scaled by CAL_REF_S over the
loop's time around that op.  The details
line repeats every metric unscaled.

Every answer is checked against an oracle (see workloads.py).  The last
line of standard output is the result; the line before it holds the
details: machine, commit, units, tail percentile, failures and, when
traced, the breakdown per op.  The exit code is 1 when any answer was
wrong and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (stdlib only; dendrodyn is imported by the workers)

SETUPS = 3
DEADLINE_S = 170.0
# Seconds the calibration loop in worker.py takes on an idle core of the
# 2-core Intel Xeon VM (Python 3.11.7) the bounds were set on.  Every time
# is scaled by CAL_REF_S over the loop's time measured around it.
CAL_REF_S = 0.0036
TAIL_PERCENTILES = (50, 75, 90, 99, 99.9)
WORKLOAD_NAMES = ("suite", "ladder", "analysis")

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "ladder_top_s": ("s", "lower"),
    "scaling_exponent": ("1", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(root, workload, seed, rep, seconds, trace, workdir, deadline) -> dict:
    """Run one worker; returns its report plus its set-up time."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), root, workload, str(seed),
        str(rep), repr(seconds), str(trace), os.path.join(workdir, f"rep{rep}"),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker {rep} of {workload} failed (exit {proc.returncode})")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = setup_s
    return report


def tail(times: list) -> tuple:
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, by nearest rank."""
    n = len(times)
    q = max((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), default=50)
    return q, sorted(times)[max(0, math.ceil(q / 100 * n) - 1)]


def ladder_metrics(samples: list, times: list) -> tuple:
    """(sum over families of the top rung's median time, largest slope of
    log median time against log size over each family's rungs)."""
    families = {}
    for (family, rung, size, *_), dt in zip(samples, times):
        if rung is not None:
            families.setdefault(family, {}).setdefault(rung, []).append((size, dt))
    top, slopes = 0.0, []
    for rungs in families.values():
        top += statistics.median(dt for _, dt in rungs[max(rungs)])
        if len(rungs) < 2:
            continue
        xs = [math.log(statistics.fmean(s for s, _ in pts)) for pts in rungs.values()]
        ys = [math.log(statistics.median(dt for _, dt in pts)) for pts in rungs.values()]
        slopes.append(statistics.linear_regression(xs, ys).slope)
    return top, max(slopes)


def end_to_end(reports: list, scaled: bool = True) -> tuple:
    """(metric values, tail percentile); times scaled to reference speed
    unless `scaled` is false."""
    samples = [s for r in reports for s in r["samples"]]
    if scaled:
        times = [dt * CAL_REF_S / cal for *_, dt, _ok, cal in samples]
        setups = [r["setup_s"] * CAL_REF_S / r["setup_probe_s"] for r in reports]
    else:
        times = [s[4] for s in samples]
        setups = [r["setup_s"] for r in reports]
    q, tail_s = tail(times)
    top, slope = ladder_metrics(samples, times)
    # Every pass runs the same mix, so the median op time is read per pass:
    # pooled, it would sit between two op kinds and follow their extremes.
    passes = {}
    for (*_, pass_key, _dt, _ok, _cal), dt in zip(samples, times):
        passes.setdefault(pass_key, []).append(dt)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(statistics.median(p) for p in passes.values()) * 1000,
        "op_tail_ms": tail_s * 1000,
        "ladder_top_s": top,
        "scaling_exponent": slope,
        "peak_rss_mb": max(r["max_rss_kb"] for r in reports) / 1024,
    }
    return values, q


def context(root: str, args) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if os.path.exists(os.path.join(root, ".git")):  # never search above the checkout
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = perf_counter() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dendrodyn", "__init__.py")):
        print("run from the root of a dendrodyn checkout (no src/dendrodyn here)", file=sys.stderr)
        return 2
    work_root = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(work_root, str(os.getpid()))
    try:
        if args.trace:
            reports = [spawn(root, args.workload, args.seed, 0, 0, 1, workdir, deadline)]
        else:
            share = args.seconds / SETUPS
            reports = [
                spawn(root, args.workload, args.seed, rep, share, 0, workdir, deadline)
                for rep in range(SETUPS)
            ]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)

    samples = [s for r in reports for s in r["samples"]]
    attempted = len(samples) + sum(r["warmup_ops"] for r in reports)
    failed = sum(not s[5] for s in samples) + sum(r["warmup_failed"] for r in reports)
    details = context(root, args)
    details["failed_frac"] = failed / attempted
    details["failures"] = [f for r in reports for f in r["failures"]][:20]
    if args.trace:
        table = tracer.per_layer_metrics()
        metrics = {k: {"value": v, "unit": table[k][0]} for k, v in reports[0]["layers"].items()}
        details["absent"] = reports[0]["absent"]
        details["by_op"] = reports[0]["by_op"]
        details["units"] = {k: {"unit": u, "better": b} for k, (u, b) in table.items()}
    else:
        values, q = end_to_end(reports)
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}
        details["op_tail_percentile"] = q
        details["op_tail_samples"] = len(samples)
        details["unscaled"] = end_to_end(reports, scaled=False)[0]
        details["probe_median_s"] = statistics.median(s[6] for s in samples)
        details["setups_s"] = [r["setup_s"] for r in reports]
        details["units"] = {k: {"unit": u, "better": b} for k, (u, b) in END_TO_END.items()}
    print(json.dumps({"details": details}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
