"""One benchmark process: set up one workload, run its ops, report samples.

    python3 perfbench/worker.py ROOT WORKLOAD SEED REP SECONDS TRACE WORKDIR

Imports dendrodyn from ROOT/src, generates the inputs and warms up, then
prints ``ready``.  Untraced (TRACE 0), it runs the passes of fresh inputs
that take SECONDS at reference speed (see workloads.py) and prints one
JSON line of per-op samples.  Traced (TRACE 1), it runs a fixed list of
passes once untraced and once traced, so that the per-layer counts repeat
exactly, and prints the per-layer metrics.  Started by run.py.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

TRACE_PASSES = {"suite": 20, "ladder": 1, "analysis": 1}
PROBE_EVERY_S = 0.2


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work (Fraction
    arithmetic, hashing, dict inserts: the program's own kind of work)."""
    t0 = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        x = Fraction(i, i + 7) * Fraction(3, 5) + Fraction(1, i)
        acc += x
        table[i, x] = acc
    return perf_counter() - t0


class SpeedProbe:
    """Times `calibrate` at least every PROBE_EVERY_S; each op sample gets
    the mean of the probes taken just before and just after it.

    A shared host's speed can drift by 2x for tens of seconds; the op and
    the probe slow down alike, so their ratio holds still.
    """

    def __init__(self):
        self.last = float("-inf")
        self.probes = []  # (index of the next sample, seconds)

    def before(self, index: int) -> None:
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.probes.append((index, calibrate()))
            self.last = perf_counter()

    def attach(self, samples: list) -> None:
        """Append each sample's probe time to it."""
        self.probes.append((len(samples), calibrate()))
        j = 0
        for i, sample in enumerate(samples):
            while self.probes[j + 1][0] <= i:
                j += 1
            sample.append((self.probes[j][1] + self.probes[j + 1][1]) / 2)


def run_ops(ops, probe, samples, tracer=None, pass_key=""):
    """Time each op into `samples`; returns reasons for wrong answers."""
    failures = []
    for i, op in enumerate(ops):
        op.prepare()
        probe.before(len(samples))
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            answer = op.run()
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            answer, error = None, f"raised {exc!r}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if error is None:
            error = op.check(answer)
        samples.append([op.family, op.rung, op.size, pass_key, dt, error is None])
        if error is not None:
            failures.append(f"{op.label}: {error}")
    return failures


def main(argv) -> int:
    root, workload, seed, rep, seconds, trace, workdir = argv
    sys.path.insert(0, os.path.join(root, "src"))
    import dendrodyn

    if not os.path.abspath(dendrodyn.__file__).startswith(os.path.join(root, "src")):
        print(f"imported dendrodyn from {dendrodyn.__file__}", file=sys.stderr)
        return 2
    # the hull solver logs each fallback it takes; the benchmark only counts answers
    logging.getLogger("dendrodyn").addHandler(logging.NullHandler())
    import workloads

    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](int(seed), workdir)
    warm = []
    warm_failures = run_ops(wl.warmup_ops(), SpeedProbe(), warm)
    print("ready", flush=True)
    setup_probe = statistics.median(calibrate() for _ in range(3))

    if trace == "1":
        from tracer import Tracer

        ops = [op for p in range(TRACE_PASSES[workload]) for op in wl.pass_ops(f"trace{p}")]
        plain, traced = [], []
        probe = SpeedProbe()
        failures = run_ops(ops, probe, plain)
        probe.attach(plain)
        tracer = Tracer()
        tracer.install()
        probe = SpeedProbe()
        failures += run_ops(ops, probe, traced, tracer)
        probe.attach(traced)
        overhead = sum(s[4] / s[6] for s in traced) / sum(s[4] / s[6] for s in plain) - 1
        metrics, by_label = tracer.summary([op.label for op in ops], overhead)
        samples = plain + traced
        result = {"layers": metrics, "by_op": by_label, "absent": tracer.absent}
    else:
        samples, failures = [], []
        probe = SpeedProbe()
        for p in range(max(1, round(float(seconds) / wl.pass_s))):
            key = f"r{rep}p{p}"
            failures += run_ops(wl.pass_ops(key), probe, samples, pass_key=key)
        probe.attach(samples)
        result = {}
    result["samples"] = samples
    result["failures"] = warm_failures + failures
    result["setup_probe_s"] = setup_probe
    result["warmup_ops"] = len(warm)
    result["warmup_failed"] = len(warm_failures)
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
