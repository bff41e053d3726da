"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/test_bench.py
"""

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dendrodyn import io as dio  # noqa: E402
from dendrodyn.fixtures import star_dendrite  # noqa: E402


def test_a_wrong_digest_fails_the_run(tmp_path):
    """One mutated golden digest: failed_frac > 0 and a non-zero exit."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    golden_path = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    code, digest = golden["rotation-6 recurrence"]
    golden["rotation-6 recurrence"] = [code, "0" * len(digest)]
    golden_path.write_text(json.dumps(golden))

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analysis", "--seed", "1",
         "--seconds", "0.3", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    details = json.loads(details_line)["details"]
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert details["failed_frac"] > 0
    assert any("recurrence:rotation-6" in f for f in details["failures"])


def test_a_wrong_verdict_is_caught():
    op = workloads.finite_order_op(random.Random(5))
    f, verdict = op.run()
    assert op.check((f, verdict)) is None
    wrong = replace(verdict, identity_power=verdict.identity_power + 1)
    assert op.check((f, wrong)) is not None


def test_run_outside_a_checkout_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_star_json_matches_the_fixture():
    for k in (2, 3, 7):
        assert workloads.star_json(k) == dio.tree_to_json(star_dendrite(k))


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == tracer.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(1, 20)))[0] == 50
    assert run.tail(list(range(1, 101)))[0] == 90
    assert run.tail(list(range(1, 1001))) == (99, 990)
