"""Smoke test of the benchmark on tiny families.

Every metric BENCHMARK.json names is printed with its unit, in the
end-to-end and in the traced run of each workload, and the near-miss
families of the verify and pipeline workloads are rejected.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)
import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    # a process of its own, as the benchmark runs: set-up re-imports
    # the package, which must not disturb the modules of this process
    argv = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    printed = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0
    assert printed["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == named
    assert all(isinstance(v["value"], (int, float)) for v in printed["metrics"].values())


def test_near_misses_rejected(tmp_path):
    verify = workloads.verify(5, "tiny")
    near = [op for op in verify.ops if "near-miss" in op.name]
    assert len(near) == len(verify.ops) // 2
    for op in near:
        assert op.run(op.fresh()).ok is False, op.name

    pipeline = workloads.pipeline(5, "tiny", str(tmp_path / "work"))
    try:
        (op,) = [op for op in pipeline.ops if "near-miss" in op.name]
        code, _, _ = op.run(None)
        assert code == 1
    finally:
        pipeline.close()
