"""Smoke test of the benchmark: the smallest rung of every workload, traced
and untraced, and one corrupted output per workload.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

BENCHED = [w["name"] for w in SPEC["workloads"]]
# per workload, a ladder of each kernel group whose oracle compares
# exactly, so adding one to the first rational of its output fails the job
CORRUPT = {"kernels": ["line.boolop.intersect", "plane.pc_normalize",
                       "families.fiber"],
           "small-docs": ["ray_island"]}


def measure(workload, trace, corrupt=()):
    lines = []
    args = argparse.Namespace(workload=workload, seed=7, seconds=0,
                              trace=trace)
    result = run.measure(args, smoke=True, corrupt=corrupt, setups=1,
                         emit=lines.append)
    return result, lines


def test_spec_matches_benchmark():
    assert set(BENCHED) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", BENCHED)
def test_every_metric_is_printed(workload, trace):
    result, lines = measure(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert names | {"failed_ratio"} <= printed
    assert any(line.startswith("provenance ") for line in lines)


@pytest.mark.parametrize("workload", BENCHED)
def test_corrupted_output_fails(workload):
    result, lines = measure(workload, 0, corrupt=CORRUPT[workload])
    assert result["failed"] == len(CORRUPT[workload])
    assert not result["correct"]
    ratio = next(line for line in lines
                 if line.startswith("metric failed_ratio "))
    assert float(ratio.split()[2]) > 0


def test_traced_counts_repeat():
    counts = [name for name, unit in run.per_layer_units().items()
              if unit in ("count", "bytes", "bits")]
    first, _ = measure("kernels", 1)
    second, _ = measure("kernels", 1)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["intervals.intersect.calls"]["value"] > 0
    assert first["metrics"]["cli.main.self_s"]["value"] > 0


def test_malformed_output_fails_the_job(tmp_path):
    job = workloads._isolate_job(4, workloads.isolatable(random.Random(1), 4))
    out = tmp_path / "out.json"
    out.write_text('{"version": "1", "objects": '
                   '{"result": {"type": "isolation"}}}')
    job.paths = ("", str(out))
    runner = run.Runner(None, str(tmp_path))
    runner._verify(job, 0)
    assert runner.failed == 1
