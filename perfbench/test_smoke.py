"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the root of the checkout:

    python -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and twice traced; a traced run also runs
ops at a second thread count. The runs must emit exactly the metrics
BENCHMARK.json names, give one result digest per plan entry across all of
them (both thread counts, traced and untraced), and repeat every counter
exactly.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def result_and_record(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    threads = json.loads(env_line)["env"]["FIRST_THREADS"]
    stem = f"{workload}-tiny-s{SEED}-t{trace}-j{threads}"
    record = json.loads((ROOT / ".perfbench" / "runs" / f"{stem}.json").read_text())
    return result, record


def check_metrics(result, expected):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def digests(record):
    return {(op["entry"], op["digest"]) for op in record["ops"]}


def counters(record):
    return {op["entry"]: (op["profile"]["calls"], op["profile"]["counts"])
            for op in record["ops"] if "profile" in op}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    plain, plain_record = result_and_record(workload, 0)
    check_metrics(plain, SPEC["end_to_end"])
    traced, traced_record = result_and_record(workload, 1)
    check_metrics(traced, SPEC["per_layer"])
    again, again_record = result_and_record(workload, 1)

    # One digest per plan entry, across thread counts, tracing and runs.
    all_digests = digests(plain_record) | digests(traced_record) | digests(again_record)
    assert len(all_digests) == len(plain_record["manifest"]["entries"])
    phases = {op["phase"] for op in traced_record["ops"]}
    assert "traced" in phases and "untraced" in phases
    if len(os.sched_getaffinity(0)) > 1:
        assert len({op["threads"] for op in traced_record["ops"]}) >= 2

    first, second = counters(traced_record), counters(again_record)
    common = first.keys() & second.keys()
    assert common and all(first[e] == second[e] for e in common)
    for m in SPEC["per_layer"]:
        if m["unit"] == "count":
            assert traced["metrics"][m["name"]] == again["metrics"][m["name"]]


def test_fails_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
