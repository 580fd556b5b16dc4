"""Self-check of the benchmark: every workload at tiny sizes, traced and untraced.

Run from the repository root:

    python3 -m pytest -q perfbench/test_selfcheck.py

It checks that each run prints every metric BENCHMARK.json names with its
unit, that the traced and untraced runs of a seed agree on operation counts
and behaviour fingerprints, and that the benchmark refuses to run without the
package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
HEADER_KEYS = {"workload", "seed", "src_lines", "git_rev", "numpy", "blas", "blas_threads",
               "nproc"}


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def records(proc):
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    found = {key: line[key] for line in lines[:-1] for key in line}
    return found, lines[-1]


def check_result(result, kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    plain_records, plain = records(run_bench(workload, 0))
    traced_records, traced = records(run_bench(workload, 1))
    check_result(plain, "end_to_end")
    check_result(traced, "per_layer")
    for found in (plain_records, traced_records):
        assert HEADER_KEYS <= set(found["header"])
        assert found["header"]["workload"] == workload
    assert plain["attempted"] == traced["attempted"]
    assert plain_records["behaviour"]["fingerprint"] == traced_records["behaviour"]["fingerprint"]
    assert (ROOT / traced_records["spans"]).is_file()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
