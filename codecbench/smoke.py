"""Smoke self-test for the codec benchmark.

Run from the repository root (about three minutes for all workloads):

    python3 codecbench/smoke.py [workload ...]

For each workload it makes one short untraced and one short traced run with
the same seed, and checks that:
- the last stdout line has exactly the keys the contract names, reports
  no failed op, and carries exactly the metrics BENCHMARK.json lists, with
  the same units;
- container fingerprints and every exact count agree between the two runs.
Then it checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".codecbench"
SEED = 7


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "codecbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(stdout: str, expected: dict) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected, f"metrics {units} != BENCHMARK.json {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    return result


def check_workload(workload: str, spec: dict):
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    details = []
    for trace, expected in ((0, end_to_end), (1, layers)):
        proc = run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = check_result(proc.stdout, expected)
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values()), result
        path = OUT_DIR / f"{workload}-seed{SEED}-trace{trace}.json"
        details.append(json.loads(path.read_text()))
    untraced, traced = details
    assert untraced["cases"] == traced["cases"], "container fingerprints differ"
    assert untraced["counts"] == traced["counts"], "exact counts differ"
    assert untraced["bench_csv_sha256"] == traced["bench_csv_sha256"], "bench CSV differs"
    passes = traced["result"]["metrics"]["codec.symbol_passes_per_row"]["value"]
    print(f"ok {workload}: symbol passes per CSV row {passes}")


def check_bare_directory():
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "bench-thumbs", 0)
    assert proc.returncode != 0, "benchmark succeeded without the hjpeg sources"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok bare directory: exit", proc.returncode)


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in argv or workloads.NAMES:
        check_workload(workload, spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
