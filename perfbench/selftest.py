"""Seconds-scale self-test of the benchmark: every workload at minimal size.

    python3 perfbench/selftest.py

Runs ``run.py --size minimal`` for each workload with tracing off and on,
and checks the result line against BENCHMARK.json: exactly the contract's
keys, ``correct`` true, no failed operation, every listed metric present
with its unit and a finite value. It then checks that the command fails,
without printing a result, in a copy holding only BENCHMARK.json and this
directory. Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-default", "eval-baseline", "eval-dense-mesh")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--size", "minimal"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def expect(condition: bool, message) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_result(stdout: str, expected: dict) -> None:
    result = json.loads(stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(result["correct"] is True, stdout)
    expect(result["failed"] == 0 and result["attempted"] >= 1, result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == expected, f"metrics differ from BENCHMARK.json: {set(got) ^ set(expected)}")
    for name, m in result["metrics"].items():
        expect(set(m) == {"value", "unit"} and math.isfinite(m["value"]), (name, m))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), spec["workloads"])
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            proc = run(ROOT, workload, trace)
            expect(proc.returncode == 0, proc.stderr)
            check_result(proc.stdout, expected)
            print(f"ok  {workload} --trace {trace}", flush=True)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(bare), WORKLOADS[0], 0)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout)
        print("ok  fails without the package source", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
