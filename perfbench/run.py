"""asterhover benchmark: one command, three workloads, per-layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload eval-baseline --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, a table each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. The lines
before it, and ``.bench_out/<workload>-seed<N>-trace<T>.json``, hold the
machine context, input and output digests and sample counts. See README.md
in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread: every matrix here is small, and a second thread would
# compete with the workload for the same cores. Children inherit this.
BLAS_THREADS = 1
THREAD_ENV = {var: str(BLAS_THREADS)
              for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
RUN_BUDGET_S = 170.0  # whole invocation, kept under the 180 s limit

# The result line's end-to-end metrics (name -> unit), as BENCHMARK.json
# lists them. The report also prints train_batch_s or eval_episodes_per_s,
# ops_failed_ratio, the raw rate and the speed scale.
END_TO_END = {
    "setup_s": "s",
    "env_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``workloads.py`` to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(timeout, 1.0), check=True,
        )
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr)
        raise


def measure_setup_s(common: list[str], repeats: int, deadline: float) -> list[float]:
    """Process start to first episode in fresh interpreters, in reference
    seconds: each sample is scaled by calibration passes around it."""
    import calibration

    samples = []
    for _ in range(repeats):
        _, before = calibration.reference_pass()
        launched = time.monotonic()
        proc = _child(["setup", *common], deadline - time.monotonic())
        stamp = json.loads(proc.stdout.strip().splitlines()[-1])["first_episode_monotonic"]
        scale = calibration.speed_scale([before, calibration.reference_pass()[1]])
        samples.append((stamp - launched) * scale)
    return samples


def context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads_requested": BLAS_THREADS,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Prepare inputs, time set-up, run the workload child; returns the record."""
    import workloads

    deadline = time.monotonic() + RUN_BUDGET_S
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        digests = workloads.prepare_inputs(workload, seed, workloads.SIZES[size], inputs)
        common = ["--workload", workload, "--inputs", str(inputs), "--seed", str(seed),
                  "--size", size, "--work", str(work / "run")]
        setup = []
        if not trace:
            setup = measure_setup_s(common, workloads.SIZES[size].setup_repeats, deadline)
        result_file = work / "result.json"
        _child(["run", *common, "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(result_file)], deadline - time.monotonic())
        record = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy as np

    record["context"].update(context(), numpy=np.__version__, seed=seed, workload=workload,
                             seconds=seconds, trace=trace, size=size)
    record["inputs"] = digests
    if not trace:
        record["end_to_end"]["setup_s"] = {
            "value": statistics.median(setup), "unit": "s", "samples": len(setup)
        }
        record["setup_samples_s"] = setup
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}
        ))
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def report_lines(record: dict) -> list[str]:
    ctx = record["context"]
    lines = [
        f"perfbench {ctx['workload']} seed={ctx['seed']} trace={ctx['trace']} size={ctx['size']}",
        f"  machine: nproc={ctx['nproc']} usable={ctx['cpus_usable']} python={ctx['python']} "
        f"numpy={ctx['numpy']} blas={ctx['blas']} {ctx['blas_version']} "
        f"blas_threads={ctx['blas_threads']}",
    ]
    for name, digest in record["inputs"].items():
        lines.append(f"  input  {name} sha256={digest}")
    for unit in record["units"]:
        outputs = " ".join(f"{k}={v[:16]}" for k, v in unit["digests"].items())
        status = "ok" if unit["error"] is None else "FAILED"
        lines.append(f"  unit   seed={unit['seed']} {unit['role']:<9} "
                     f"{unit['wall_s']:7.2f} s {status} {outputs}")
        if unit["error"]:
            lines.extend("    " + line for line in unit["error"].splitlines())
    for name, m in {**record["end_to_end"], **record["per_layer"]}.items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    lines.append(f"  ops: {record['failed']} failed of {record['attempted']} attempted")
    lines.extend(f"  CHECK FAILED: {c}" for c in record["checks"])
    if not record["checks"]:
        lines.append("  checks: outputs finite, repeats byte-identical")
    return lines


def result_line(record: dict, trace: int) -> dict:
    """The contract's last line; metric values keep all their digits."""
    source = record["per_layer"] if trace else record["end_to_end"]
    names = {n: m["unit"] for n, m in source.items()} if trace else END_TO_END
    return {
        "correct": not record["checks"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": source[n]["value"], "unit": u} for n, u in names.items()},
    }


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave no caches in the checkout
    os.environ.update(THREAD_ENV, PYTHONDONTWRITEBYTECODE="1")  # before numpy is imported
    import workloads

    parser = argparse.ArgumentParser(description="asterhover benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'minimal' is the self-test size, not a benchmark")
    args = parser.parse_args(argv)

    workloads.import_package()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        print("\n".join(report_lines(record)), flush=True)
    if args.workload != "all":
        print(json.dumps(result_line(record, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
