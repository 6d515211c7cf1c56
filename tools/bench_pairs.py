"""Alternating parent/change runs of the benchmark, recorded as BENCH_*.json.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --workload train-default --seeds 2-11

For each seed it runs the unchanged ``perfbench/run.py --trace 0`` once in a
copy of the parent commit (extracted with ``git archive`` into a temporary
directory, which honours ``TMPDIR``) and once in this working tree, the side
that goes first alternating by seed. It writes
``BENCH_<parent>-<change>.json``: every result line with its machine
context, input and output digests (and per workload how many pairs wrote
the same outputs in the units both sides ran), then per end-to-end metric
each side's values, median and quartiles, how many pairs the change won
(ties count for neither) and how far the change's median is from the
parent's relative to the bound in ``BENCHMARK.json``. ``<change>`` is the
short commit id when the working tree is clean and ``worktree`` otherwise.

Before the pairs it runs the byte-identity check of
``tools/output_digests.py`` against the same parent and records its
digests, one per command-line output, and its ``equal`` flag under
``output_digests``.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; the result line plus the run's record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    )
    record = json.loads(
        (checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "result": json.loads(proc.stdout.strip().splitlines()[-1]),
        "context": record["context"],
        "inputs": record["inputs"],
        "outputs": [{"seed": u["seed"], "role": u["role"], **u["digests"]}
                    for u in record["units"]],
    }


def same_outputs(pair: dict) -> bool:
    """Whether every unit both sides ran (same seed and role; a faster side
    runs more timed units) wrote the same output digests."""
    def by_unit(side):
        return {(o["seed"], o["role"]): o for o in pair[side]["outputs"]}

    parent, change = by_unit("parent"), by_unit("change")
    return all(parent[k] == change[k] for k in parent.keys() & change.keys())


def summarize(pairs: list[dict], metric: dict) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    sides = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
             for side in ("parent", "change")}
    out = {side: {"values": v, "median": float(np.median(v)),
                  "quartiles": [float(q) for q in np.percentile(v, [25, 75])]}
           for side, v in sides.items()}
    wins = sum((c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
    parent, change = out["parent"], out["change"]
    worse = (parent["median"] - change["median"]) if higher else (change["median"] - parent["median"])
    out.update(
        unit=metric["unit"], better=metric["better"], bound=metric["bound"],
        wins=int(wins), pairs=len(pairs),
        median_gap_over_parent_iqr=abs(change["median"] - parent["median"])
        / max(parent["quartiles"][1] - parent["quartiles"][0], 1e-300),
        relative_worsening=worse / abs(parent["median"]),
    )
    return out


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload; repeat for several")
    parser.add_argument("--seeds", default="2-11", help="'2-11' or '2,3,5' (default 2-11)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    parent = git("rev-parse", args.parent)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    change = "worktree" if dirty else git("rev-parse", "--short", "HEAD")
    out_path = ROOT / f"BENCH_{parent[:7]}-{change}.json"
    report = {"parent": parent, "change": change, "head": git("rev-parse", "HEAD"),
              "command": bench["command"] + ["--trace", "0"], "seconds": bench["run_seconds"],
              "seeds": seeds, "workloads": {}}
    from output_digests import digests  # it imports this module

    try:
        report["output_digests"] = digests(parent)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"output digests equal: {report['output_digests']['equal']}", flush=True)
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        extract(parent, parent_dir)
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    try:
                        pair[side] = run_once(parent_dir if side == "parent" else ROOT,
                                              workload, seed, bench["run_seconds"])
                    except subprocess.CalledProcessError as exc:
                        print(f"{side} run failed (exit {exc.returncode}): workload {workload}, "
                              f"seed {seed}\n{exc.stderr}", file=sys.stderr)
                        return 1
                pairs.append(pair)
                print(workload, seed, *(f"{s}={pair[s]['result']['metrics']}" for s in order),
                      flush=True)
            report["workloads"][workload] = {
                "pairs_with_equal_outputs": sum(map(same_outputs, pairs)),
                "pairs": pairs,
                "summary": {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]},
            }
            out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
