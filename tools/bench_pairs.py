"""Alternating parent/change runs of the benchmark, recorded as BENCH_*.json,
and the A/B harness of every tool here.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --workload train-default --seeds 2-11

For each seed it runs the unchanged ``perfbench/run.py --trace 0`` once in
each of the two checkouts that ``checkouts`` extracts, the side that goes
first alternating by seed. It writes
``BENCH_<parent>-<change>.json``: every result line with its machine
context, input and output digests (and per workload how many pairs wrote
the same outputs in the units both sides ran), then per end-to-end metric
each side's values, median and quartiles, how many pairs the change won
(ties count for neither) and how far the change's median is from the
parent's relative to the bound in ``BENCHMARK.json``. ``<change>`` is the
short commit id when the working tree is clean and ``worktree`` otherwise;
the record names the commit that ran under ``change_commit``. Each
distinct unit output (seed, role and the digest of each output file, named
by ``output_columns``) is written once per workload, as a row of its
``outputs``, and each side of a pair lists its units as indices into those
rows; the record has one value per line, unindented.

Before the pairs it runs the byte-identity check of
``tools/output_digests.py`` on the same two checkouts and records its
digests, one per command-line output, and its ``equal`` flag under
``output_digests``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def change_commit() -> str:
    """The commit of the working tree's tracked files: the one ``git stash
    create`` makes, which leaves the tree and the stash list as they were,
    or HEAD when they are clean."""
    return git("stash", "create") or git("rev-parse", "HEAD")


@contextlib.contextmanager
def checkouts(parent: str, change: str, prefix: str):
    """A temporary directory (which honours ``TMPDIR``) holding `parent`
    and `change` extracted side by side with ``git archive``, as its
    ``parent`` and ``change``; yields it and removes it on exit. Both sides
    are made the same way, so that a checkout's location cannot favour
    either."""
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        for side, rev in zip(SIDES, (parent, change)):
            tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
            with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
                archive.extractall(Path(tmp) / side, filter="data")
        yield Path(tmp)


def alternating(seeds: list[int]):
    """Each seed with the order its sides run in: the parent first at the
    first seed, the change first at the second, and so on."""
    for i, seed in enumerate(seeds):
        yield seed, SIDES if i % 2 == 0 else SIDES[::-1]


def run_python(checkout: Path, args: list[str], cwd: Path, paths=("src",)) -> str:
    """The stdout of ``python ARGS`` run in `cwd` with one BLAS thread and
    only `checkout`'s `paths` on ``PYTHONPATH``. A process starts with the
    peak resident set of the one that started it, so a shell forks the
    child (a command followed by another is not exec'd) and the child starts
    from the shell's few MB, not this tool's. The child writes no bytecode:
    the benchmark leaves no caches in a checkout, and caches that one
    tool's runs left changed a later benchmark run's speed (about 3% on
    ``eval-dense-mesh``, 6 of 6 pairs). Raises RuntimeError with the exit
    code and stderr when the child fails."""
    env = {**os.environ, **ONE_THREAD, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(str(checkout / path) for path in paths)}
    proc = subprocess.run(["sh", "-c", '"$@"; exit $?', "sh", sys.executable, *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        shown = args[2:] if args[0] == "-c" else args  # not the script itself
        raise RuntimeError(f"{' '.join(shown)} failed in {checkout} "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return proc.stdout


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


def pool_outputs(pairs: list[dict]) -> tuple[list[str], list[list]]:
    """The columns (seed, role, then each output file) and the rows of the
    distinct unit outputs of `pairs`, in order of first appearance; each
    side's ``outputs`` becomes indices into those rows."""
    names = {name for pair in pairs for side in SIDES
             for unit in pair[side]["outputs"] for name in unit}
    columns = ["seed", "role", *sorted(names - {"seed", "role"})]
    index: dict[tuple, int] = {}
    for pair in pairs:
        for side in SIDES:
            pair[side]["outputs"] = [
                index.setdefault(tuple(unit.get(c) for c in columns), len(index))
                for unit in pair[side]["outputs"]
            ]
    return columns, [list(row) for row in index]


def same_outputs(pair: dict, rows: list[list]) -> bool:
    """Whether every unit both sides ran (same seed and role; a faster side
    runs more timed units) wrote the same output digests; `rows` are the
    workload's unit outputs that the sides' indices point into."""
    def by_unit(side):
        return {tuple(rows[i][:2]): rows[i] for i in pair[side]["outputs"]}

    parent, change = by_unit("parent"), by_unit("change")
    return all(parent[k] == change[k] for k in parent.keys() & change.keys())


def summarize(pairs: list[dict], metric: dict) -> dict:
    name, higher = metric["name"], metric["better"] == "higher"
    sides = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
             for side in SIDES}
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
    commit = change_commit()
    out_path = ROOT / f"BENCH_{parent[:7]}-{change}.json"
    report = {"parent": parent, "change": change, "change_commit": commit,
              "head": git("rev-parse", "HEAD"),
              "command": bench["command"] + ["--trace", "0"], "seconds": bench["run_seconds"],
              "seeds": seeds, "workloads": {}}
    from output_digests import digests  # it imports this module

    with checkouts(parent, commit, "bench-pairs-") as tmp:
        try:
            report["output_digests"] = digests(parent, tmp)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"output digests equal: {report['output_digests']['equal']}", flush=True)
        out_path.write_text(json.dumps(report, indent=0) + "\n")
        for workload in args.workload:
            pairs = []
            for seed, order in alternating(seeds):
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    try:
                        pair[side] = run_once(tmp / side, workload, seed, bench["run_seconds"])
                    except subprocess.CalledProcessError as exc:
                        print(f"{side} run failed (exit {exc.returncode}): workload {workload}, "
                              f"seed {seed}\n{exc.stderr}", file=sys.stderr)
                        return 1
                pairs.append(pair)
                print(workload, seed, *(f"{s}={pair[s]['result']['metrics']}" for s in order),
                      flush=True)
            columns, rows = pool_outputs(pairs)
            report["workloads"][workload] = {
                "pairs_with_equal_outputs": sum(same_outputs(p, rows) for p in pairs),
                "output_columns": columns,
                "outputs": rows,
                "pairs": pairs,
                "summary": {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]},
            }
            out_path.write_text(json.dumps(report, indent=0) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
