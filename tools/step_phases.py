"""Where one evaluation lane's control step spends its time, parent commit
against this change.

Run from the repository root:

    python3 tools/step_phases.py --parent HEAD --seeds 2-5

For each of ``--seeds`` it runs UNITS ``eval-baseline`` units in each
checkout of ``bench_pairs.checkouts``, the side that goes first
alternating by seed, each run in a fresh process. A unit is one serial
``run_monte_carlo`` call of EPISODES greedy drift episodes over fresh
320-facet bodies, with the checkpoint and unit seeds that
``perfbench/workloads.py`` makes for that workload (its functions are
imported from the side's own checkout). Every episode flies as one lane,
so each control step makes one call of each of ``PolicyNetwork.step`` and
``HoverEnv.step``, which runs ``rk4_step``, the cast (``LaneCast.cast``)
and the observation (``HoverEnv._observe``) once each.

A run wraps the functions in PHASES with ``perf_counter`` stamps. A call
counts only when no other phase is running, so the casts that
``HoverEnv.reset`` makes count as reset time, not cast time. It reports,
per phase, the number of calls, the median call in microseconds and the
phase's share of the units' wall time; ``rest`` is the share outside every
phase: the rollout loop, ``HoverEnv.step`` around its phases, the scans
around the cast, and the reports. A phase whose function a checkout lacks
(an older side's name for it) is listed under ``missing`` and reads 0
calls. It also reports the units' steps and steps per second. It prints
one JSON object on one line: each seed's runs side by side, then per side
the median over seeds of every figure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, alternating, change_commit, checkouts, git, parse_seeds, run_python

UNITS = 6
EPISODES = 10
# (name, module, attribute path): the module is imported from the package
PHASES = (
    ("rk4_step", "env", "rk4_step"),
    ("cast", "lidar", "LaneCast.cast"),
    ("policy_step", "nn", "PolicyNetwork.step"),
    ("observe", "env", "HoverEnv._observe"),
    ("reset", "env", "HoverEnv.reset"),
)

# Flies the units in the checkout on sys.path and prints the phase times as
# JSON. argv: checkout, work directory, seed, units, episodes, phases (JSON).
RUN = r"""
import functools, importlib, json, statistics, sys, time
from pathlib import Path

checkout, work, seed, units, episodes = sys.argv[1], Path(sys.argv[2]), *map(int, sys.argv[3:6])
sys.path.insert(0, checkout + "/perfbench")
import workloads
from asterhover import evaluation

calls, active, missing = {}, [False], []

def timed(name, fn):
    spent = calls[name] = []
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if active[0]:  # inside another phase: that phase's time
            return fn(*args, **kwargs)
        active[0] = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - start)
            active[0] = False
    return wrapper

for name, module, path in json.loads(sys.argv[6]):
    owner = importlib.import_module("asterhover." + module)
    *outer, attr = path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, timed(name, getattr(owner, attr)))
    except AttributeError:
        missing.append(name)
        calls[name] = []

sizes = workloads.dataclasses.replace(workloads.SIZES["full"], baseline_chunk=episodes)
workloads.prepare_inputs("eval-baseline", seed, sizes, work / "inputs")
kwargs = workloads.eval_args("eval-baseline", sizes, work / "inputs")
wall = steps = 0
for k in range(units):
    start = time.perf_counter()
    evaluation.run_monte_carlo(seed=workloads.unit_seed(seed, k), out_dir=str(work / f"unit{k}"),
                               **kwargs)
    wall += time.perf_counter() - start
    rows = (work / f"unit{k}" / "episodes.csv").read_text().splitlines()
    column = rows[0].split(",").index("steps")
    steps += sum(int(row.split(",")[column]) for row in rows[1:])
phases = {name: {"calls": len(spent), "median_us": statistics.median(spent) * 1e6 if spent else 0.0,
                 "share": sum(spent) / wall} for name, spent in calls.items()}
rest = 1.0 - sum(p["share"] for p in phases.values())
print(json.dumps({"steps": steps, "steps_per_s": steps / wall, "phases": phases, "rest_share": rest,
                  "missing": missing}))
"""


def run(checkout: Path, seed: int, work: Path, units: int = UNITS,
        episodes: int = EPISODES, phases=PHASES) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    stdout = run_python(checkout, ["-c", RUN, str(checkout), str(work), str(seed), str(units),
                                   str(episodes), json.dumps(phases)], work)
    return json.loads(stdout.strip().splitlines()[-1])


def medians(runs: list[dict]) -> dict:
    """The median over `runs` of each figure of a run."""
    def med(values):
        return float(np.median(values))

    return {
        "steps_per_s": med([r["steps_per_s"] for r in runs]),
        "phases": {name: {key: med([r["phases"][name][key] for r in runs])
                          for key in ("median_us", "share")}
                   for name in runs[0]["phases"]},
        "rest_share": med([r["rest_share"] for r in runs]),
        "missing": sorted({name for r in runs for name in r["missing"]}),
    }


def check(parent: str, seeds: list[int]) -> dict:
    report = {"parent": parent, "units": UNITS, "episodes": EPISODES, "seeds": {}}
    with checkouts(parent, change_commit(), "step-phases-") as tmp:
        for seed, order in alternating(seeds):
            row = {side: run(tmp / side, seed, tmp / "out" / f"{side}-{seed}") for side in order}
            report["seeds"][str(seed)] = {side: row[side] for side in SIDES}
    report["median"] = {side: medians([row[side] for row in report["seeds"].values()])
                        for side in SIDES}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--seeds", default="2-5", help="'2-5' or '2,4' (default 2-5)")
    args = parser.parse_args(argv)
    try:
        report = check(git("rev-parse", args.parent), parse_seeds(args.seeds))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
