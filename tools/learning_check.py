"""Learning check of a change to the update, parent commit against this
change.

Run from the repository root:

    python3 tools/learning_check.py --parent HEAD --seeds 1-5

It runs the same training in both checkouts of ``bench_pairs.checkouts``,
the side that goes first alternating by seed:

- ``train --seed S --batches 1`` for each of ``--seeds``: the batch's
  ``policy_epochs``, ``kl``, ``clip_fraction`` and ``value_loss`` from
  ``metrics.csv``, and that file's sha256;
- acceptance criterion 10's ``reduced_curriculum`` (from each side's own
  ``tests/test_acceptance.py``) at seeds 13, 14 and 15: the mean terminal
  position error of the last 10 batches over the first batch's, the
  smallest step of the 20-batch moving average of the mean reward, whether
  both pass the criterion's bounds, and the wall time of ``ppo.train``.

It prints one JSON object on one line, each seed's values side by side.
The curriculum runs take about 40 s each per side on one core.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from bench_pairs import SIDES, alternating, change_commit, checkouts, git, parse_seeds, run_python
from output_digests import sha256_file

CURRICULUM_SEEDS = (13, 14, 15)
TRAIN_FIELDS = ("policy_epochs", "kl", "clip_fraction", "value_loss")

# Runs criterion 10's reduced curriculum in the checkout on sys.path; prints
# the wall time of ppo.train. argv: out_dir, seed.
CURRICULUM = """
import sys, time
from asterhover import ppo
from test_acceptance import reduced_curriculum
cfg = reduced_curriculum(sys.argv[1], seed=int(sys.argv[2]))
start = time.perf_counter()
ppo.train(cfg)
print(time.perf_counter() - start)
"""


def metrics_columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [float(row[name]) for row in rows] for name in rows[0]}


def train_one_batch(checkout: Path, seed: int, out: Path) -> dict:
    run_python(checkout, ["-m", "asterhover.cli", "train", "--seed", str(seed), "--batches", "1",
                          "--out", str(out)], out.parent)
    cols = metrics_columns(out / "metrics.csv")
    return {**{name: cols[name][0] for name in TRAIN_FIELDS},
            "metrics_sha256": sha256_file(out / "metrics.csv")}


def curriculum_stats(pos_err: list[float], reward: list[float]) -> dict:
    """Criterion 10's two measures of a run's per-batch mean terminal
    position error and mean reward, and whether both pass its bounds."""
    ratio = sum(pos_err[-10:]) / len(pos_err[-10:]) / pos_err[0]
    ma = [sum(reward[i:i + 20]) / 20.0 for i in range(len(reward) - 19)]
    min_step = min((b - a for a, b in zip(ma, ma[1:])), default=0.0)
    return {"final_over_untrained": ratio, "min_ma_step": min_step,
            "passes": ratio <= 0.5 and min_step >= -1.0e-9}


def curriculum(checkout: Path, seed: int, out: Path) -> dict:
    wall = float(run_python(checkout, ["-c", CURRICULUM, str(out), str(seed)], out.parent,
                            paths=("src", "tests")))
    cols = metrics_columns(out / "metrics.csv")
    return {**curriculum_stats(cols["mean_term_pos_err"], cols["mean_reward"]), "wall_s": wall}


def check(parent: str, seeds: list[int]) -> dict:
    report = {"parent": parent, "train": {}, "reduced_curriculum": {}}
    with checkouts(parent, change_commit(), "learning-check-") as tmp:
        for kind, fn, kind_seeds in (("train", train_one_batch, seeds),
                                     ("reduced_curriculum", curriculum, CURRICULUM_SEEDS)):
            for seed, order in alternating(kind_seeds):
                row = {}
                for side in order:
                    out = tmp / "out" / kind / f"{side}-{seed}"
                    out.parent.mkdir(parents=True, exist_ok=True)
                    row[side] = fn(tmp / side, seed, out)
                report[kind][str(seed)] = {side: row[side] for side in SIDES}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--seeds", default="1-5", help="'1-5' or '1,3' (default 1-5)")
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
