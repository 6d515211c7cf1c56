"""Where a training batch raises peak memory, parent commit against this
working tree.

Run from the repository root:

    python3 tools/memory_phases.py --parent HEAD --seeds 2-5

It extracts the parent with ``bench_pairs.extract`` into a temporary
directory (which honours ``TMPDIR``). For each of ``--seeds`` it trains one
batch on each side, the side that goes first alternating by seed, each run
in a fresh process with one BLAS thread. A run reads the process's peak
resident set (``ru_maxrss``) once the package is imported, then around every
call of the phases in PHASES. A process starts with the peak of the one
that started it (this tool has numpy loaded), so each run is forked by a
shell, whose own peak is a few MB. It reports, in MB of 1024 KB as the
benchmark's ``peak_rss_mb``:

- ``import_mb``: the peak after import;
- ``rise_mb``: per phase, how far the peak rose inside its calls, summed
  over them (a peak only rises, so each MB is counted in the phase that
  set it). ``value_minibatch_step`` shows a rise only when the update runs
  in one process: with two, the critic's steps run in the update's helper,
  and the parent calls it only to replay the steps of an aborted epoch;
- ``other_mb``: the rise outside those phases;
- ``peak_mb``: the peak at the end of the run;
- ``helper_peak_mb``: the largest peak of the helpers the run forked, the
  collection helpers and the update's critic helper (``RUSAGE_CHILDREN``;
  0 when it forked none), so that memory which moves into a helper stays
  in view.

Trailing ``KEY=VALUE`` arguments override the training config on both
sides, as ``train`` takes them (default: the default config). It prints
one JSON object on one line, each seed's values side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract, git, parse_seeds
from output_digests import ONE_THREAD

PHASES = ("collect_rollouts", "compute_advantages", "policy_minibatch_step",
          "value_minibatch_step", "measure_kl")

# Trains one batch in the checkout on sys.path and prints its peaks as JSON.
# argv: out_dir, seed, then KEY=VALUE overrides.
RUN = """
import functools, json, resource, sys
from asterhover import config, ppo

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

start = peak_mb()
rise = {name: 0.0 for name in %r}

def measured(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = peak_mb()
        try:
            return fn(*args, **kwargs)
        finally:
            rise[name] += peak_mb() - before
    return wrapper

for name in rise:
    setattr(ppo, name, measured(name, getattr(ppo, name)))
cfg = ppo.TrainConfig(seed=int(sys.argv[2]), batches=1, out_dir=sys.argv[1])
config.apply_to_dataclass(cfg, config.parse_overrides(sys.argv[3:]))
ppo.train(cfg)
end = peak_mb()
helpers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print(json.dumps({"import_mb": start, "rise_mb": rise,
                  "other_mb": end - start - sum(rise.values()), "peak_mb": end,
                  "helper_peak_mb": helpers}))
""" % (PHASES,)


def run(checkout: Path, seed: int, out: Path, overrides: list[str]) -> dict:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    # the shell forks the run rather than exec it, as a command followed by
    # another; the run then starts from the shell's peak, not this tool's
    proc = subprocess.run(["sh", "-c", '"$@"; exit $?', "sh",
                           sys.executable, "-c", RUN, str(out), str(seed), *overrides],
                          cwd=out.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} failed in {checkout} "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(parent: str, seeds: list[int], overrides: list[str]) -> dict:
    report = {"parent": parent, "overrides": overrides, "seeds": {}}
    with tempfile.TemporaryDirectory(prefix="memory-phases-") as tmp:
        tmp = Path(tmp)
        sides = {"parent": tmp / "parent", "change": ROOT}
        extract(parent, sides["parent"])
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            row = {}
            for side in order:
                out = tmp / "out" / f"{side}-{seed}"
                out.parent.mkdir(parents=True, exist_ok=True)
                row[side] = run(sides[side], seed, out, overrides)
            report["seeds"][str(seed)] = {side: row[side] for side in sides}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--seeds", default="2-5", help="'2-5' or '2,4' (default 2-5)")
    parser.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                        help="training config overrides, e.g. ppo.episodes_per_batch=2")
    args = parser.parse_args(argv)
    try:
        report = check(git("rev-parse", args.parent), parse_seeds(args.seeds), args.overrides)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
