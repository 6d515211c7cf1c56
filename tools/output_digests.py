"""Byte-identity check of the command line's outputs, parent commit against
this working tree.

Run from the repository root:

    python3 tools/output_digests.py --parent HEAD

It extracts the parent with ``bench_pairs.extract`` into a temporary
directory (which honours ``TMPDIR``) and runs the same ``asterhover``
commands there and in this working tree. The inputs are written once and
shared by both sides: the checkpoint of the parent's ``train`` run (read by
``eval`` and ``simulate``) and the peanut bodies of
``tests/geometry_reference.py`` at subdivision levels 2 and 5, as OBJ files.
Every command runs with one BLAS thread, as the benchmark does, since the
threaded BLAS rounds the network products differently. The eval runs fly
serially (``--workers 1``) except two, which deal their episodes to forked
helpers (``--workers 2``): one over the level-5 peanut, and one stochastic,
so that per-episode action streams are checked across processes. One eval
run is ``eval --all`` over the level-2 peanut, all 14 scenarios in one run.
It prints one JSON object with the sha256 of every output on each side and
exits 1 when any output differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract, git

EPISODES = "4"
ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# (run name, command line, files it writes); {ck} and {peanutN} name the
# shared inputs.
EVAL_ANY_WORKERS = ["eval", "--checkpoint", "{ck}", "--episodes", EPISODES, "--seed", "1"]
EVAL = EVAL_ANY_WORKERS + ["--workers", "1"]
EVAL_FILES = ("episodes.csv", "summary.csv")
RUNS = [
    ("train", ["train", "--seed", "1", "--batches", "1"], ("metrics.csv", "checkpoint_000001.npz")),
    ("train-facets-1280",
     ["train", "--seed", "1", "--batches", "1", "episode.asteroid.subdivision_level=3"],
     ("metrics.csv",)),
    ("eval-baseline", EVAL + ["--scenario", "baseline"], EVAL_FILES),
    ("eval-baseline-stochastic", EVAL + ["--scenario", "baseline", "--stochastic"], EVAL_FILES),
    *((f"eval-{name}", EVAL + ["--scenario", name], EVAL_FILES)
      for name in ("sensor-noise", "com-variation", "actuator-fail-0.5", "facets-1280")),
    *((f"eval-itokawa3x-peanut{level}",
       EVAL + ["--scenario", "itokawa3x", "--mesh-file", f"{{peanut{level}}}"], EVAL_FILES)
      for level in (2, 5)),
    ("eval-baseline-stochastic-workers2",
     EVAL_ANY_WORKERS + ["--workers", "2", "--scenario", "baseline", "--stochastic"], EVAL_FILES),
    ("eval-itokawa3x-peanut5-workers2",
     EVAL_ANY_WORKERS + ["--workers", "2", "--scenario", "itokawa3x", "--mesh-file", "{peanut5}"],
     EVAL_FILES),
    ("eval-all-peanut2", EVAL + ["--all", "--mesh-file", "{peanut2}"],
     ("summary.csv", "baseline/episodes.csv", "itokawa3x/episodes.csv")),
    ("simulate-drift", ["simulate", "--seed", "1"], ("trajectory.csv",)),
    ("simulate-checkpoint", ["simulate", "--seed", "1", "--checkpoint", "{ck}"],
     ("trajectory.csv",)),
    ("simulate-itokawa3x-peanut5",
     ["simulate", "--seed", "1", "--scenario", "itokawa3x", "--mesh-file", "{peanut5}"],
     ("trajectory.csv",)),
    ("scan-debug", ["scan-debug", "--seed", "1"], ("scan.csv",)),
    ("scan-debug-peanut5", ["scan-debug", "--mesh", "{peanut5}", "--scale", "3"], ("scan.csv",)),
]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_peanuts(inputs: Path) -> dict[str, str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from asterhover.geometry import save_mesh
    from geometry_reference import make_peanut_mesh

    paths = {}
    for level in (2, 5):
        path = inputs / f"peanut{level}.obj"
        save_mesh(str(path), make_peanut_mesh(level=level))
        paths[f"peanut{level}"] = str(path)
    return paths


def run_cli(checkout: Path, args: list[str], out: Path) -> None:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "asterhover.cli", *args, "--out", str(out)],
        cwd=out.parent, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed in {checkout} "
                           f"(exit {proc.returncode}):\n{proc.stderr}")


def digests(parent: str) -> dict:
    """The sha256 of every output of RUNS on the `parent` commit and on this
    working tree, with per output and overall whether they are equal.
    Raises RuntimeError when a command fails."""
    report = {"parent": parent, "inputs": {}, "outputs": {}}
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        tmp = Path(tmp)
        sides = {"parent": tmp / "parent", "change": ROOT}
        extract(parent, sides["parent"])
        inputs = tmp / "inputs"
        inputs.mkdir()
        names = write_peanuts(inputs)
        for run, cli_args, files in RUNS:
            side_digests = {}
            for side, checkout in sides.items():
                out = tmp / "out" / side / run
                out.parent.mkdir(parents=True, exist_ok=True)
                run_cli(checkout, [a.format(**names) for a in cli_args], out)
                side_digests[side] = {f: sha256_file(out / f) for f in files}
            if run == "train":
                ck = inputs / "checkpoint.npz"
                shutil.copyfile(tmp / "out" / "parent" / run / files[1], ck)
                names["ck"] = str(ck)
            for f in files:
                p, c = side_digests["parent"][f], side_digests["change"][f]
                report["outputs"][f"{run}/{f}"] = {"parent": p, "change": c, "equal": p == c}
        report["inputs"] = {Path(p).name: sha256_file(Path(p)) for p in names.values()}
    report["equal"] = all(o["equal"] for o in report["outputs"].values())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    args = parser.parse_args(argv)
    try:
        report = digests(git("rev-parse", args.parent))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1))
    return 0 if report["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
