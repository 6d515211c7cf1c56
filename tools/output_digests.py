"""Byte-identity check of the command line's outputs, parent commit against
this change.

Run from the repository root:

    python3 tools/output_digests.py --parent HEAD

It runs the same ``asterhover`` commands in both checkouts of
``bench_pairs.checkouts``. The inputs are written once and shared by both
sides: the checkpoint of the parent's ``train`` run (read by ``eval`` and
``simulate``) and the peanut bodies of the change's
``tests/geometry_reference.py`` at subdivision levels 2 and 5, as OBJ
files. The eval runs fly serially (``--workers 1``) except two, which deal
their episodes to forked helpers (``--workers 2``): one over the level-5
peanut, and one stochastic, so that per-episode action streams are checked
across processes. One eval run is ``eval --all`` over the level-2 peanut,
all 14 scenarios in one run.
It prints one JSON object with the sha256 of every output on each side and
exits 1 when any output differs. For an ``.npz`` output that differs it
also says whether every array is byte-equal and which keys of the
archive's ``__meta__`` JSON differ, so that a metadata change reads apart
from an array change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, change_commit, checkouts, git, run_python

EPISODES = "4"

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


def flat_keys(meta: dict, prefix: str = "") -> dict:
    """A nested JSON object to {dotted key: leaf value}."""
    out = {}
    for key, value in meta.items():
        if isinstance(value, dict) and value:
            out.update(flat_keys(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def npz_difference(parent: Path, change: Path) -> dict:
    """How two ``.npz`` archives differ: whether their arrays other than
    ``__meta__`` are equal (the same names, each with the same dtype,
    shape and bytes), the names of those that are not, and the dotted keys
    of the ``__meta__`` JSON whose values differ or that one side lacks."""
    sides = []
    for path in (parent, change):
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays.pop("__meta__", np.array("{}"))[()]))
        sides.append((arrays, flat_keys(meta)))
    (old, old_meta), (new, new_meta) = sides
    differ = sorted(
        name for name in old.keys() | new.keys()
        if name not in old or name not in new
        or (old[name].dtype, old[name].shape, old[name].tobytes())
        != (new[name].dtype, new[name].shape, new[name].tobytes())
    )
    missing = object()
    meta_keys = sorted(key for key in old_meta.keys() | new_meta.keys()
                       if old_meta.get(key, missing) != new_meta.get(key, missing))
    return {"arrays_equal": not differ, "arrays_differ": differ, "meta_keys_differ": meta_keys}


# Writes the peanut bodies into argv[1] with the checkout's own save_mesh.
PEANUTS = """
import sys
from asterhover.geometry import save_mesh
from geometry_reference import make_peanut_mesh
for level in (2, 5):
    save_mesh(f"{sys.argv[1]}/peanut{level}.obj", make_peanut_mesh(level=level))
"""


def digests(parent: str, tmp: Path) -> dict:
    """The sha256 of every output of RUNS in the checkouts of `parent` and
    of the change under `tmp` (see ``bench_pairs.checkouts``), with per
    output and overall whether they are equal. Raises RuntimeError when a
    command fails."""
    report = {"parent": parent, "inputs": {}, "outputs": {}}
    inputs = tmp / "inputs"
    inputs.mkdir()
    run_python(tmp / "change", ["-c", PEANUTS, str(inputs)], inputs, paths=("src", "tests"))
    names = {f"peanut{level}": str(inputs / f"peanut{level}.obj") for level in (2, 5)}
    for run, cli_args, files in RUNS:
        side_digests = {}
        for side in SIDES:
            out = tmp / "out" / side / run
            out.parent.mkdir(parents=True, exist_ok=True)
            run_python(tmp / side, ["-m", "asterhover.cli",
                                    *(a.format(**names) for a in cli_args), "--out", str(out)],
                       out.parent)
            side_digests[side] = {f: sha256_file(out / f) for f in files}
        if run == "train":
            ck = inputs / "checkpoint.npz"
            shutil.copyfile(tmp / "out" / "parent" / run / files[1], ck)
            names["ck"] = str(ck)
        for f in files:
            p, c = side_digests["parent"][f], side_digests["change"][f]
            entry = report["outputs"][f"{run}/{f}"] = {"parent": p, "change": c, "equal": p == c}
            if p != c and f.endswith(".npz"):
                entry["npz"] = npz_difference(*(tmp / "out" / side / run / f for side in SIDES))
    report["inputs"] = {Path(p).name: sha256_file(Path(p)) for p in names.values()}
    report["equal"] = all(o["equal"] for o in report["outputs"].values())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    args = parser.parse_args(argv)
    parent = git("rev-parse", args.parent)
    try:
        with checkouts(parent, change_commit(), "output-digests-") as tmp:
            report = digests(parent, tmp)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(report, indent=1))
    return 0 if report["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
