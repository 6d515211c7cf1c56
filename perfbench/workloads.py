"""The benchmark's workloads, run inside a child process of ``run.py``.

Subcommands (``run.py`` calls them; they are not meant to be typed):

    python3 perfbench/workloads.py setup --workload W --inputs DIR --seed N --size S
        Time from process start to the first episode, printed as JSON.
    python3 perfbench/workloads.py run --workload W --inputs DIR --seed N
            --seconds S --trace 0|1 --size S --out FILE
        The timed phase; writes raw measurements to FILE as JSON.

Every workload is a sequence of units, each one call of a public function
(``ppo.train`` for one batch, or ``evaluation.run_monte_carlo`` for one
chunk of episodes). Units run until ``--seconds`` have passed. A second
call with the seed of the first unit checks that outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("train-default", "eval-baseline", "eval-dense-mesh")

# Seed-stream tags for the benchmark's own inputs, disjoint from unit seeds.
CHECKPOINT_STREAM = 101
DENSE_MESH_STREAM = 102
PROBE_STREAM = 103
DRIFT_LOGIT_BIAS = 1.0  # raises each thruster's "off" logit; greedy never fires


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Work per unit. ``full`` is the benchmark; ``minimal`` the self-test."""

    setup_repeats: int = 7
    baseline_chunk: int = 10      # episodes per run_monte_carlo call (dense: one)
    dense_level: int = 5          # 20 * 4**5 = 20480 facets
    duration: float | None = None  # episode seconds; None keeps the default 600
    episodes_per_batch: int | None = None
    epochs: int | None = None
    minibatch_episodes: int | None = None
    probe_episodes: int = 10      # ppo_update probe batch width
    probe_steps: int = 100        # ppo_update / sequence probe length
    probe_seconds: float = 0.2    # minimum timing per isolated probe


SIZES = {
    "full": Sizes(),
    "minimal": Sizes(
        setup_repeats=2, baseline_chunk=2, dense_level=3, duration=60.0,
        episodes_per_batch=2, epochs=2, minibatch_episodes=1,
        probe_episodes=2, probe_steps=10, probe_seconds=0.01,
    ),
}


def import_package():
    """Import asterhover from this checkout's ``src`` and nowhere else."""
    if not (SRC / "asterhover" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}/asterhover")
    sys.path.insert(0, str(SRC))
    import asterhover

    if Path(asterhover.__file__).resolve().parent != SRC / "asterhover":
        raise SystemExit(f"perfbench: imported asterhover from {asterhover.__file__}")
    return asterhover


def unit_seed(seed: int, k: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence((seed, k)).generate_state(1)[0])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------------
# Inputs, generated from the seed

def prepare_inputs(workload: str, seed: int, sizes: Sizes, inputs: Path) -> dict:
    """Write the drift checkpoint (eval) and the dense OBJ (dense mesh).

    The checkpoint holds seeded ``build_networks`` weights with every "off"
    logit bias raised, so greedy actions never fire and each episode drifts
    for its full length. Returns the digests of what was written.
    """
    import numpy as np
    from asterhover import geometry, nn, ppo

    inputs.mkdir(parents=True, exist_ok=True)
    digests = {}
    if workload == "train-default":
        return digests
    policy, value_net = ppo.build_networks(unit_seed(seed, CHECKPOINT_STREAM))
    policy.layers["out"].b[0::2] += DRIFT_LOGIT_BIAS  # logits are (12, 2): [off, on]
    ckpt = inputs / "drift.npz"
    nn.save_checkpoint(str(ckpt), policy, value_net)
    digests["drift.npz"] = sha256_file(ckpt)
    if workload == "eval-dense-mesh":
        model = geometry.synthesize_asteroid(
            np.random.SeedSequence((seed, DENSE_MESH_STREAM)),
            geometry.AsteroidGenConfig(subdivision_level=sizes.dense_level),
        )
        mesh = inputs / "dense.obj"
        geometry.save_mesh(str(mesh), model.mesh)
        digests["dense.obj"] = sha256_file(mesh)
    return digests


def train_config(seed: int, sizes: Sizes, out_dir: Path):
    """Default TrainConfig, one batch, checkpoint after it."""
    from asterhover import ppo

    cfg = ppo.TrainConfig(seed=seed, batches=1, out_dir=str(out_dir), checkpoint_every=1)
    if sizes.duration is not None:
        cfg.episode.duration = sizes.duration
    for name in ("episodes_per_batch", "epochs", "minibatch_episodes"):
        if getattr(sizes, name) is not None:
            setattr(cfg.ppo, name, getattr(sizes, name))
    return cfg


def eval_args(workload: str, sizes: Sizes, inputs: Path) -> dict:
    """Keyword arguments of run_monte_carlo other than seed and out_dir."""
    from asterhover import evaluation

    dense = workload == "eval-dense-mesh"
    scenario = evaluation.get_scenario("itokawa3x" if dense else "baseline")
    if sizes.duration is not None:
        scenario = dataclasses.replace(
            scenario, overrides={**scenario.overrides, "duration": sizes.duration}
        )
    return dict(
        policy=str(inputs / "drift.npz"),
        scenario=scenario,
        n_episodes=1 if dense else sizes.baseline_chunk,
        mesh_file=str(inputs / "dense.obj") if dense else None,
        workers=1,
    )


# --------------------------------------------------------------------------
# Set-up time

class _FirstEpisode(Exception):
    pass


def measure_setup(workload: str, seed: int, sizes: Sizes, inputs: Path, work: Path) -> float:
    """Stop at the first episode and return its ``time.monotonic()`` stamp.

    Everything the program does before that point (imports, network build
    or checkpoint load, scenario and config resolution, mesh load) counts.
    """
    from asterhover import evaluation, ppo

    stamp = []

    def first_episode(*args, **kwargs):
        stamp.append(time.monotonic())
        raise _FirstEpisode

    try:
        if workload == "train-default":
            ppo.collect_rollouts = first_episode
            ppo.train(train_config(unit_seed(seed, 0), sizes, work))
        else:
            evaluation.run_episode = first_episode
            evaluation.run_monte_carlo(
                seed=unit_seed(seed, 0), out_dir=str(work), **eval_args(workload, sizes, inputs)
            )
    except _FirstEpisode:
        return stamp[0]
    raise RuntimeError("workload finished without starting an episode")


# --------------------------------------------------------------------------
# Units

def _finite_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV whose numeric fields must all be finite."""
    lines = path.read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    for row in rows:
        for value in row:
            try:
                number = float(value)
            except ValueError:  # a label such as a scenario or violation name
                continue
            if not math.isfinite(number):
                raise ValueError(f"{path.name}: non-finite value {value!r}")
    return header, rows


def run_train_unit(rec, seed: int, sizes: Sizes, out_dir: Path) -> dict:
    """One default training batch from fresh networks.

    Timing starts at the first episode and ends when ``ppo.train`` returns,
    so it covers collection, update, the metrics row and the checkpoint,
    and not the checks below.
    """
    from asterhover import nn, ppo

    first_span = len(rec.spans)
    ppo.train(train_config(seed, sizes, out_dir))
    end = time.perf_counter()
    collect = [s for s in rec.spans[first_span:] if s[0] == "ppo.collect_rollouts"]

    _, rows = _finite_csv(out_dir / "metrics.csv")
    if [row[0] for row in rows] != ["0"]:
        raise ValueError(f"metrics.csv batches {[row[0] for row in rows]}, expected ['0']")
    policy, value_net = ppo.build_networks(0)
    meta = nn.load_checkpoint(
        str(out_dir / "checkpoint_000001.npz"), policy, value_net,
        nn.Adam(policy.parameters()), nn.Adam(value_net.parameters()),
    )
    if meta["extra"]["next_batch"] != 1:
        raise ValueError(f"checkpoint next_batch {meta['extra']['next_batch']}")
    return {
        "start": collect[0][1],
        "end": end,
        "digests": {"metrics.csv": sha256_file(out_dir / "metrics.csv")},
    }


def run_eval_unit(seed: int, kwargs: dict, out_dir: Path) -> dict:
    """One run_monte_carlo call, timed until it returns; every episode must
    have flown with zero fuel."""
    from asterhover import evaluation

    evaluation.run_monte_carlo(seed=seed, out_dir=str(out_dir), **kwargs)
    end = time.perf_counter()
    header, rows = _finite_csv(out_dir / "episodes.csv")
    _finite_csv(out_dir / "summary.csv")
    fuel = [float(row[header.index("fuel_kg")]) for row in rows]
    if len(rows) != kwargs["n_episodes"] or any(f != 0.0 for f in fuel):
        raise ValueError(f"episodes.csv: {len(rows)} rows, fuel {fuel}")
    return {
        "end": end,
        "steps": sum(int(row[header.index("steps")]) for row in rows),
        "digests": {
            name: sha256_file(out_dir / name) for name in ("episodes.csv", "summary.csv")
        },
    }


def run_units(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
              inputs: Path, work: Path) -> tuple[list[dict], object]:
    """Run the timed units plus the same-seed repeat; returns (units, recorder).

    Untraced: units run until ``seconds`` have passed, at least two, with
    calibration passes interleaved (see calibration.py). Traced: exactly one
    traced unit, so every count repeats exactly, and one untraced unit with
    the same seed as the reference for tracing overhead; both are scaled by
    passes before and after them only, so no pass lands inside a span.

    ``eval-baseline`` gives each unit its own seed, so no body repeats
    within the timed phase (it is the workload on which a per-mesh cache
    must find nothing to reuse), and repeats the first unit after it. The
    other two repeat one seed in every unit: their units are long, and the
    dense mesh is the same in every unit anyway.
    """
    import calibration
    import tracing

    rec = tracing.Recorder()
    ticker = calibration.Ticker()
    light = dict(full=False, tick=None if trace else ticker.tick)
    tracing.install(rec, **light)
    train = workload == "train-default"
    fresh_seeds = workload == "eval-baseline"
    kwargs = None if train else eval_args(workload, sizes, inputs)
    units: list[dict] = []
    started = time.perf_counter()

    def one(seed_k: int, role: str, traced: bool) -> None:
        out_dir = work / f"unit{len(units)}"
        lo = len(rec.spans)
        counts_before = rec.counts.copy()
        if traced:
            rec.restore()
            tracing.install(rec, full=True)
        unit = {"seed": seed_k, "role": role, "traced": traced, "error": None,
                "steps": 0, "digests": {}}
        first_pass = len(ticker.passes)
        ticker.force()
        t0 = time.perf_counter()
        try:
            if train:
                unit.update(run_train_unit(rec, seed_k, sizes, out_dir))
            else:
                unit.update(run_eval_unit(seed_k, kwargs, out_dir))
        except Exception:  # counted as a failed operation, reported below
            unit["error"] = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        if traced:
            rec.restore()
            tracing.install(rec, **light)
        ticker.force()
        passes = ticker.passes[first_pass:]
        start, end = unit.pop("start", t0), unit.pop("end", t1)
        unit["wall_s"] = t1 - t0
        unit["raw_s"] = end - start - sum(s for stop, s, _ in passes if start < stop <= end)
        unit["scale"] = calibration.speed_scale([x for _, _, x in passes])
        unit["timed_s"] = unit["raw_s"] * unit["scale"]
        unit["spans"] = (lo, len(rec.spans))
        unit["counts"] = dict(rec.counts - counts_before)
        if train:
            unit["steps"] = unit["counts"].get("ppo.real_steps", 0)
        unit["episodes"] = unit["counts"].get(
            "ppo.episodes" if train else "evaluation.episodes", 0
        )
        units.append(unit)
        shutil.rmtree(out_dir, ignore_errors=True)

    if trace:
        if train:
            one(unit_seed(seed, 0), "reference", traced=False)
            one(unit_seed(seed, 0), "timed", traced=True)
        else:
            one(unit_seed(seed, 0), "timed", traced=True)
            one(unit_seed(seed, 0), "reference", traced=False)
        return units, rec
    k = 0
    while k < 2 or time.perf_counter() - started < seconds:
        one(unit_seed(seed, k if fresh_seeds else 0), "timed", traced=False)
        k += 1
    if fresh_seeds:
        one(unit_seed(seed, 0), "repeat", traced=False)
    return units, rec


# --------------------------------------------------------------------------
# Child entry points

def blas_info() -> dict:
    """BLAS library from numpy's build config, and its live thread count."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (KeyError, TypeError):
        info = {"blas": None, "blas_version": None}
    info["blas_threads"] = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    import_package()
    sizes = SIZES[args.size]
    if args.mode == "setup":
        stamp = measure_setup(args.workload, args.seed, sizes, args.inputs, args.work)
        print(json.dumps({"first_episode_monotonic": stamp}))
        return 0

    import metrics

    units, rec = run_units(args.workload, args.seed, args.seconds, bool(args.trace), sizes,
                           args.inputs, args.work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "units": [{k: v for k, v in u.items() if k != "spans"} for u in units],
        "peak_rss_mb": peak_rss_mb,
        "context": blas_info(),
    }
    probe_metrics = {}
    if args.trace:
        import probes

        probe_metrics = probes.run_all(unit_seed(args.seed, PROBE_STREAM), sizes)
        result["spans"] = rec.spans
    result.update(metrics.summarize(args.workload, units, rec, peak_rss_mb, probe_metrics))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
