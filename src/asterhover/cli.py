"""Command line front end.

Subcommands:

* ``gen-asteroid`` synthesizes one random shape model and writes it to disk.
* ``train`` runs the full rollout / update loop from a YAML config.
* ``eval`` scores a checkpoint over one named scenario (or all of them).
* ``scan-debug`` renders a single range image against a shape model.
* ``simulate`` flies one episode and dumps the full trajectory.

Every run writes only into its output directory and echoes the fully
resolved configuration plus the package version there, so results can be
reproduced from the artifacts alone. Runs are deterministic in (seed,
config). Exit codes: 0 success, 2 usage or configuration error, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__, usable_cpus
from .config import (
    apply_to_dataclass,
    load_config_file,
    parse_overrides,
    write_csv,
    write_resolved_config,
)
from .dynamics import NUM_THRUSTERS
from .errors import ConfigurationError, MeshLoadError, SimulationError
from .geometry import AsteroidGenConfig, save_mesh, synthesize_asteroid
from .lidar import LaneCast, PreparedMesh, SensorConfig, rotated_beams, scan
from .nn import PolicyNetwork
from .env import load_mesh, rollout
from .ppo import TrainConfig, train
from .evaluation import (
    MAX_EPISODES,
    check_counts,
    fly_scenario,
    get_scenario,
    greedy,
    load_policy,
    scenario_env,
    scenarios,
    write_summary,
)


def cmd_gen_asteroid(args: argparse.Namespace) -> int:
    cfg = AsteroidGenConfig(subdivision_level=args.level)
    model = synthesize_asteroid(args.seed, cfg)
    mesh_path = os.path.join(args.out, f"asteroid_seed{args.seed}.obj")
    save_mesh(mesh_path, model.mesh)
    write_resolved_config(
        args.out, "gen-asteroid",
        {"seed": args.seed, "level": args.level, "out_dir": args.out},
    )
    print(f"wrote {mesh_path}")
    print(
        f"vertices {model.mesh.num_vertices}  faces {model.mesh.num_faces}  "
        f"mass {model.mass:.3e} kg  spin {model.spin_rate:.3e} rad/s  "
        f"nutation {np.degrees(model.nutation):.1f} deg"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    flags = {"seed": args.seed, "batches": args.batches, "out_dir": args.out,
             "resume": args.resume}
    cfg = TrainConfig()
    # the file, then the overrides, then the flags given: later sources win
    for data in (
        load_config_file(args.config) if args.config else {},
        parse_overrides(args.overrides),
        {key: value for key, value in flags.items() if value is not None},
    ):
        apply_to_dataclass(cfg, data)
    metrics_path = train(
        cfg, log=print,
        before_write=lambda: write_resolved_config(cfg.out_dir, "train", cfg),
    )
    print(f"wrote {metrics_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if bool(args.scenario) == bool(args.all):
        raise ConfigurationError("choose exactly one of --scenario NAME or --all")
    check_counts(args.episodes, args.workers)
    chosen = [get_scenario(args.scenario)] if args.scenario else scenarios()
    # before anything is written: every flown scenario resolves, the checkpoint
    # fits each, and the first one over a shape model builds its environment
    flown = {}  # name -> episode config
    for scenario in chosen:
        mesh_file = args.mesh_file
        if args.all and not scenario.requires_mesh:
            mesh_file = None  # --all flies synthetic scenarios over synthetic bodies
        elif args.all and mesh_file is None:
            print(f"skipping {scenario.name}: requires --mesh-file")
            continue
        overrides = None if mesh_file is None else {"mesh_file": mesh_file}
        flown[scenario.name] = scenario.episode_config(overrides)
    policy = load_policy(args.checkpoint, *flown.values())
    first = next((name for name, cfg in flown.items() if cfg.mesh_file is not None), None)
    built = {} if first is None else {first: scenario_env(first, flown[first])}
    write_resolved_config(
        args.out, "eval",
        {
            "checkpoint": args.checkpoint,
            "scenarios": list(flown),
            "episodes": args.episodes,
            "seed": args.seed,
            "mesh_file": args.mesh_file,
            "stochastic": args.stochastic,
            "workers": args.workers,
            "out_dir": args.out,
            "episode": {name: dataclasses.asdict(cfg) for name, cfg in flown.items()},
        },
    )
    reports = []
    for name, cfg in flown.items():
        # only the flight holds the environment: one shape model at a time
        report = fly_scenario(
            policy, name, built.pop(name, None) or scenario_env(name, cfg), args.episodes,
            args.seed, os.path.join(args.out, name) if args.all else args.out,
            args.stochastic, args.workers,
        )
        reports.append(report)
        print(
            f"{name}: {report.episodes} episodes  "
            f"pos_err {report.pos_err_mean:.2f} m  "
            f"GH1 {report.gh1_pct:.1f}%  GH2 {report.gh2_pct:.1f}%  "
            f"violations {report.violations}"
        )
    if args.all:
        write_summary(os.path.join(args.out, "summary.csv"), reports)
    return 0


def _look_rotation(position: np.ndarray) -> np.ndarray:
    """Body-to-world rotation aiming the -z boresight at the origin."""
    u = position / np.linalg.norm(position)
    ref = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    x = np.cross(ref, u)
    x /= np.linalg.norm(x)
    y = np.cross(u, x)
    return np.column_stack([x, y, u])


def cmd_scan_debug(args: argparse.Namespace) -> int:
    if args.mesh:
        prep = load_mesh(args.mesh, args.scale)[2]
    else:
        prep = PreparedMesh(synthesize_asteroid(
            args.seed, AsteroidGenConfig(subdivision_level=args.level)
        ).mesh)
    if args.position is not None:
        position = np.asarray(args.position, dtype=np.float64)
        if not (np.any(position) and np.isfinite(position).all()):
            raise ConfigurationError("--position must be nonzero and finite")
    else:
        position = np.array([0.0, 0.0, 2.5 * prep.bound_radius])

    sensor = SensorConfig()
    frame = scan(LaneCast(prep, rotated_beams(sensor, _look_rotation(position))), position,
                 sensor)

    write_resolved_config(
        args.out, "scan-debug",
        {
            "mesh": args.mesh, "scale": args.scale, "seed": args.seed,
            "level": args.level, "position": [float(v) for v in position],
            "out_dir": args.out,
        },
    )
    scan_path = os.path.join(args.out, "scan.csv")
    write_csv(scan_path, (), frame.ranges)

    print(f"sensor at {position.tolist()}, boresight toward origin")
    for i in range(frame.ranges.shape[0]):
        cells = [
            f"{frame.ranges[i, j]:8.1f}" if frame.hit[i, j] else f"{'.':>8}"
            for j in range(frame.ranges.shape[1])
        ]
        print(" ".join(cells))
    print(f"{int(frame.hit.sum())}/{frame.hit.size} returns; wrote {scan_path}")
    return 0


TRAJECTORY_COLUMNS = (
    "step", "t_s",
    "x_m", "y_m", "z_m",
    "vx_ms", "vy_ms", "vz_ms",
    "qw", "qx", "qy", "qz",
    "wx_rads", "wy_rads", "wz_rads",
    "mass_kg", "fuel_kg", "pos_err_m", "speed_ms", "reward",
) + tuple(f"thruster_{k}" for k in range(NUM_THRUSTERS))


def _trajectory_row(step, t, state, fuel, pos_err, speed, reward, action) -> list:
    row = [
        step, t,
        *state.position, *state.velocity, *state.attitude, *state.omega,
        state.mass, fuel, pos_err, speed, reward,
    ]
    row.extend(int(a) for a in action)
    return row


def cmd_simulate(args: argparse.Namespace) -> int:
    overrides = parse_overrides(args.overrides)
    if args.mesh_file is not None:
        overrides["mesh_file"] = args.mesh_file
    cfg = get_scenario(args.scenario).episode_config(overrides)

    # without a checkpoint, free drift: a blank network's zero logits, whose
    # greedy action is every thruster off
    policy = load_policy(args.checkpoint, cfg) if args.checkpoint else PolicyNetwork(seed=None)
    env = scenario_env(args.scenario, cfg)
    write_resolved_config(
        args.out, "simulate",
        {
            "scenario": args.scenario, "checkpoint": args.checkpoint,
            "seed": args.seed, "mesh_file": args.mesh_file,
            "overrides": list(args.overrides), "out_dir": args.out,
            "episode": dataclasses.asdict(cfg),
        },
    )

    steps = [step for _, step in rollout(env, policy, [args.seed], greedy)]
    states = [step.state for step in steps] + [env.state]
    rows = [_trajectory_row(0, 0.0, states[0], 0.0, 0.0, 0.0, 0.0, np.zeros(NUM_THRUSTERS))]
    for step, state in zip(steps, states[1:]):
        info = step.info
        rows.append(
            _trajectory_row(
                info["step"], info["t"], state, info["fuel_used"],
                info["pos_err"], info["speed"], step.reward, step.action,
            )
        )

    traj_path = os.path.join(args.out, "trajectory.csv")
    write_csv(traj_path, TRAJECTORY_COLUMNS, rows)
    info = steps[-1].info
    outcome = info["violation"] or ("settled" if info["terminal_ok"] else "timeout")
    print(
        f"{info['step']} steps  outcome {outcome}  "
        f"pos_err {info['pos_err']:.2f} m  speed {info['speed']:.3f} m/s  "
        f"fuel {info['fuel_used']:.3f} kg  reward {sum(s.reward for s in steps):.2f}"
    )
    print(f"wrote {traj_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asterhover",
        description="asteroid hovering testbed: shape synthesis, training, evaluation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen-asteroid", help="synthesize one shape model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=int, default=2, help="icosphere subdivision level")
    p.add_argument("--out", default="runs/gen", help="output directory")
    p.set_defaults(func=cmd_gen_asteroid)

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batches", type=int, default=None)
    p.add_argument("--out", default=None, help="run directory")
    p.add_argument(
        "--resume", action="store_true", default=None, help="continue from the last checkpoint"
    )
    p.add_argument(
        "overrides", nargs="*", metavar="KEY=VALUE",
        help="dotted config overrides, e.g. ppo.epochs=5 episode.duration=300",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="Monte Carlo evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scenario", help="scenario name (an unknown name lists the options)")
    p.add_argument("--all", action="store_true", help="run baseline plus every preset")
    p.add_argument("--episodes", type=int, default=100,
                   help=f"episodes per scenario, at least 1 and at most {MAX_EPISODES}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/eval", help="output directory")
    p.add_argument(
        "--mesh-file", default=None,
        help="shape model (the mesh_file override; --all gives it to the mesh scenarios only)",
    )
    p.add_argument("--stochastic", action="store_true", help="sample actions instead of argmax")
    p.add_argument(
        "--workers", type=int, default=usable_cpus(),
        help="most processes that fly the episodes, at least 1; there are no more "
             "than the usable CPUs or the episodes (results are independent of this)",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("scan-debug", help="render one range image")
    p.add_argument("--mesh", default=None, help="mesh file (default: synthesize)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0, help="synthesis seed when no mesh given")
    p.add_argument("--level", type=int, default=2)
    p.add_argument(
        "--position", type=float, nargs=3, default=None, metavar=("X", "Y", "Z"),
        help="sensor position, m (default: above +z at 2.5x the bound radius)",
    )
    p.add_argument("--out", default="runs/scan", help="output directory")
    p.set_defaults(func=cmd_scan_debug)

    p = sub.add_parser("simulate", help="fly one episode and dump the trajectory")
    p.add_argument("--checkpoint", default=None, help="policy checkpoint (default: free drift)")
    p.add_argument("--scenario", default="baseline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/sim", help="output directory")
    p.add_argument("--mesh-file", default=None, help="shape model (the mesh_file override)")
    p.add_argument(
        "overrides", nargs="*", metavar="KEY=VALUE",
        help="dotted episode-config overrides, e.g. duration=120",
    )
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeshLoadError, SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
