"""Monte-Carlo evaluation of a hovering policy across named scenarios.

A Scenario is the baseline episode configuration plus a small, explicit set
of field overrides (the whole point: each named case differs from baseline
in exactly the listed fields). Evaluation runs deterministic-seeded episodes
with greedy action selection, writes a per-episode CSV next to the summary,
and aggregates the terminal statistics the mission cares about: position
error, speed, worst rotational-rate component, good-hover percentages, and
fuel use.

Episodes are independent, so they fan out across forked processes as
training's lanes do; rows are always aggregated in episode order for
bit-stable output.
"""

from __future__ import annotations

import functools
import os
from dataclasses import astuple, dataclass, field

import numpy as np

from . import nn
from .config import apply_to_dataclass, csv_field, nest_dotted, write_csv
from .env import EpisodeConfig, HoverEnv, good_hover, rollout
from .errors import ConfigurationError, MeshLoadError
from .ppo import ACTION_STREAM, NETWORK_DTYPE, check_trained_episode, collection_processes, deal


@dataclass
class Scenario:
    """A named evaluation case: baseline config plus explicit overrides.

    overrides maps dotted EpisodeConfig field paths (e.g. "dyn.spin_max")
    to values. requires_mesh marks cases that hover over a user-supplied
    shape model; the file path arrives at run time, as the `mesh_file`
    override.
    """

    name: str
    description: str = ""
    overrides: dict = field(default_factory=dict)
    requires_mesh: bool = False

    def episode_config(self, overrides: dict | None = None) -> EpisodeConfig:
        """The baseline config with this scenario's overrides, then the
        run's own `overrides` (a nested dict, e.g. from
        :func:`~asterhover.config.parse_overrides`) on top, validated.

        Raises ConfigurationError when a mesh scenario resolves to no
        `mesh_file`.
        """
        cfg = EpisodeConfig()
        apply_to_dataclass(cfg, nest_dotted(self.overrides.items()))
        apply_to_dataclass(cfg, overrides or {})
        if self.requires_mesh and cfg.mesh_file is None:
            raise ConfigurationError(
                f"scenario {self.name!r} hovers over a real shape model; "
                "provide one as the mesh_file override (--mesh-file)"
            )
        cfg.validate()
        return cfg


def scenarios() -> list[Scenario]:
    """The fourteen named cases, as fresh objects: baseline, then the
    thirteen generalization and real-shape-model presets.

    The first seven presets stress one axis of the task each; the last six
    hover over user-supplied shape models at nominal and extended altitudes.
    """
    return [
        Scenario("baseline", "nominal randomized task"),
        Scenario(
            "extended-altitude",
            "initial altitude range widened to 10-700 m",
            {"range_min": 10.0, "range_max": 700.0},
        ),
        Scenario(
            "facets-1280",
            "synthetic asteroids with 1280 facets instead of 320",
            {"asteroid.subdivision_level": 3},
        ),
        Scenario(
            "duration-1200",
            "hover duration doubled to 1200 s",
            {"duration": 1200.0},
        ),
        Scenario(
            "actuator-fail-0.5",
            "degraded thruster runs at half thrust instead of 0.9",
            {"failure_scale": 0.5},
        ),
        Scenario(
            "sensor-noise",
            "range bias uniform in +-5 m per episode plus 2 m Gaussian noise",
            {"sensor_noise": True},
        ),
        Scenario(
            "env-dynamics",
            "maximum asteroid spin rate raised to 1e-3 rad/s",
            {"dyn.spin_max": 1.0e-3},
        ),
        Scenario(
            "com-variation",
            "center of mass offset by +-10 cm per axis each episode",
            {"com_variation": True},
        ),
        Scenario(
            "rq36",
            "rq36 shape model, altitude 100-500 m",
            {"range_min": 100.0, "range_max": 500.0},
            requires_mesh=True,
        ),
        Scenario(
            "rq36-extended",
            "rq36 shape model, altitude 10-500 m",
            {"range_min": 10.0, "range_max": 500.0},
            requires_mesh=True,
        ),
        Scenario(
            "itokawa",
            "Itokawa shape model, altitude 100-250 m",
            {"range_min": 100.0, "range_max": 250.0},
            requires_mesh=True,
        ),
        Scenario(
            "itokawa-extended",
            "Itokawa shape model, altitude 10-250 m",
            {"range_min": 10.0, "range_max": 250.0},
            requires_mesh=True,
        ),
        Scenario(
            "itokawa3x",
            "Itokawa shape model scaled 3x, altitude 100-600 m",
            {"range_min": 100.0, "range_max": 600.0, "mesh_scale": 3.0},
            requires_mesh=True,
        ),
        Scenario(
            "itokawa3x-extended",
            "Itokawa shape model scaled 3x, altitude 10-600 m",
            {"range_min": 10.0, "range_max": 600.0, "mesh_scale": 3.0},
            requires_mesh=True,
        ),
    ]


def get_scenario(name: str) -> Scenario:
    table = scenarios()
    for scenario in table:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in table)
    raise ConfigurationError(f"unknown scenario {name!r}; known: {known}")


# --------------------------------------------------------------------------
# Episode rollout (greedy by default) and aggregation

def greedy(logits: np.ndarray, lanes=None) -> tuple[np.ndarray, None]:
    """Rollout select: the most probable bit per thruster."""
    return nn.greedy_action(logits), None


def run_episode(env: HoverEnv, policy, seed: int, idx: int, stochastic: bool = False) -> dict:
    """Episode `idx` on the (seed, idx) stream; returns its episodes.csv
    row. Stochastic actions come from the (seed, idx, ACTION_STREAM) stream."""
    select = greedy
    if stochastic:
        select = functools.partial(
            nn.sample_multicategorical,
            rng=np.random.default_rng(np.random.SeedSequence((seed, idx, ACTION_STREAM))),
        )
    total_reward = 0.0
    steps = 0
    for _, step in rollout(env, policy, [np.random.SeedSequence((seed, idx))], select):
        total_reward += step.reward
        steps += 1
    info = step.info
    pos_err = float(info["pos_err"])
    speed = float(info["speed"])
    max_omega = float(info["max_omega"])
    gh1, gh2 = good_hover(pos_err, speed, max_omega)
    return {
        "episode": idx,
        "pos_err_m": pos_err,
        "speed_cms": speed * 100.0,
        "omega_mrads": max_omega * 1000.0,
        "gh1": int(gh1),
        "gh2": int(gh2),
        "violation": info["violation"] or "",
        "fuel_kg": float(info["fuel_used"]),
        "reward": total_reward,
        "steps": steps,
    }


@dataclass
class EvalReport:
    """Terminal statistics over one scenario's episodes."""

    scenario: str
    episodes: int
    pos_err_mean: float = 0.0   # m
    pos_err_std: float = 0.0
    pos_err_max: float = 0.0
    speed_mean: float = 0.0     # cm/s
    speed_std: float = 0.0
    speed_max: float = 0.0
    omega_mean: float = 0.0     # worst |component| per episode, mrad/s
    omega_std: float = 0.0
    omega_max: float = 0.0
    gh1_pct: float = 0.0
    gh2_pct: float = 0.0
    fuel_mean: float = 0.0      # kg
    fuel_std: float = 0.0
    fuel_max: float = 0.0
    violations: int = 0

    @classmethod
    def from_rows(cls, scenario: str, rows: list[dict]) -> "EvalReport":
        def stats(key):
            v = np.array([r[key] for r in rows], dtype=float)
            return float(v.mean()), float(v.std()), float(v.max())

        pe = stats("pos_err_m")
        sp = stats("speed_cms")
        om = stats("omega_mrads")
        fu = stats("fuel_kg")
        n = len(rows)
        return cls(
            scenario=scenario,
            episodes=n,
            pos_err_mean=pe[0], pos_err_std=pe[1], pos_err_max=pe[2],
            speed_mean=sp[0], speed_std=sp[1], speed_max=sp[2],
            omega_mean=om[0], omega_std=om[1], omega_max=om[2],
            gh1_pct=100.0 * sum(r["gh1"] for r in rows) / n,
            gh2_pct=100.0 * sum(r["gh2"] for r in rows) / n,
            fuel_mean=fu[0], fuel_std=fu[1], fuel_max=fu[2],
            violations=sum(1 for r in rows if r["violation"]),
        )


SUMMARY_COLUMNS = (
    "scenario", "episodes",
    "pos_err_mean_m", "pos_err_std_m", "pos_err_max_m",
    "speed_mean_cms", "speed_std_cms", "speed_max_cms",
    "omega_mean_mrads", "omega_std_mrads", "omega_max_mrads",
    "gh1_pct", "gh2_pct",
    "fuel_mean_kg", "fuel_std_kg", "fuel_max_kg",
    "violations",
)


def summary_row(report: EvalReport) -> list[str]:
    """The report's fields in declaration order, which SUMMARY_COLUMNS names."""
    return [csv_field(v) for v in astuple(report)]


def load_policy(checkpoint_path: str, *cfgs: EpisodeConfig) -> nn.PolicyNetwork:
    """Policy parameters from a training checkpoint (the critic's arrays
    are not read), to fly episodes of each of `cfgs`.

    The policy computes in the checkpoint's dtype: the blank network is
    built in the dtype `train` writes, and a checkpoint stored in another,
    such as one written before training moved to float32, rebuilds it in
    its own.

    Raises ConfigurationError when the checkpoint records an episode
    setting that one of `cfgs` does not share (see
    :func:`~asterhover.ppo.check_trained_episode`).
    """
    policy = nn.PolicyNetwork(seed=None, dtype=NETWORK_DTYPE)
    meta = nn.load_checkpoint(checkpoint_path, policy, None)
    for cfg in cfgs:
        check_trained_episode(checkpoint_path, meta["extra"], cfg)
    return policy


# Episodes per scenario. An episodes.csv row takes at most about 180
# bytes (six floats at up to 24 characters each, the longest violation name,
# the counts and ten separators), and its row dict about 280 bytes in memory
# (tracemalloc), so a scenario writes at most about 18 MB and holds its
# rows in about 28 MB.
MAX_EPISODES = 100_000


def check_counts(n_episodes: int, workers: int) -> None:
    """Refuse an episode count outside 1..MAX_EPISODES or a worker count
    (the cap on evaluation's processes) below 1."""
    if n_episodes < 1:
        raise ConfigurationError(f"n_episodes must be at least 1, got {n_episodes}")
    if n_episodes > MAX_EPISODES:
        raise ConfigurationError(f"n_episodes must be at most {MAX_EPISODES}, got {n_episodes}")
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")


def scenario_env(name: str, cfg: EpisodeConfig) -> HoverEnv:
    """The environment on `cfg`; an unreadable shape model fails naming `name`."""
    try:
        return HoverEnv(cfg)
    except MeshLoadError as exc:
        raise MeshLoadError(f"scenario {name!r}: {exc}") from exc


def fly_scenario(
    policy, name: str, env: HoverEnv, n_episodes: int, seed: int,
    out_dir: str | None = None, stochastic: bool = False, workers: int = 1,
) -> EvalReport:
    """Fly `n_episodes` (see :func:`check_counts`) of scenario `name` on the
    built `env`, episode k on the seed stream (seed, k), so reports are the
    same across reruns and process counts. Episode k flies in process
    k mod P, P = :func:`~asterhover.ppo.collection_processes` (at most
    `workers` and `n_episodes`), as :func:`~asterhover.ppo.deal` deals it:
    the forked helpers inherit `env` and `policy`. Of the episodes that
    fail, the first one's error is raised. With out_dir set, writes
    episodes.csv and summary.csv there."""
    def fly(episodes):
        rows = {}
        for idx in episodes:
            try:
                # run_episode is read at call time, so that a wrapper set on
                # the module attribute (perfbench's tracer) flies every episode
                rows[idx] = run_episode(env, policy, seed, idx, stochastic)
            except Exception as exc:
                return {}, ((idx,), exc)
        return rows, None

    flown = deal(fly, n_episodes, collection_processes(min(workers, n_episodes)),
                 "evaluation helper of episodes")
    rows = [flown[idx] for idx in range(n_episodes)]
    report = EvalReport.from_rows(name, rows)
    if out_dir is not None:
        write_report_files(out_dir, report, rows)
    return report


def run_monte_carlo(
    policy,
    scenario: Scenario,
    n_episodes: int,
    seed: int,
    out_dir: str | None = None,
    mesh_file: str | None = None,
    stochastic: bool = False,
    workers: int = 1,
) -> EvalReport:
    """Evaluate a policy (object, or checkpoint path: see
    :func:`load_policy`) over one scenario, whose `mesh_file` override is a
    given `mesh_file`: its one environment is built (the shape model read)
    before :func:`fly_scenario` forks any helper.
    """
    check_counts(n_episodes, workers)
    cfg = scenario.episode_config(None if mesh_file is None else {"mesh_file": mesh_file})
    if isinstance(policy, str):
        policy = load_policy(policy, cfg)
    env = scenario_env(scenario.name, cfg)
    return fly_scenario(policy, scenario.name, env, n_episodes, seed, out_dir, stochastic, workers)


def write_report_files(out_dir: str, report: EvalReport, rows: list[dict]) -> None:
    """episodes.csv, headed by the keys of :func:`run_episode`'s rows, and summary.csv."""
    write_csv(os.path.join(out_dir, "episodes.csv"), rows[0].keys(),
              (row.values() for row in rows))
    write_summary(os.path.join(out_dir, "summary.csv"), [report])


def write_summary(path: str, reports: list[EvalReport]) -> None:
    """summary.csv: the header, then one row per report."""
    write_csv(path, SUMMARY_COLUMNS, map(summary_row, reports))
