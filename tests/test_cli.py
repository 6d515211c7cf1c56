"""Command line behavior: subcommands, exit codes, config precedence,
determinism of artifacts."""

import contextlib
import dataclasses
import io
import math
import os
import shutil
import signal
import subprocess
import sys
import types

import numpy as np
import pytest
import yaml

import asterhover
from asterhover import __version__, nn
from asterhover.cli import main
from asterhover.config import (
    apply_to_dataclass,
    load_config_file,
    parse_overrides,
)
from asterhover.errors import ConfigurationError
from asterhover.evaluation import MAX_EPISODES, Scenario, get_scenario, run_monte_carlo, scenarios
from asterhover.geometry import load_mesh, save_mesh
from asterhover.ppo import TrainConfig
from geometry_reference import make_peanut_mesh


def read(path):
    with open(path) as fh:
        return fh.read()


def write_tiny_train_config(path, **extra):
    """A config small enough for CLI round-trip tests (seconds, not hours)."""
    data = {
        "seed": 3,
        "batches": 2,
        "checkpoint_every": 1,
        "episode": {
            "duration": 60.0,
            "range_min": 100.0,
            "range_max": 150.0,
            "velocity_max": 0.01,
            "attitude_err_max_deg": 2.0,
            "omega_max": 0.001,
            "failure_prob": 0.0,
            "asteroid": {"subdivision_level": 1},
            "dyn": {"spin_max": 1.0e-5, "srp_max": 0.0},
        },
        "ppo": {"episodes_per_batch": 3, "epochs": 2, "minibatch_episodes": 2},
    }
    data.update(extra)
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return path


# --- config plumbing ------------------------------------------------------


def test_parse_overrides_types_and_nesting():
    out = parse_overrides(
        ["ppo.epochs=5", "episode.duration=300.0", "resume=true", "out_dir=runs/x"]
    )
    assert out == {
        "ppo": {"epochs": 5},
        "episode": {"duration": 300.0},
        "resume": True,
        "out_dir": "runs/x",
    }
    assert isinstance(out["ppo"]["epochs"], int)
    assert isinstance(out["episode"]["duration"], float)


def test_parse_overrides_rejects_malformed():
    with pytest.raises(ConfigurationError):
        parse_overrides(["no_equals_sign"])
    with pytest.raises(ConfigurationError):
        parse_overrides(["=5"])


def test_apply_to_dataclass_nested_and_unknown_key():
    cfg = TrainConfig()
    apply_to_dataclass(cfg, {"seed": 9, "episode": {"duration": 120.0}})
    assert cfg.seed == 9
    assert cfg.episode.duration == 120.0
    with pytest.raises(ConfigurationError, match="unknown config key"):
        apply_to_dataclass(cfg, {"episode": {"no_such_field": 1}})
    with pytest.raises(ConfigurationError, match="episode.duration is not a section"):
        apply_to_dataclass(cfg, parse_overrides(["episode.duration.x=1"]))


def test_apply_to_dataclass_checks_value_types():
    cfg = TrainConfig()
    apply_to_dataclass(cfg, parse_overrides([
        "episode.duration=600", "episode.sensor_noise=yes", "episode.mesh_file=null",
    ]))
    assert cfg.episode.duration == 600  # YAML reads it as an int; a float field takes it
    assert cfg.episode.sensor_noise is True and cfg.episode.mesh_file is None
    for pair, expected in (
        ("episode.duration=abc", "episode.duration must be float"),
        ("episode.sensor_noise=yes_please", "episode.sensor_noise must be bool"),
        ("episode.asteroid.subdivision_level=2.0", "subdivision_level must be int"),
        ("episode.duration=.inf", "episode.duration must be float"),
        ("episode.control_period=.nan", "episode.control_period must be float"),
        ("episode.sensor.max_range=-.inf", "episode.sensor.max_range must be float"),
        ("episode.wet_mass_max=1" + "0" * 400, "episode.wet_mass_max must be float"),
        ("batches=true", "batches must be int"),
        ("out_dir=7", "out_dir must be str"),
    ):
        with pytest.raises(ConfigurationError, match=expected):
            apply_to_dataclass(TrainConfig(), parse_overrides([pair]))


@pytest.mark.parametrize("pair,path", [
    ("duration=abc", "duration"), ("sensor_noise=yes_please", "sensor_noise"),
    ("duration=.inf", "duration"), ("control_period=.nan", "control_period"),
    ("failure_scale=.nan", "failure_scale"),
])
def test_simulate_wrongly_typed_override_is_usage_error(tmp_path, capsys, pair, path):
    code = main(["simulate", "--seed", "2", "--out", str(tmp_path / "s"), pair])
    assert code == 2
    assert f"config key {path} must be" in capsys.readouterr().err


def test_train_config_file_wrongly_typed_value_is_usage_error(tmp_path, capsys):
    cfg = write_tiny_train_config(tmp_path / "cfg.yaml", batches="two")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "config key batches must be int" in capsys.readouterr().err


@pytest.mark.parametrize("later", [["batches=1"], ["--batches", "1"]], ids=["override", "flag"])
def test_train_config_file_value_is_checked_even_when_overridden(tmp_path, capsys, later):
    # every source is applied and checked in turn, so a later one that sets
    # the same key does not hide a bad value in the file
    cfg = write_tiny_train_config(tmp_path / "cfg.yaml", batches="two")
    out = tmp_path / "x"
    assert main(["train", "--config", str(cfg), "--out", str(out), *later]) == 2
    assert "config key batches must be int" in capsys.readouterr().err
    assert not out.exists()


def test_training_and_evaluation_imports_leave_yaml_unloaded():
    # yaml is imported only where a config file or an override is read or
    # written, so library use of training and evaluation does not pay for it
    code = "import sys, asterhover.ppo, asterhover.evaluation; print('yaml' in sys.modules)"
    src = os.path.dirname(os.path.dirname(asterhover.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def settable_keys(obj, prefix=""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from settable_keys(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def test_train_config_settable_keys():
    # every settable value of a run; a new one must show up here as a diff
    assert list(settable_keys(TrainConfig())) == [
        "episode.duration", "episode.control_period",
        "episode.range_min", "episode.range_max",
        "episode.velocity_max", "episode.attitude_err_max_deg", "episode.omega_max",
        "episode.wet_mass_min", "episode.wet_mass_max",
        "episode.failure_prob", "episode.failure_scale",
        "episode.com_variation", "episode.sensor_noise",
        "episode.mesh_file", "episode.mesh_scale",
        "episode.asteroid.subdivision_level",
        "episode.asteroid.perturbation_min", "episode.asteroid.perturbation_max",
        "episode.asteroid.axis_min", "episode.asteroid.axis_max",
        "episode.dyn.mass_min", "episode.dyn.mass_max",
        "episode.dyn.spin_min", "episode.dyn.spin_max", "episode.dyn.srp_max",
        "episode.sensor.fov", "episode.sensor.max_range",
        "ppo.gamma", "ppo.clip_eps", "ppo.kl_target", "ppo.epochs",
        "ppo.episodes_per_batch", "ppo.minibatch_episodes",
        "ppo.policy_lr", "ppo.value_lr",
        "seed", "batches", "out_dir", "checkpoint_every", "resume",
    ]


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config_file(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigurationError, match="mapping"):
        load_config_file(str(bad))
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config_file(str(empty)) == {}


# --- gen-asteroid ---------------------------------------------------------


def test_gen_asteroid_level2_has_320_faces(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["gen-asteroid", "--seed", "1", "--level", "2", "--out", str(out)]) == 0
    mesh = load_mesh(str(out / "asteroid_seed1.obj"))
    assert mesh.num_faces == 320
    assert mesh.num_vertices == 162
    assert "faces 320" in capsys.readouterr().out
    resolved = yaml.safe_load(read(out / "resolved_config.yaml"))
    assert resolved["version"] == __version__
    assert resolved["command"] == "gen-asteroid"
    assert resolved["config"]["seed"] == 1


def test_gen_asteroid_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen-asteroid", "--seed", "5", "--out", str(a)])
    main(["gen-asteroid", "--seed", "5", "--out", str(b)])
    assert read(a / "asteroid_seed5.obj") == read(b / "asteroid_seed5.obj")


FACET_BOUND_RUNS = {
    "gen-asteroid": ["gen-asteroid", "--level", "8"],
    "scan-debug": ["scan-debug", "--level", "8"],
    "simulate": ["simulate", "asteroid.subdivision_level=1000000"],
    "train": ["train", "--batches", "1", "episode.asteroid.subdivision_level=1000000"],
}


@pytest.mark.parametrize("command", FACET_BOUND_RUNS)
def test_a_level_above_the_facet_bound_is_refused_before_any_write(tmp_path, command):
    # each command runs in its own process under a timeout, so that a
    # missing bound fails here instead of building a mesh without end
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(asterhover.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "asterhover.cli", *FACET_BOUND_RUNS[command], "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "subdivision_level must be in [0, 7]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


RANGE_BOUND_RUNS = {
    "range_max-integer": ["range_max=1000000"],
    "range_max-float": ["range_max=1.0e+6"],
    "sensor.max_range": ["sensor.max_range=3"],
    "train": ["episode.range_max=2000.0"],
}


@pytest.mark.parametrize("case", RANGE_BOUND_RUNS)
def test_a_range_past_the_sensor_reach_is_refused_before_any_write(tmp_path, case):
    # a hover altitude the sensor cannot reach used to run 50 draws and exit
    # 1 with "no viable initial condition"; the config can never work
    out = tmp_path / "out"
    command = ["train", "--batches", "1"] if case == "train" else ["simulate"]
    src = os.path.dirname(os.path.dirname(asterhover.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "asterhover.cli", *command, *RANGE_BOUND_RUNS[case],
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "range_max" in proc.stderr and "sensor.max_range" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_every_preset_stays_inside_the_sensor_reach():
    configs = [scenario.episode_config({"mesh_file": "unread.obj"}) for scenario in scenarios()]
    assert max(cfg.range_max for cfg in configs) == 700.0
    assert all(cfg.range_max < cfg.sensor.max_range for cfg in configs)


def test_a_shorter_sensor_reach_needs_a_range_below_it(tmp_path, capsys):
    # sensor.max_range=500 under the default 100-600 m range used to run,
    # redrawing every altitude the sensor could not see; it is refused now,
    # and runs once range_max is below the reach
    sim = ["simulate", "duration=60", "asteroid.subdivision_level=1", "sensor.max_range=500"]
    assert main(sim + ["--out", str(tmp_path / "s1")]) == 2
    err = capsys.readouterr().err
    assert "range_max (600 m)" in err and "sensor.max_range (500 m)" in err
    assert not (tmp_path / "s1").exists()
    assert main(sim + ["range_max=450", "--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s2" / "trajectory.csv").exists()
    # eval takes no episode overrides: its scenarios fly the default reach,
    # so a checkpoint trained at another one is refused by its record, not
    # by the range check, even on the 10-700 m preset
    ck = str(tmp_path / "reach650.npz")
    nn.save_checkpoint(ck, nn.PolicyNetwork(seed=1), nn.ValueNetwork(seed=2),
                       extra={"episode.sensor.max_range": 650.0})
    capsys.readouterr()
    code = main(["eval", "--checkpoint", ck, "--scenario", "extended-altitude",
                 "--episodes", "1", "--workers", "1", "--out", str(tmp_path / "e")])
    assert code == 2
    err = capsys.readouterr().err
    assert "episode.sensor.max_range=650.0" in err and "range_max (" not in err
    assert not (tmp_path / "e").exists()


# --- train ----------------------------------------------------------------


def test_train_cli_reruns_identically(tmp_path):
    cfg = write_tiny_train_config(tmp_path / "cfg.yaml")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(b)]) == 0
    assert read(a / "metrics.csv") == read(b / "metrics.csv")
    assert (a / "checkpoint_000002.npz").exists()


def test_train_cli_flag_beats_config_and_override(tmp_path):
    cfg = write_tiny_train_config(tmp_path / "cfg.yaml")
    out = tmp_path / "run"
    # config says batches=2, the positional override says 3, the flag says 1
    assert main([
        "train", "--config", str(cfg), "--out", str(out),
        "--batches", "1", "batches=3", "ppo.epochs=1",
    ]) == 0
    resolved = yaml.safe_load(read(out / "resolved_config.yaml"))
    assert resolved["config"]["batches"] == 1
    assert resolved["config"]["ppo"]["epochs"] == 1
    # an override replaces one key of a section; the file's others stay
    assert resolved["config"]["ppo"]["episodes_per_batch"] == 3
    assert resolved["config"]["ppo"]["minibatch_episodes"] == 2
    assert resolved["config"]["seed"] == 3
    assert resolved["config"]["episode"]["duration"] == 60.0
    assert resolved["config"]["out_dir"] == str(out)
    lines = read(out / "metrics.csv").strip().splitlines()
    assert len(lines) == 2  # header plus one batch


def test_train_cli_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = write_tiny_train_config(tmp_path / "cfg.yaml", typo_key=1)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "unknown config key" in capsys.readouterr().err
    # the network-input format, the reward, the limits, the sensor-noise
    # model, the substep and the nutation range are constants, and the
    # update has no entropy bonus
    for key in (
        "episode.r_err_scale", "episode.dr_scale", "episode.sensor.grid_size",
        "episode.sensor.noise_sigma", "episode.reward.alpha", "episode.theta_max_deg",
        "episode.rk4_dt", "episode.dyn.nutation_max", "ppo.entropy_coeff",
    ):
        assert main(["train", "--out", str(tmp_path / "z"), f"{key}=1"]) == 2
        # the error names the full dotted key, or the section that is gone
        expected = "episode.reward" if key.startswith("episode.reward.") else key
        assert f"unknown config key {expected}" in capsys.readouterr().err
    assert main(["simulate", "--out", str(tmp_path / "s"), "noise_sigma=1"]) == 2
    assert "unknown config key noise_sigma" in capsys.readouterr().err
    assert not (tmp_path / "z").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize("value", ["-1", "1.5"])
def test_train_failure_scale_outside_unit_interval_is_usage_error(tmp_path, capsys, value):
    out = tmp_path / "x"
    assert main(["train", "--out", str(out), f"episode.failure_scale={value}"]) == 2
    assert "failure_scale must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()
    get_scenario("actuator-fail-0.5").episode_config()  # validates


def run_dir_bytes(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_train_cli_resume_refuses_other_episode_settings(tmp_path, capsys):
    # A run trained on 0.8 rad images resumes only with the same sensor, and
    # a refused resume changes nothing in the run directory.
    cfg = str(write_tiny_train_config(tmp_path / "cfg.yaml", batches=1))
    run, whole = tmp_path / "run", tmp_path / "whole"
    fov = "episode.sensor.fov=0.8"
    assert main(["train", "--config", cfg, "--out", str(run), fov]) == 0
    before = run_dir_bytes(run)
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(run), "--resume", "--batches", "2"]) == 2
    err = capsys.readouterr().err
    assert "episode.sensor.fov=0.8" in err and f"episode.sensor.fov={math.radians(30.0)!r}" in err
    assert run_dir_bytes(run) == before
    resume = ["train", "--config", cfg, "--out", str(run), "--resume", "--batches", "2", fov]
    assert main(resume) == 0
    assert main(["train", "--config", cfg, "--out", str(whole), "--batches", "2", fov]) == 0
    assert read(run / "metrics.csv") == read(whole / "metrics.csv")


def test_train_cli_resume_refuses_checkpoint_without_optimizer_state(tmp_path, capsys):
    cfg = str(write_tiny_train_config(tmp_path / "cfg.yaml", batches=1))
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    policy, value = nn.PolicyNetwork(seed=0), nn.ValueNetwork(seed=0)
    extra = nn.load_checkpoint(str(run / "checkpoint_000001.npz"), policy, value)["extra"]
    nn.save_checkpoint(str(run / "checkpoint_000002.npz"), policy, value, extra=extra)
    before = run_dir_bytes(run)
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(run), "--resume", "--batches", "3"]) == 2
    assert "no policy optimizer state" in capsys.readouterr().err
    assert run_dir_bytes(run) == before


def test_train_cli_resume_refuses_a_checkpoint_of_another_dtype(tmp_path, capsys):
    # a run written while training built float64 networks: every array its
    # checkpoint holds, parameters and Adam moments, is float64
    cfg = str(write_tiny_train_config(tmp_path / "cfg.yaml", batches=1))
    run = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(run)]) == 0
    path = run / "checkpoint_000001.npz"
    arrays = checkpoint_arrays(path)
    assert arrays["policy/fc1.W"].dtype == np.float32
    np.savez(path, **{k: a.astype(np.float64) if a.dtype == np.float32 else a
                      for k, a in arrays.items()})
    before = run_dir_bytes(run)
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(run), "--resume", "--batches", "2"]) == 2
    err = capsys.readouterr().err
    assert "float64" in err and "float32" in err
    assert run_dir_bytes(run) == before


def test_train_cli_resume_without_checkpoint_fails(tmp_path, capsys):
    cfg = write_tiny_train_config(tmp_path / "cfg.yaml")
    out = tmp_path / "fresh"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--resume"]) == 2
    assert "resume" in capsys.readouterr().err


# `python -c` stub: `asterhover.cli` with argv[3:], SIGKILLed by its own
# hand at one point of the run given by argv[1:3]:
#   collect N     inside batch N's collection, once this process's lanes
#                 have flown three steps (a forked helper is still flying);
#   update N      inside batch N's ppo_update, after its first optimizer step;
#   checkpoint N  once checkpoint_00000N.npz's temp file is written, before
#                 its rename;
#   metrics N     once the temp file of metrics.csv holding batch N's row is
#                 written, before its rename;
#   none -        not at all.
KILL_STUB = """
import os, signal, sys
from asterhover import cli, env, nn, ppo

point, at = sys.argv[1], sys.argv[2]

def kill():
    os.kill(os.getpid(), signal.SIGKILL)

if point == "collect":
    collect, observe, parent, calls = ppo.collect_rollouts, env.HoverEnv.observe, os.getpid(), []

    def collect_rollouts(*args, **kwargs):
        calls.append(None)
        return collect(*args, **kwargs)

    def observe_or_kill(self, frame):
        if os.getpid() == parent and len(calls) > int(at) and self.steps >= 3:
            kill()
        return observe(self, frame)

    ppo.collect_rollouts, env.HoverEnv.observe = collect_rollouts, observe_or_kill
elif point == "update":
    update, adam_step, calls = ppo.ppo_update, nn.Adam.step, []

    def ppo_update(*args, **kwargs):
        calls.append(None)
        return update(*args, **kwargs)

    def step(self, grads):
        adam_step(self, grads)
        if len(calls) > int(at):
            kill()

    ppo.ppo_update, nn.Adam.step = ppo_update, step
elif point != "none":
    replace = os.replace

    def replace_or_kill(src, dst):
        name = os.path.basename(dst)
        if point == "checkpoint" and name == f"checkpoint_{int(at):06d}.npz":
            kill()
        if point == "metrics" and name == "metrics.csv":
            with open(src) as fh:
                if fh.read().count("\\n") == int(at) + 2:
                    kill()
        replace(src, dst)

    os.replace = replace_or_kill
sys.exit(cli.main(sys.argv[3:]))
"""


def run_train_stub(point, at, cfg, out, *flags):
    src = os.path.dirname(os.path.dirname(asterhover.__file__))
    return subprocess.run(
        [sys.executable, "-c", KILL_STUB, point, str(at), "train", "--config", str(cfg),
         "--out", str(out), *flags, "ppo.episodes_per_batch=2", "episode.duration=30.0"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def three_batch_run(tmp_path_factory):
    """An uninterrupted three-batch stub run: its config file and run directory."""
    root = tmp_path_factory.mktemp("cli_three_batches")
    cfg = write_tiny_train_config(root / "cfg.yaml", batches=3)
    out = root / "run"
    proc = run_train_stub("none", "-", cfg, out)
    assert proc.returncode == 0, proc.stderr
    return cfg, out


def checkpoint_arrays(path):
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


# (point, at, metrics.csv rows and checkpoints the kill leaves)
KILL_POINTS = [("collect", 1, 1, 1), ("update", 1, 1, 1), ("checkpoint", 1, 1, 0), ("checkpoint", 3, 3, 2),
               ("metrics", 0, 0, 0), ("metrics", 2, 2, 2)]


@pytest.mark.parametrize("point,at,rows,kept", KILL_POINTS,
                         ids=[f"{p}-{n}" for p, n, _, _ in KILL_POINTS])
def test_a_killed_train_resumes_to_the_uninterrupted_bytes(
    three_batch_run, tmp_path, point, at, rows, kept
):
    # SIGKILL at any point leaves only whole files under their own names,
    # and `train --resume` (a fresh `train` while there is no checkpoint
    # yet) then ends with the bytes of a run never killed
    cfg, whole = three_batch_run
    run = tmp_path / "run"
    proc = run_train_stub(point, at, cfg, run)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    metrics = (run / "metrics.csv").read_bytes()
    assert metrics.count(b"\n") == 1 + rows and metrics.endswith(b"\n")
    assert (whole / "metrics.csv").read_bytes().startswith(metrics)
    checkpoints = sorted(run.glob("checkpoint_*.npz"))
    assert len(checkpoints) == kept
    for path in checkpoints:
        checkpoint_arrays(path)  # each one whole
    if point == "collect":
        # A helper outlives the kill until it finds no reader for its lanes,
        # and it holds the run's output pipes until then, so it has exited by
        # now: it wrote no file.
        assert sorted(path.name for path in run.iterdir()) == sorted(
            ["metrics.csv", "resolved_config.yaml", *(path.name for path in checkpoints)]
        )
    resume = ["--resume"] if checkpoints else []
    proc = run_train_stub("none", "-", cfg, run, *resume)
    assert proc.returncode == 0, proc.stderr
    assert (run / "metrics.csv").read_bytes() == (whole / "metrics.csv").read_bytes()
    final = "checkpoint_000003.npz"
    got, want = checkpoint_arrays(run / final), checkpoint_arrays(whole / final)
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)
    assert not list(run.glob("*.tmp"))


# --- eval -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_train")
    cfg = write_tiny_train_config(root / "cfg.yaml", batches=1)
    out = root / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_eval_requires_scenario_or_all(trained_run, tmp_path, capsys):
    ck = str(trained_run / "checkpoint_000001.npz")
    assert main(["eval", "--checkpoint", ck, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--scenario" in err and "--all" in err


def test_eval_mesh_scenario_without_mesh_file(trained_run, tmp_path, capsys):
    ck = str(trained_run / "checkpoint_000001.npz")
    code = main([
        "eval", "--checkpoint", ck, "--scenario", "rq36",
        "--episodes", "1", "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "mesh" in err and "rq36" in err
    assert not (tmp_path / "e").exists()  # refused before anything is written


def test_eval_missing_checkpoint_writes_nothing(tmp_path, capsys):
    code = main([
        "eval", "--checkpoint", str(tmp_path / "missing.npz"), "--scenario", "baseline",
        "--episodes", "1", "--out", str(tmp_path / "e"),
    ])
    assert code == 1
    assert "missing.npz" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_unknown_scenario_lists_names(trained_run, tmp_path, capsys):
    ck = str(trained_run / "checkpoint_000001.npz")
    code = main([
        "eval", "--checkpoint", ck, "--scenario", "nope", "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    assert "itokawa" in capsys.readouterr().err


def test_eval_negative_episode_count_is_usage_error(trained_run, tmp_path, capsys):
    ck = str(trained_run / "checkpoint_000001.npz")
    code = main([
        "eval", "--checkpoint", ck, "--scenario", "baseline",
        "--episodes", "-3", "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    assert "n_episodes must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_episode_count_past_the_bound_is_usage_error(trained_run, tmp_path, capsys):
    ck = str(trained_run / "checkpoint_000001.npz")
    code = main([
        "eval", "--checkpoint", ck, "--all",
        "--episodes", str(MAX_EPISODES + 1), "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    assert (f"n_episodes must be at most {MAX_EPISODES}, got {MAX_EPISODES + 1}"
            in capsys.readouterr().err)
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_eval_worker_count_below_one_is_usage_error(trained_run, tmp_path, capsys, workers):
    ck = str(trained_run / "checkpoint_000001.npz")
    code = main([
        "eval", "--checkpoint", ck, "--scenario", "baseline",
        "--episodes", "1", "--workers", workers, "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    assert f"workers must be at least 1, got {workers}" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_single_scenario_writes_reports(trained_run, tmp_path):
    ck = str(trained_run / "checkpoint_000001.npz")
    out = tmp_path / "eval"
    code = main([
        "eval", "--checkpoint", ck, "--scenario", "baseline",
        "--episodes", "2", "--seed", "11", "--out", str(out), "--workers", "1",
    ])
    assert code == 0
    assert (out / "episodes.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "resolved_config.yaml").exists()
    lines = read(out / "episodes.csv").strip().splitlines()
    assert len(lines) == 3  # header + 2 episodes


@pytest.fixture(scope="module")
def peanut_obj(tmp_path_factory):
    """A level-2 peanut OBJ, the stand-in shape model of the mesh scenarios."""
    path = tmp_path_factory.mktemp("peanut") / "peanut.obj"
    save_mesh(str(path), make_peanut_mesh(level=2))
    return str(path)


@pytest.fixture
def mesh_reads(monkeypatch):
    """The path of every shape-model file read by an environment or the
    CLI, under `reads`, and of every one of those parsed, under `parses`."""
    log = types.SimpleNamespace(reads=[], parses=[])
    read, parse = asterhover.env.read_mesh_file, asterhover.env.parse_mesh

    def read_mesh(path):
        log.reads.append(path)
        return read(path)

    def parse_mesh(data, path):
        log.parses.append(path)
        return parse(data, path)

    def cli_load_mesh(path, *args, **kwargs):
        log.reads.append(path)
        log.parses.append(path)
        return load_mesh(path, *args, **kwargs)

    monkeypatch.setattr(asterhover.env, "read_mesh_file", read_mesh)
    monkeypatch.setattr(asterhover.env, "parse_mesh", parse_mesh)
    monkeypatch.setattr(asterhover.cli, "load_mesh", cli_load_mesh)
    return log


def eval_all(ck, out, *extra):
    return main([
        "eval", "--checkpoint", ck, "--all",
        "--episodes", "1", "--out", str(out), "--workers", "1", *extra,
    ])


@pytest.fixture(scope="module")
def eval_all_run(trained_run, tmp_path_factory):
    """`eval --all` without a mesh file: its directory and its stdout."""
    out = tmp_path_factory.mktemp("eval_all") / "all"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert eval_all(str(trained_run / "checkpoint_000001.npz"), out) == 0
    return out, stdout.getvalue()


def test_eval_all_skips_mesh_scenarios_without_mesh(eval_all_run):
    out, stdout = eval_all_run
    assert "skipping rq36" in stdout
    lines = read(out / "summary.csv").strip().splitlines()
    # baseline + the seven synthetic presets ran; six mesh rows skipped
    assert len(lines) == 1 + 8
    # the record lists the flown scenarios only, in the order they flew
    config = yaml.safe_load(read(out / "resolved_config.yaml"))["config"]
    assert config["scenarios"] == [line.split(",")[0] for line in lines[1:]]
    assert sorted(config["episode"]) == sorted(config["scenarios"])
    assert (out / "baseline" / "episodes.csv").exists()
    assert (out / "extended-altitude" / "summary.csv").exists()


def test_eval_all_gives_the_mesh_file_to_mesh_scenarios_only(
    trained_run, eval_all_run, peanut_obj, tmp_path, monkeypatch, mesh_reads
):
    # the synthetic scenarios keep their synthetic bodies: their rows and
    # files equal those of the run without --mesh-file
    plain, _ = eval_all_run
    out = tmp_path / "all"
    loads, resolved = [], []
    load = nn.load_checkpoint
    monkeypatch.setattr(nn, "load_checkpoint", lambda *a, **k: loads.append(a) or load(*a, **k))
    resolve = Scenario.episode_config
    monkeypatch.setattr(Scenario, "episode_config",
                        lambda self, *a: resolved.append(self.name) or resolve(self, *a))
    assert eval_all(str(trained_run / "checkpoint_000001.npz"), out, "--mesh-file", peanut_obj) == 0
    assert len(loads) == 1  # one checkpoint read for the 14 scenarios
    # each scenario is resolved once, and the mesh file read once per
    # scenario that flies over it but parsed once in all
    assert sorted(resolved) == sorted(s.name for s in scenarios())
    assert mesh_reads.reads == [peanut_obj] * sum(s.requires_mesh for s in scenarios())
    assert mesh_reads.parses == [peanut_obj]
    lines = read(out / "summary.csv").strip().splitlines()
    assert len(lines) == 1 + 14
    assert lines[:9] == read(plain / "summary.csv").strip().splitlines()
    for name in [s.name for s in scenarios() if not s.requires_mesh]:
        assert read(out / name / "episodes.csv") == read(plain / name / "episodes.csv")
    assert [line.split(",")[0] for line in lines[9:]] == [
        s.name for s in scenarios() if s.requires_mesh
    ]
    # the record tells which scenarios flew over the mesh file
    episode = yaml.safe_load(read(out / "resolved_config.yaml"))["config"]["episode"]
    assert sorted(episode) == sorted(line.split(",")[0] for line in lines[1:])
    for name, cfg in episode.items():
        assert cfg == dataclasses.asdict(
            get_scenario(name).episode_config(
                {"mesh_file": peanut_obj} if get_scenario(name).requires_mesh else None
            )
        )
    assert sorted(name for name, cfg in episode.items() if cfg["mesh_file"] == peanut_obj) == sorted(
        line.split(",")[0] for line in lines[9:]
    )


def test_checkpoint_records_its_episode_settings(tmp_path, capsys):
    # A policy trained on 0.8 rad images is refused where the run's sensor
    # differs, naming the field and both values, and flies where it matches.
    cfg = write_tiny_train_config(tmp_path / "cfg.yaml", batches=1)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run), "episode.sensor.fov=0.8"]) == 0
    ck = str(run / "checkpoint_000001.npz")
    meta = nn.load_checkpoint(ck, nn.PolicyNetwork(seed=0), nn.ValueNetwork(seed=0))
    assert meta["extra"]["episode.sensor.fov"] == 0.8
    assert meta["extra"]["episode.sensor.max_range"] == 2000.0
    assert meta["extra"]["episode.control_period"] == 6.0
    capsys.readouterr()
    code = main([
        "eval", "--checkpoint", ck, "--scenario", "baseline",
        "--episodes", "1", "--workers", "1", "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "episode.sensor.fov=0.8" in err and f"episode.sensor.fov={math.radians(30.0)!r}" in err
    assert not (tmp_path / "e" / "summary.csv").exists()
    sim = ["simulate", "--checkpoint", ck, "duration=60", "asteroid.subdivision_level=1"]
    assert main(sim + ["--out", str(tmp_path / "s1")]) == 2
    assert "episode.sensor.fov" in capsys.readouterr().err
    assert main(sim + ["sensor.fov=0.8", "--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s2" / "trajectory.csv").exists()


def test_checkpoint_without_episode_settings_loads_as_before(tmp_path):
    ck = str(tmp_path / "bare.npz")
    nn.save_checkpoint(ck, nn.PolicyNetwork(seed=1), nn.ValueNetwork(seed=2))
    code = main([
        "simulate", "--checkpoint", ck, "duration=60", "asteroid.subdivision_level=1",
        "sensor.fov=0.8", "control_period=4", "--out", str(tmp_path / "s"),
    ])
    assert code == 0


def test_eval_mesh_file_flag_is_the_mesh_file_override(
    trained_run, peanut_obj, tmp_path, mesh_reads
):
    # `eval --scenario baseline --mesh-file X` flies over X, as the baseline
    # scenario with the mesh_file override does, reads X once and records X
    ck = str(trained_run / "checkpoint_000001.npz")
    args = ["eval", "--checkpoint", ck, "--scenario", "baseline",
            "--episodes", "1", "--seed", "5", "--workers", "1"]
    flag, plain = tmp_path / "flag", tmp_path / "plain"
    assert main(args + ["--mesh-file", peanut_obj, "--out", str(flag)]) == 0
    assert mesh_reads.reads == mesh_reads.parses == [peanut_obj]
    assert main(args + ["--out", str(plain)]) == 0
    override = tmp_path / "override"
    run_monte_carlo(
        ck, Scenario("baseline", overrides={"mesh_file": peanut_obj}), 1, 5,
        out_dir=str(override),
    )
    for name in ("episodes.csv", "summary.csv"):
        assert read(flag / name) == read(override / name)
    assert read(flag / "episodes.csv") != read(plain / "episodes.csv")
    resolved = yaml.safe_load(read(flag / "resolved_config.yaml"))
    assert resolved["config"]["mesh_file"] == peanut_obj


@pytest.mark.parametrize("obj", [None, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n"],
                         ids=["missing", "face-index-out-of-range"])
def test_eval_pool_fails_on_a_bad_mesh_file(tmp_path, obj):
    # a shape model that cannot be read fails the run before any helper
    # is forked, as with --workers 1; the run gets its own session and a
    # timeout, so that a run that hangs fails this test and leaves no
    # process behind
    ck = str(tmp_path / "ck.npz")
    nn.save_checkpoint(ck, nn.PolicyNetwork(seed=1), nn.ValueNetwork(seed=2))
    mesh = tmp_path / "bad.obj"
    if obj is not None:
        mesh.write_text(obj)
    src = os.path.dirname(os.path.dirname(asterhover.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "asterhover.cli", "eval", "--checkpoint", ck,
         "--scenario", "itokawa", "--mesh-file", str(mesh), "--episodes", "2",
         "--workers", "2", "--out", str(tmp_path / "e")],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("eval with a bad --mesh-file did not exit within 60 s")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 1
    assert str(mesh) in err
    assert not (tmp_path / "e").exists()


BAD_MESH_FILES = {
    "missing": None,
    "face-index-out-of-range": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n",
    "bad-coordinate": "v 0 0 0\nv 1 0 x\nv 0 1 0\nf 1 2 3\n",
}


@pytest.mark.parametrize("obj", BAD_MESH_FILES.values(), ids=BAD_MESH_FILES)
@pytest.mark.parametrize("which", ["--scenario", "--all"])
def test_eval_over_a_bad_mesh_file_writes_nothing(tmp_path, capsys, obj, which):
    # the shape model is read before the resolved config is written, also
    # when the first scenarios of --all fly synthetic bodies
    ck = str(tmp_path / "ck.npz")
    nn.save_checkpoint(ck, nn.PolicyNetwork(seed=1), nn.ValueNetwork(seed=2))
    mesh = tmp_path / "bad.obj"
    if obj is not None:
        mesh.write_text(obj)
    scenario = ["--scenario", "itokawa"] if which == "--scenario" else ["--all"]
    code = main(["eval", "--checkpoint", ck, *scenario, "--mesh-file", str(mesh),
                 "--episodes", "1", "--workers", "1", "--out", str(tmp_path / "e")])
    assert code == 1
    err = capsys.readouterr().err
    assert str(mesh) in err
    # a missing or refused shape model names the first scenario over it
    assert ("scenario 'itokawa'" if which == "--scenario" else "scenario 'rq36'") in err
    assert not (tmp_path / "e").exists()


@pytest.fixture(scope="module")
def two_batch_run(tmp_path_factory):
    """A tiny two-batch `train` run: its config file and run directory."""
    root = tmp_path_factory.mktemp("cli_two_batches")
    cfg = write_tiny_train_config(root / "cfg.yaml")
    out = root / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return str(cfg), out


REFUSED_RUNS = [
    (command, bad)
    for command in ("train", "train-resume", "simulate", "scan-debug")
    for bad in ("missing", "face-index-out-of-range")
] + [("gen-asteroid", None)]


@pytest.mark.parametrize("command,bad", REFUSED_RUNS,
                         ids=[f"{command}-{bad}" if bad else command for command, bad in REFUSED_RUNS])
def test_a_refused_run_leaves_out_as_it_found_it(two_batch_run, tmp_path, capsys, command, bad):
    # every command builds what can fail before its first write: a refused
    # run makes no --out, and a refused resume changes nothing in its run
    # directory (here one whose last checkpoint was lost, so the resume
    # would cut metrics.csv back a batch)
    cfg, run = two_batch_run
    mesh, out = tmp_path / "bad.obj", tmp_path / "out"
    if BAD_MESH_FILES.get(bad) is not None:
        mesh.write_text(BAD_MESH_FILES[bad])
    before = None
    if command == "train-resume":
        shutil.copytree(run, out)
        (out / "checkpoint_000002.npz").unlink()
        before = run_dir_bytes(out)
    argv = {
        "train": ["train", "--config", cfg, f"episode.mesh_file={mesh}"],
        "train-resume": ["train", "--config", cfg, "--resume", f"episode.mesh_file={mesh}"],
        "simulate": ["simulate", "--scenario", "itokawa", "--mesh-file", str(mesh)],
        "scan-debug": ["scan-debug", "--mesh", str(mesh)],
        "gen-asteroid": ["gen-asteroid", "--level", "-1"],
    }[command]
    assert main([*argv, "--out", str(out)]) == (2 if command == "gen-asteroid" else 1)
    err = capsys.readouterr().err
    if bad is not None:
        assert str(mesh) in err
    if command == "simulate":
        assert "scenario 'itokawa'" in err
    if before is None:
        assert not out.exists()
    else:
        assert run_dir_bytes(out) == before


# --- simulate and scan-debug ----------------------------------------------


@pytest.mark.parametrize("scenario", ["itokawa", "baseline"])
def test_simulate_mesh_file_flag_is_the_mesh_file_override(peanut_obj, tmp_path, scenario):
    # --mesh-file X and the override mesh_file=X fly the same episode over X,
    # for a mesh scenario and for a synthetic one alike
    args = ["simulate", "--scenario", scenario, "--seed", "3", "duration=60"]
    flag, override = tmp_path / "flag", tmp_path / "override"
    assert main(args + ["--mesh-file", peanut_obj, "--out", str(flag)]) == 0
    assert main(args + [f"mesh_file={peanut_obj}", "--out", str(override)]) == 0
    assert read(flag / "trajectory.csv") == read(override / "trajectory.csv")
    for run in (flag, override):
        resolved = yaml.safe_load(read(run / "resolved_config.yaml"))
        assert resolved["config"]["episode"]["mesh_file"] == peanut_obj
    if scenario == "baseline":
        plain = tmp_path / "plain"
        assert main(args + ["--out", str(plain)]) == 0
        assert read(flag / "trajectory.csv") != read(plain / "trajectory.csv")




def test_simulate_drift_writes_trajectory(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--seed", "2", "--out", str(out),
        "duration=60", "velocity_max=0.01", "omega_max=0.001",
        "failure_prob=0", "asteroid.subdivision_level=1",
    ])
    assert code == 0
    lines = read(out / "trajectory.csv").strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["step", "t_s"]
    assert "qw" in header and "thruster_11" in header
    assert len(lines) == 1 + 1 + 10  # header, initial state, 10 control steps
    # free drift must not burn propellant
    fuel_col = header.index("fuel_kg")
    assert all(float(line.split(",")[fuel_col]) == 0.0 for line in lines[1:])


def test_simulate_with_checkpoint_is_deterministic(trained_run, tmp_path):
    ck = str(trained_run / "checkpoint_000001.npz")
    args = [
        "simulate", "--checkpoint", ck, "--seed", "4",
        "duration=60", "asteroid.subdivision_level=1", "failure_prob=0",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a / "trajectory.csv") == read(b / "trajectory.csv")


def test_scan_debug_writes_grid(tmp_path, capsys):
    out = tmp_path / "scan"
    mesh_path = tmp_path / "peanut.obj"
    save_mesh(str(mesh_path), make_peanut_mesh(level=2))
    code = main([
        "scan-debug", "--mesh", str(mesh_path),
        "--position", "0", "0", "800", "--out", str(out),
    ])
    assert code == 0
    rows = read(out / "scan.csv").strip().splitlines()
    assert len(rows) == 8
    assert all(len(r.split(",")) == 8 for r in rows)
    values = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert values.min() > 0.0
    assert "returns" in capsys.readouterr().out


def test_scan_debug_synthesized_body(tmp_path):
    out = tmp_path / "scan"
    assert main(["scan-debug", "--seed", "3", "--out", str(out)]) == 0
    values = np.array(
        [[float(v) for v in r.split(",")] for r in read(out / "scan.csv").strip().splitlines()]
    )
    # boresight looks straight down onto the body from 2.5x the bound radius
    assert values[3:5, 3:5].max() < 2000.0


# --- top level -------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_runs_write_only_into_out_dir(tmp_path, monkeypatch):
    # run from a scratch cwd; nothing new may appear outside --out
    monkeypatch.chdir(tmp_path)
    before = set(os.listdir(tmp_path))
    out = tmp_path / "only_here"
    main(["gen-asteroid", "--seed", "2", "--out", str(out)])
    after = set(os.listdir(tmp_path))
    assert after - before == {"only_here"}
