"""Scenario presets, Monte-Carlo evaluation determinism, report statistics,
and the per-episode CSV contract."""

import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import asterhover
from asterhover import cli, evaluation, nn
from asterhover.cli import main
from asterhover.env import EpisodeConfig, HoverEnv
from asterhover.errors import ConfigurationError
from asterhover.evaluation import (
    MAX_EPISODES,
    EvalReport,
    Scenario,
    check_counts,
    get_scenario,
    load_policy,
    run_episode,
    run_monte_carlo,
    scenarios,
    summary_row,
)
from asterhover.geometry import save_mesh
from asterhover.ppo import build_networks
from geometry_reference import make_peanut_mesh


def quiet_scenario(**extra) -> Scenario:
    """Force-free short-episode case for fast, fully predictable runs."""
    overrides = {
        "duration": 60.0,
        "range_min": 100.0,
        "range_max": 150.0,
        "velocity_max": 0.0,
        "attitude_err_max_deg": 0.0,
        "omega_max": 0.0,
        "failure_prob": 0.0,
        "asteroid.subdivision_level": 1,
        "dyn.mass_min": 1.0e-6,
        "dyn.mass_max": 1.0e-6,
        "dyn.spin_min": 0.0,
        "dyn.spin_max": 0.0,
        "dyn.srp_max": 0.0,
    }
    overrides.update(extra)
    return Scenario(name="quiet-test", overrides=overrides)


class AllOffPolicy:
    """Scripted stub: every thruster stays off with near certainty."""

    def init_hidden(self, batch):
        return np.zeros((batch, 1))

    def step(self, image, vec, hidden):
        logits = np.zeros((image.shape[0], 12, 2))
        logits[..., 0] = 50.0
        return logits, hidden, None


def flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(flatten(v, key + "."))
        else:
            out[key] = v
    return out


# --------------------------------------------------------------------------
# Scenario presets

def test_preset_count_and_unique_names():
    table = scenarios()
    assert len(table) == 14
    names = [s.name for s in table]
    assert len(set(names)) == 14
    assert names[0] == "baseline"
    # fresh objects: a caller's edit reaches no later lookup
    table[1].overrides["duration"] = 60.0
    assert scenarios()[1].overrides == get_scenario(names[1]).overrides != table[1].overrides


def test_presets_differ_from_baseline_only_in_listed_fields(tmp_path):
    mesh_path = str(tmp_path / "standin.obj")
    save_mesh(mesh_path, make_peanut_mesh(level=1))
    base = flatten(dataclasses.asdict(EpisodeConfig()))
    for scenario in scenarios()[1:]:
        cfg = scenario.episode_config({"mesh_file": mesh_path} if scenario.requires_mesh else None)
        got = flatten(dataclasses.asdict(cfg))
        diffs = {k for k in base if got[k] != base[k]}
        allowed = set(scenario.overrides)
        if scenario.requires_mesh:
            allowed.add("mesh_file")
        assert diffs <= allowed, (scenario.name, diffs - allowed)
        # some listed fields restate a default (e.g. a 100 m altitude floor),
        # but every preset must change the task somehow
        assert diffs, scenario.name


def test_named_preset_values():
    by_name = {s.name: s for s in scenarios()}
    assert by_name["duration-1200"].overrides["duration"] == 1200.0
    assert by_name["itokawa3x"].overrides["mesh_scale"] == 3.0
    assert by_name["itokawa3x-extended"].overrides["mesh_scale"] == 3.0
    assert by_name["extended-altitude"].overrides == {
        "range_min": 10.0, "range_max": 700.0,
    }
    assert by_name["actuator-fail-0.5"].overrides["failure_scale"] == 0.5
    assert by_name["env-dynamics"].overrides["dyn.spin_max"] == 1.0e-3
    assert by_name["facets-1280"].overrides["asteroid.subdivision_level"] == 3


def test_get_scenario_lookup():
    assert get_scenario("baseline").name == "baseline"
    assert get_scenario("rq36").requires_mesh
    with pytest.raises(ConfigurationError, match="itokawa3x") as refused:
        get_scenario("nope")
    assert str(refused.value).endswith("known: " + ", ".join(s.name for s in scenarios()))


def test_baseline_scenario_is_defaults():
    cfg = get_scenario("baseline").episode_config()
    assert cfg == EpisodeConfig()


def test_mesh_scenario_without_file_is_clear_error():
    with pytest.raises(ConfigurationError, match="mesh"):
        get_scenario("rq36").episode_config()
    # the check reads the resolved config, whichever source set it last
    with pytest.raises(ConfigurationError, match="rq36.*mesh_file"):
        get_scenario("rq36").episode_config({"mesh_file": None, "duration": 60.0})


def test_unknown_override_field_rejected():
    with pytest.raises(ConfigurationError, match="no_such_field"):
        Scenario(name="bad", overrides={"no_such_field": 1}).episode_config()
    with pytest.raises(ConfigurationError, match="nosuch"):
        Scenario(name="bad", overrides={"nosuch.x": 1}).episode_config()
    with pytest.raises(ConfigurationError, match="dyn"):
        Scenario(name="bad", overrides={"dyn": 5}).episode_config()


# --------------------------------------------------------------------------
# Monte-Carlo runs

def test_run_is_deterministic_and_writes_files(tmp_path):
    policy = nn.PolicyNetwork(seed=3)
    out = tmp_path / "report"
    r1 = run_monte_carlo(policy, quiet_scenario(), 4, seed=9, out_dir=str(out))
    r2 = run_monte_carlo(policy, quiet_scenario(), 4, seed=9)
    assert r1 == r2
    assert r1.episodes == 4
    with open(out / "episodes.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert tuple(rows[0].keys()) == (
        "episode", "pos_err_m", "speed_cms", "omega_mrads", "gh1", "gh2",
        "violation", "fuel_kg", "reward", "steps",
    )
    assert sorted(os.listdir(out)) == ["episodes.csv", "summary.csv"]


def test_report_invariants_hold():
    policy = nn.PolicyNetwork(seed=4)
    report = run_monte_carlo(policy, quiet_scenario(), 5, seed=2)
    assert 0.0 <= report.gh1_pct <= 100.0
    assert 0.0 <= report.gh2_pct <= 100.0
    assert report.pos_err_max >= report.pos_err_mean
    assert report.speed_max >= report.speed_mean
    assert report.omega_max >= report.omega_mean
    assert report.fuel_max >= report.fuel_mean
    assert report.violations >= 0


def test_summary_matches_episode_csv_reclassification(tmp_path):
    policy = nn.PolicyNetwork(seed=5)
    out = tmp_path / "agree"
    report = run_monte_carlo(policy, quiet_scenario(), 6, seed=3, out_dir=str(out))
    with open(out / "episodes.csv") as fh:
        rows = list(csv.DictReader(fh))
    gh1 = 100.0 * sum(int(r["gh1"]) for r in rows) / len(rows)
    gh2 = 100.0 * sum(int(r["gh2"]) for r in rows) / len(rows)
    assert gh1 == report.gh1_pct
    assert gh2 == report.gh2_pct
    pos = np.array([float(r["pos_err_m"]) for r in rows])
    assert float(pos.max()) == report.pos_err_max


def test_fewer_than_one_episode_is_configuration_error(tmp_path):
    out = tmp_path / "empty"
    for n in (0, -3):
        with pytest.raises(ConfigurationError, match=f"n_episodes must be at least 1, got {n}"):
            run_monte_carlo(AllOffPolicy(), quiet_scenario(), n, seed=1, out_dir=str(out))
    assert not out.exists()


def test_episode_count_is_bounded(tmp_path):
    check_counts(MAX_EPISODES, 1)  # the bound itself passes; nothing is flown
    out = tmp_path / "many"
    past = MAX_EPISODES + 1
    with pytest.raises(ConfigurationError,
                       match=f"n_episodes must be at most {MAX_EPISODES}, got {past}"):
        run_monte_carlo(AllOffPolicy(), quiet_scenario(), past, seed=1, out_dir=str(out))
    assert not out.exists()


def test_fewer_than_one_worker_is_configuration_error(tmp_path):
    out = tmp_path / "empty"
    for workers in (0, -3):
        with pytest.raises(ConfigurationError, match=f"workers must be at least 1, got {workers}"):
            run_monte_carlo(
                AllOffPolicy(), quiet_scenario(), 2, seed=8, out_dir=str(out), workers=workers
            )
    assert not out.exists()


def test_perfect_hover_stub_scores_full_good_hover():
    report = run_monte_carlo(AllOffPolicy(), quiet_scenario(), 3, seed=7)
    assert report.gh1_pct == 100.0
    assert report.gh2_pct == 100.0
    assert report.fuel_mean == 0.0
    assert report.violations == 0
    assert report.pos_err_max < 1.0e-3


def test_checkpoint_path_policy_matches_object(tmp_path):
    policy = nn.PolicyNetwork(seed=11)
    value_net = nn.ValueNetwork(seed=12)
    path = str(tmp_path / "ck.npz")
    nn.save_checkpoint(path, policy, value_net)
    by_object = run_monte_carlo(policy, quiet_scenario(), 3, seed=5)
    by_path = run_monte_carlo(path, quiet_scenario(), 3, seed=5)
    assert by_object == by_path


def test_load_policy_draws_nothing(tmp_path, monkeypatch):
    # The checkpoint fills every parameter, so the networks it loads into
    # are built without QR or random draws, yet hold the same bytes in the
    # same layout as a seeded network that loaded it.
    path = str(tmp_path / "ck.npz")
    nn.save_checkpoint(path, nn.PolicyNetwork(seed=21), nn.ValueNetwork(seed=22))
    want = nn.PolicyNetwork(seed=0)
    nn.load_checkpoint(path, want, nn.ValueNetwork(seed=0))

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint load drew parameters")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    got = load_policy(path).parameters()
    assert list(got) == list(want.parameters())
    for name, arr in want.parameters().items():
        assert got[name].strides == arr.strides, name
        assert got[name].tobytes() == arr.tobytes(), name


def damaged_checkpoint(path, name, value):
    """Write networks 21 / 22 to `path` with array `name` dropped (value
    None) or replaced; returns the policy."""
    policy = nn.PolicyNetwork(seed=21)
    nn.save_checkpoint(path, policy, nn.ValueNetwork(seed=22))
    with np.load(path) as data:
        arrays = dict(data)
    if value is None:
        del arrays[name]
    else:
        arrays[name] = value
    np.savez(path, **arrays)
    return policy


@pytest.mark.parametrize("name, value", [
    ("policy/fc3.W", None), ("policy/gru.Uh", np.zeros((154, 153))),
])
def test_load_policy_refuses_missing_or_misshapen_arrays(tmp_path, name, value):
    path = str(tmp_path / "ck.npz")
    damaged_checkpoint(path, name, value)
    with pytest.raises(ConfigurationError, match=name.split("/")[1]):
        load_policy(path)


@pytest.mark.parametrize("name, value", [
    ("value/out.b", None), ("value/fc1.W", np.zeros((13, 2))),
])
def test_load_policy_reads_no_critic_array(tmp_path, monkeypatch, name, value):
    # only the metadata and the policy's arrays are read, so a damaged
    # critic does not stop its policy from loading
    path = str(tmp_path / "ck.npz")
    want = damaged_checkpoint(path, name, value)
    read = []
    original = np.lib.npyio.NpzFile.__getitem__

    def recording(self, key):
        read.append(key)
        return original(self, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
    got = load_policy(path).parameters()
    assert sorted(read) == ["__meta__", *sorted(f"policy/{k}" for k in want.parameters())]
    for k, arr in want.parameters().items():
        assert got[k].tobytes() == arr.tobytes(), k


def test_load_policy_computes_in_a_float32_checkpoints_dtype(tmp_path):
    path = str(tmp_path / "ck.npz")
    nn.save_checkpoint(path, *build_networks(23))
    policy = load_policy(path)
    assert policy.dtype == np.float32
    assert {a.dtype for a in policy.parameters().values()} == {np.dtype(np.float32)}
    rng = np.random.default_rng(23)
    logits, hidden, _ = policy.step(
        rng.normal(size=(1, 8, 8, 2)), rng.normal(size=(1, 7)), policy.init_hidden(1)
    )
    assert logits.dtype == hidden.dtype == np.float32


# sha256 of episodes.csv and summary.csv from `eval --scenario baseline
# --episodes 2 --seed 4` with the float64 checkpoint of PolicyNetwork(31) and
# ValueNetwork(32), as written before training moved to float32.
FLOAT64_EVAL_SHA256 = {
    "episodes.csv": "4638776d1ad2d6023ce38e32a71a5c5d4e826cfee3b348fd5917dee8781467b8",
    "summary.csv": "404e6c8094a39cf835ec285e6135739b48c835a4d20d0026ec7477e75e92c2ce",
}


def test_a_float64_checkpoint_evaluates_to_the_same_bytes(tmp_path):
    path = str(tmp_path / "ck.npz")
    want = nn.PolicyNetwork(seed=31)
    nn.save_checkpoint(path, want, nn.ValueNetwork(seed=32))
    got = load_policy(path)
    assert got.dtype == np.float64
    rng = np.random.default_rng(31)
    image, vec = rng.normal(size=(3, 8, 8, 2)), rng.normal(size=(3, 7))
    for a, b in zip(got.step(image, vec, got.init_hidden(3))[:2],
                    want.step(image, vec, want.init_hidden(3))[:2]):
        assert a.dtype == np.float64 and a.tobytes() == b.tobytes()

    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", path, "--scenario", "baseline", "--episodes", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    for name, digest in FLOAT64_EVAL_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_parallel_workers_match_serial(processes):
    # helpers inherit the policy object itself, so any policy the serial
    # path flies also flies in a helper, with or without parameters
    forked = processes(2)
    for policy in (nn.PolicyNetwork(seed=6), AllOffPolicy()):
        serial = run_monte_carlo(policy, quiet_scenario(), 4, seed=8, workers=1)
        parallel = run_monte_carlo(policy, quiet_scenario(), 4, seed=8, workers=2)
        assert serial == parallel
    assert [list(episodes) for episodes in forked] == [[1, 3], [1, 3]]


def test_eval_forks_no_more_processes_than_episodes(processes):
    forked = processes(8)  # the episodes bound here
    policy = AllOffPolicy()
    serial = run_monte_carlo(policy, quiet_scenario(), 2, seed=8, workers=1)
    assert forked == []
    assert run_monte_carlo(policy, quiet_scenario(), 2, seed=8, workers=4) == serial
    assert [list(episodes) for episodes in forked] == [[1]]
    assert run_monte_carlo(policy, quiet_scenario(), 1, seed=8, workers=4) == \
        run_monte_carlo(policy, quiet_scenario(), 1, seed=8, workers=1)
    assert len(forked) == 1  # one episode flies in this process


def test_eval_forks_no_more_processes_than_usable_cpus(processes):
    policy = AllOffPolicy()
    serial = run_monte_carlo(policy, quiet_scenario(), 4, seed=8, workers=1)
    for cpus, helpers in ((3, [[1], [2]]), (1, [])):
        forked = processes(cpus)
        assert run_monte_carlo(policy, quiet_scenario(), 4, seed=8, workers=8) == serial
        assert [list(episodes) for episodes in forked] == helpers


def test_the_first_failing_episode_raises_at_any_process_count(processes, monkeypatch, tmp_path):
    # in another process than this one, episode 1 fails only once episode 2
    # has, so that the first error to arrive is not the first episode's
    fly, parent, failed = evaluation.run_episode, os.getpid(), tmp_path / "episode-2-failed"

    def fail_one_and_two(env, policy, seed, idx, stochastic=False):
        if idx == 2:
            failed.touch()
        deadline = time.monotonic() + 30
        while idx == 1 and os.getpid() != parent and not failed.exists():
            assert time.monotonic() < deadline, "episode 2 did not fail"
            time.sleep(0.01)
        if idx in (1, 2):
            raise ValueError(f"episode {idx} failed")
        return fly(env, policy, seed, idx, stochastic)

    monkeypatch.setattr(evaluation, "run_episode", fail_one_and_two)
    forked = processes(2)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="episode 1 failed"):
            run_monte_carlo(AllOffPolicy(), quiet_scenario(), 4, seed=8, workers=workers)
    assert [list(episodes) for episodes in forked] == [[1, 3]]


# `python -c` probe: flies four episodes of a quiet scenario (its overrides
# as JSON in argv[1]) at workers=2 on two usable CPUs, with every
# environment step in a forked helper killing that helper, and prints as
# JSON the error the run raised and whether a child was left unreaped.
KILLED_HELPER_PROBE = """
import json, os, signal, sys
from asterhover import evaluation, nn, ppo
from asterhover.env import HoverEnv

parent, step = os.getpid(), HoverEnv.step

def step_or_die(self, action):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return step(self, action)

HoverEnv.step = step_or_die
ppo.BLAS_PINNED, ppo.usable_cpus = True, lambda: 2
scenario = evaluation.Scenario("quiet-test", overrides=json.loads(sys.argv[1]))
try:
    evaluation.run_monte_carlo(nn.PolicyNetwork(seed=6), scenario, 4, seed=8, workers=2)
    error = None
except RuntimeError as exc:
    error = str(exc)
try:
    os.waitpid(-1, os.WNOHANG)
    child_left = True
except ChildProcessError:
    child_left = False
print(json.dumps({"error": error, "child_left": child_left}))
"""


def test_a_killed_helper_fails_the_run_naming_its_episodes():
    # the run gets its own session and a timeout, so that a run waiting
    # forever on the killed helper fails this test and leaves no process
    src = os.path.dirname(os.path.dirname(asterhover.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-c", KILLED_HELPER_PROBE, json.dumps(quiet_scenario().overrides)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("eval with a killed helper did not exit within 60 s")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1]) == {
        "error": "the evaluation helper of episodes [1, 3] exited with code -9",
        "child_left": False,
    }


def test_workers_default_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    args = cli.build_parser().parse_args(["eval", "--checkpoint", "c.npz", "--all"])
    assert args.workers == 3


def test_pickled_env_and_policy_fly_the_same_episodes(tmp_path):
    # evaluation's helpers are forked and inherit the environment and
    # policy; a process started another way would need pickled copies
    mesh_path = str(tmp_path / "peanut.obj")
    save_mesh(mesh_path, make_peanut_mesh(level=2))
    cfg = quiet_scenario(mesh_file=mesh_path).episode_config()
    env, policy = HoverEnv(cfg), nn.PolicyNetwork(seed=10)
    env2, policy2 = pickle.loads(pickle.dumps((env, policy)))
    for idx in range(2):
        assert run_episode(env2, policy2, 12, idx) == run_episode(env, policy, 12, idx)


def test_stochastic_flag_changes_actions_deterministically():
    policy = nn.PolicyNetwork(seed=7)
    greedy = run_monte_carlo(policy, quiet_scenario(), 3, seed=4)
    s1 = run_monte_carlo(policy, quiet_scenario(), 3, seed=4, stochastic=True)
    s2 = run_monte_carlo(policy, quiet_scenario(), 3, seed=4, stochastic=True)
    assert s1 == s2
    assert s1 != greedy  # an untrained policy samples off-mode actions


def test_peanut_standin_mesh_scenario_runs(tmp_path):
    mesh_path = str(tmp_path / "peanut.obj")
    save_mesh(mesh_path, make_peanut_mesh(level=2))
    scenario = get_scenario("itokawa")
    scenario.overrides["duration"] = 60.0  # trim for test speed
    report = run_monte_carlo(
        AllOffPolicy(), scenario, 2, seed=13, mesh_file=mesh_path
    )
    assert report.episodes == 2
    assert report.scenario == "itokawa"


def test_a_cached_shape_model_flies_the_same_bytes(tmp_path):
    # cold: the file parsed and prepared (each test starts with no cached
    # body); warm: the body the first run left; rescaled: the body prepared
    # again from the parse of a run at another scale
    mesh_path = str(tmp_path / "peanut.obj")
    save_mesh(mesh_path, make_peanut_mesh(level=2))
    scenario = get_scenario("itokawa3x")
    scenario.overrides["duration"] = 60.0  # trim for test speed
    policy = nn.PolicyNetwork(seed=10)

    def fly(name: str) -> bytes:
        run_monte_carlo(policy, scenario, 2, seed=3, out_dir=str(tmp_path / name),
                        mesh_file=mesh_path)
        return (tmp_path / name / "episodes.csv").read_bytes()

    cold = fly("cold")
    assert fly("warm") == cold
    HoverEnv(EpisodeConfig(mesh_file=mesh_path))
    assert fly("rescaled") == cold


# --------------------------------------------------------------------------
# simulate and evaluation fly the same episode

# SeedSequence((seed, k)) pools the same 32-bit words as the integer
# seed + k * 2**32, so `simulate --seed` with that integer flies episode k
# of a Monte Carlo run at `seed`.
AGREE_SEED, AGREE_EPISODE = 7, 1
AGREE_OVERRIDES = {"duration": 60.0, "asteroid.subdivision_level": 1}


def simulate_rows(out, *args) -> list[dict]:
    sim_seed = AGREE_SEED + AGREE_EPISODE * 2**32
    assert np.array_equal(
        np.random.SeedSequence(sim_seed).generate_state(4),
        np.random.SeedSequence((AGREE_SEED, AGREE_EPISODE)).generate_state(4),
    )
    overrides = [f"{k}={v}" for k, v in AGREE_OVERRIDES.items()]
    assert main(["simulate", "--seed", str(sim_seed), "--out", str(out), *args, *overrides]) == 0
    with open(out / "trajectory.csv") as fh:
        return list(csv.DictReader(fh))


def assert_last_row_matches(rows, row):
    last = rows[-1]
    assert len(rows) - 1 == int(row["steps"])
    assert float(last["pos_err_m"]) == float(row["pos_err_m"])
    assert float(last["speed_ms"]) * 100.0 == float(row["speed_cms"])
    assert float(last["fuel_kg"]) == float(row["fuel_kg"])
    assert sum(float(r["reward"]) for r in rows[1:]) == float(row["reward"])


def test_simulate_matches_greedy_run_episode(tmp_path):
    path = str(tmp_path / "ck.npz")
    nn.save_checkpoint(path, nn.PolicyNetwork(seed=21), nn.ValueNetwork(seed=22))
    rows = simulate_rows(tmp_path / "sim", "--checkpoint", path)
    env = HoverEnv(Scenario("agree", overrides=AGREE_OVERRIDES).episode_config())
    row = run_episode(env, load_policy(path), AGREE_SEED, AGREE_EPISODE)
    assert row["fuel_kg"] > 0.0  # the untrained greedy policy fires
    assert_last_row_matches(rows, row)


def test_drift_simulate_matches_all_off_monte_carlo(tmp_path):
    rows = simulate_rows(tmp_path / "sim")
    thrusters = [f"thruster_{k}" for k in range(12)]
    assert all(float(r["fuel_kg"]) == 0.0 for r in rows)
    assert all(r[name] == "0" for r in rows for name in thrusters)
    out = tmp_path / "mc"
    run_monte_carlo(
        AllOffPolicy(), Scenario("agree", overrides=AGREE_OVERRIDES),
        AGREE_EPISODE + 1, AGREE_SEED, out_dir=str(out),
    )
    with open(out / "episodes.csv") as fh:
        row = list(csv.DictReader(fh))[AGREE_EPISODE]
    assert float(rows[-1]["pos_err_m"]) > 0.0  # the body's gravity moves it
    assert_last_row_matches(rows, row)


# --------------------------------------------------------------------------
# Summary formatting

def test_summary_row_shape():
    report = EvalReport(scenario="x", episodes=2)
    row = summary_row(report)
    assert row[0] == "x"
    assert row[1] == "2"
    assert len(row) == 17
