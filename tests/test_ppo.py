"""Rollout collection, advantage computation, clipped-surrogate updates,
and the training loop: determinism, identities, and resume semantics."""

import copy
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import asterhover
from asterhover import nn, ppo
from asterhover.env import EpisodeConfig, HoverEnv
from asterhover.errors import ConfigurationError, SimulationError
from asterhover.evaluation import fly_scenario
from asterhover.geometry import AsteroidDynRanges, AsteroidGenConfig
from asterhover.ppo import (
    METRICS_COLUMNS,
    STEP_FIELDS,
    EpisodeRollout,
    PPOConfig,
    RolloutBatch,
    TrainConfig,
    adapt_clip,
    build_networks,
    clipped_objective,
    collect_rollouts,
    compute_advantages,
    discounted_returns,
    latest_checkpoint,
    measure_kl,
    policy_minibatch_step,
    ppo_update,
    train,
    value_minibatch_step,
)

import ppo_reference
from env_reference import replay_episode


def tiny_config(**overrides) -> EpisodeConfig:
    """Ten-step episodes over a coarse mesh; cheap enough for update tests."""
    return EpisodeConfig(
        duration=60.0,
        range_min=100.0,
        range_max=150.0,
        velocity_max=0.01,
        attitude_err_max_deg=2.0,
        omega_max=0.001,
        failure_prob=0.0,
        asteroid=AsteroidGenConfig(subdivision_level=1),
        dyn=AsteroidDynRanges(spin_max=1.0e-5, srp_max=0.0),
        **overrides,
    )


def small_ppo(**overrides) -> PPOConfig:
    base = dict(episodes_per_batch=3, epochs=2, minibatch_episodes=2)
    base.update(overrides)
    return PPOConfig(**base)


def synthetic_batch(rng, T=6, B=4, nan_reward=False) -> RolloutBatch:
    """Hand-built episodes with varied lengths; logp_old is consistent with
    logits_old but unrelated to any particular policy."""
    episodes = []
    for b in range(B):
        n = T - (b % 2)
        logits_old = rng.standard_normal((n, 12, 2)) * 0.3
        actions = rng.integers(0, 2, size=(n, 12))
        rewards = rng.normal(size=n)
        if nan_reward and b == 0:
            rewards[0] = np.nan
        episodes.append(
            EpisodeRollout(
                images=rng.uniform(-0.5, 0.5, size=(n, 8, 8, 2)),
                vecs=rng.uniform(-0.5, 0.5, size=(n, 7)),
                value_inputs=rng.uniform(-1.0, 1.0, size=(n, 13)),
                actions=actions,
                logits_old=logits_old,
                logp_old=nn.action_log_prob(logits_old, actions),
                rewards=rewards,
                terminal_pos_err=float(rng.uniform(1.0, 10.0)),
                terminal_ok=False,
                violation=None,
                fuel_used=0.0,
            )
        )
    return RolloutBatch(episodes)


# --------------------------------------------------------------------------
# Config and returns

def test_ppo_config_validation():
    PPOConfig().validate()
    with pytest.raises(ConfigurationError):
        PPOConfig(gamma=0.0).validate()
    with pytest.raises(ConfigurationError):
        PPOConfig(clip_eps=1.0).validate()
    with pytest.raises(ConfigurationError):
        PPOConfig(epochs=0).validate()
    with pytest.raises(ConfigurationError):
        PPOConfig(kl_target=0.0).validate()


def test_batch_lane_steps_are_bounded():
    # validate only: at the bound and one lane past it, nothing collected
    per_lane = EpisodeConfig().max_steps
    lanes = ppo.MAX_BATCH_STEPS // per_lane
    assert lanes * per_lane == ppo.MAX_BATCH_STEPS
    TrainConfig(ppo=PPOConfig(episodes_per_batch=lanes)).validate()
    with pytest.raises(ConfigurationError, match=f"at most {ppo.MAX_BATCH_STEPS}"):
        TrainConfig(ppo=PPOConfig(episodes_per_batch=lanes + 1)).validate()
    # the same product reached through the episode length, at 50 lanes
    steps = ppo.MAX_BATCH_STEPS // 50
    wide = PPOConfig(episodes_per_batch=50)
    TrainConfig(EpisodeConfig(duration=6.0 * steps), wide).validate()
    with pytest.raises(ConfigurationError, match=f"at most {ppo.MAX_BATCH_STEPS}"):
        TrainConfig(EpisodeConfig(duration=6.0 * (steps + 1)), wide).validate()


def test_default_batch_is_thirty_episodes():
    assert PPOConfig().episodes_per_batch == 30


def test_discounted_returns_examples():
    np.testing.assert_allclose(
        discounted_returns(np.array([1.0, 1.0, 1.0]), 1.0), [3.0, 2.0, 1.0]
    )
    np.testing.assert_allclose(
        discounted_returns(np.array([1.0, 0.0, 1.0]), 0.9),
        [1.81, 0.9, 1.0],
        rtol=1e-15,
    )
    np.testing.assert_array_equal(discounted_returns(np.zeros(5), 0.99), np.zeros(5))


def test_rollout_batch_rejects_empty():
    with pytest.raises(ConfigurationError):
        RolloutBatch([])


def test_batch_padding_and_mask():
    rng = np.random.default_rng(1)
    batch = synthetic_batch(rng, T=6, B=4)
    assert batch.mask.shape == (6, 4)
    lengths = batch.mask.sum(axis=0)
    np.testing.assert_array_equal(lengths, [6, 5, 6, 5])
    # padded tail rows carry zeros everywhere
    assert np.all(batch.images[5, 1] == 0.0)
    assert np.all(batch.logp_old[5, 1] == 0.0)


# --------------------------------------------------------------------------
# Collection

def test_collect_rollouts_deterministic():
    env = HoverEnv(tiny_config())
    policy, _ = build_networks(seed=5)
    a = collect_rollouts(env, policy, small_ppo(), seed=11, batch_index=0)
    b = collect_rollouts(env, policy, small_ppo(), seed=11, batch_index=0)
    c = collect_rollouts(env, policy, small_ppo(), seed=11, batch_index=1)
    np.testing.assert_array_equal(a.rewards, b.rewards)
    np.testing.assert_array_equal(a.actions, b.actions)
    np.testing.assert_array_equal(a.logits_old, b.logits_old)
    assert not np.array_equal(a.rewards, c.rewards)


def test_collect_rollouts_shapes():
    env = HoverEnv(tiny_config())
    policy, _ = build_networks(seed=5)
    batch = collect_rollouts(env, policy, small_ppo(), seed=3, batch_index=0)
    assert batch.num_episodes == 3
    assert batch.images.shape == (10, 3, 8, 8, 2)  # 60 s / 6 s control period
    assert batch.mask.sum() == 30.0
    assert batch.episode_rewards().shape == (3,)
    assert np.all(batch.terminal_pos_errors() >= 0.0)


def test_replay_reproduces_behavior_log_probabilities():
    # frozen-parameter sequence replay from zero hidden state must recover
    # the stored log probabilities, so the first-update ratios are all one
    env = HoverEnv(tiny_config())
    policy, _ = build_networks(seed=6)
    batch = collect_rollouts(env, policy, small_ppo(), seed=4, batch_index=0)
    logits, _ = policy.forward_sequence(batch.images, batch.vecs)
    logp_new = nn.action_log_prob(logits, batch.actions)
    ratio = np.exp(logp_new - batch.logp_old)
    assert np.max(np.abs((ratio - 1.0) * batch.mask)) < 1e-10


def test_collected_lanes_replay_through_a_lone_environment():
    # Each lane of the lockstep collection flies its episode exactly as a
    # lone environment replaying the lane's actions does: images (noisy
    # ones here), vectors, critic inputs, rewards and terminal diagnostics.
    cfg = tiny_config(sensor_noise=True)
    cfg.omega_max = 0.099
    policy, _ = build_networks(seed=7)
    batch = collect_rollouts(HoverEnv(cfg), policy, small_ppo(episodes_per_batch=6), 11, 2)
    lengths = [ep.length for ep in batch.episodes]
    assert min(lengths) < max(lengths) == 10  # some lanes finish early
    for k, ep in enumerate(batch.episodes):
        got = replay_episode(HoverEnv(cfg), np.random.SeedSequence((11, 2, k)), ep.actions)
        for name in ("images", "vecs", "value_inputs", "rewards"):
            assert got[name].tobytes() == getattr(ep, name).tobytes()
        info = got["info"]
        assert ep.terminal_pos_err == info["pos_err"]
        assert ep.terminal_ok == info["terminal_ok"]
        assert ep.violation == info["violation"]
        assert ep.fuel_used == info["fuel_used"]


# --------------------------------------------------------------------------
# Collection across processes

def noisy_early_config() -> EpisodeConfig:
    """tiny_config with sensor noise and fast body rates that end some
    episodes early."""
    cfg = tiny_config(sensor_noise=True)
    cfg.omega_max = 0.099
    return cfg


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_collection_bytes_do_not_depend_on_the_process_count(processes):
    cfg = noisy_early_config()
    policy, _ = build_networks(seed=7)
    batches = {}
    for count in (1, 2, 3):
        forked = processes(count)
        batches[count] = collect_rollouts(HoverEnv(cfg), policy, small_ppo(episodes_per_batch=5),
                                          11, 2)
        assert [list(lanes) for lanes in forked] == [list(range(p, 5, count))
                                                     for p in range(1, count)]
        assert_no_child_left()
    one = batches[1]
    lengths = [ep.length for ep in one.episodes]
    assert min(lengths) < max(lengths) == 10  # some lanes end early
    for count in (2, 3):
        batch = batches[count]
        for name in ("lengths", "mask", *(name for name, _ in STEP_FIELDS)):
            a, b = getattr(one, name), getattr(batch, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        for a, b in zip(one.episodes, batch.episodes):
            assert (a.terminal_pos_err, a.terminal_ok, a.violation, a.fuel_used) == \
                (b.terminal_pos_err, b.terminal_ok, b.violation, b.fuel_used)


def test_training_bytes_do_not_depend_on_the_process_count(processes, tmp_path):
    runs = {}
    for count in (1, 2, 3):
        forked = processes(count)
        out = tmp_path / f"p{count}"
        train(train_config(out, episode=noisy_early_config(),
                           ppo=small_ppo(episodes_per_batch=5)))
        # two batches, each with count - 1 collection helpers and, from two
        # processes on, the update's critic helper
        assert len(forked) == 2 * (count - 1) + 2 * (count > 1)
        runs[count] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sorted(runs[1]) == ["checkpoint_000001.npz", "checkpoint_000002.npz", "metrics.csv"]
    assert runs[2] == runs[1] and runs[3] == runs[1]


def failing_lanes(monkeypatch, fails):
    """Make lane k's environment raise SimulationError in its reset (step
    None) or when it flies control step n, for each (k, n) of `fails`.
    Forked helpers inherit the patch."""
    reset, step = HoverEnv.reset, HoverEnv.step

    def reset_or_fail(self, seed=None):
        self.lane = seed.entropy[2]
        if (self.lane, None) in fails:
            raise SimulationError(f"lane {self.lane} failed to reset")
        return reset(self, seed)

    def step_or_fail(self, action):
        if (self.lane, self.steps) in fails:
            raise SimulationError(f"lane {self.lane} failed at step {self.steps}")
        step(self, action)

    monkeypatch.setattr(HoverEnv, "reset", reset_or_fail)
    monkeypatch.setattr(HoverEnv, "step", step_or_fail)


@pytest.mark.parametrize("fails,first", [
    ({(1, 3)}, "lane 1 failed at step 3"),  # in a helper at 2 and 3 processes
    ({(0, 4)}, "lane 0 failed at step 4"),  # in the parent's own lanes
    ({(1, 3), (2, 3)}, "lane 1 failed at step 3"),  # the same step: the lower lane
    ({(1, 5), (2, 3)}, "lane 2 failed at step 3"),  # the earlier step
    ({(4, None), (1, 0)}, "lane 4 failed to reset"),  # resets come before any step
    ({(3, 2), (1, 2), (4, 1)}, "lane 4 failed at step 1"),
])
def test_a_failed_lane_raises_what_one_process_raises(processes, monkeypatch, fails, first):
    failing_lanes(monkeypatch, fails)
    policy, _ = build_networks(seed=7)
    for count in (1, 2, 3):
        forked = processes(count)
        with pytest.raises(SimulationError) as err:
            collect_rollouts(HoverEnv(tiny_config()), policy, small_ppo(episodes_per_batch=5),
                             11, 0)
        assert len(forked) == count - 1
        assert_no_child_left()
        assert str(err.value) == f"batch 0 failed: {first}"


def test_a_helper_that_dies_is_an_error(processes, monkeypatch):
    step = HoverEnv.step
    parent = os.getpid()

    def step_or_die(self, action):
        if os.getpid() != parent:
            os._exit(3)
        step(self, action)

    monkeypatch.setattr(HoverEnv, "step", step_or_die)
    processes(2)
    with pytest.raises(RuntimeError, match="lanes \\[1, 3\\] exited with code 3"):
        collect_rollouts(HoverEnv(tiny_config()), build_networks(seed=7)[0],
                         small_ppo(episodes_per_batch=4), 11, 0)
    assert_no_child_left()


def test_one_process_when_blas_is_not_pinned_or_another_thread_runs(processes, monkeypatch):
    forked = processes(4)
    policy = build_networks(seed=7)[0]
    assert ppo.collection_processes(3) == 3 and ppo.collection_processes(9) == 4
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert ppo.collection_processes(9) == 1  # a fork would copy no other thread
        fly_scenario(policy, "tiny", HoverEnv(tiny_config()), 2, 11, workers=4)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(ppo, "BLAS_PINNED", False)
    assert ppo.collection_processes(9) == 1
    collect_rollouts(HoverEnv(tiny_config()), policy, small_ppo(), 11, 0)
    fly_scenario(policy, "tiny", HoverEnv(tiny_config()), 2, 11, workers=4)
    assert forked == []


# `python -c` probe: imports numpy before or after asterhover (argv[1]),
# collects a two-lane batch on two usable CPUs, and prints as JSON whether
# BLAS counts as pinned, OpenBLAS's live thread count (None where no
# OpenBLAS is loaded) and how many helpers the collection forked.
PIN_PROBE = """
import ctypes, json, sys
if sys.argv[1] == "numpy-first":
    import numpy
import asterhover
from asterhover import ppo
from asterhover.env import EpisodeConfig, HoverEnv
from asterhover.geometry import AsteroidGenConfig

def openblas_threads():
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return getter()
    return None

forked, fork_helper = [], ppo._fork_helper

def counting(*args):
    forked.append(None)
    return fork_helper(*args)

ppo._fork_helper, ppo.usable_cpus = counting, lambda: 2
env = HoverEnv(EpisodeConfig(duration=12.0, asteroid=AsteroidGenConfig(subdivision_level=1)))
policy, _ = ppo.build_networks(1)
ppo.collect_rollouts(env, policy, ppo.PPOConfig(episodes_per_batch=2), 1, 0)
print(json.dumps({"pinned": asterhover.BLAS_PINNED, "threads": openblas_threads(),
                  "forked": len(forked)}))
"""


def run_pin_probe(order):
    env = {name: value for name, value in os.environ.items()
           if name not in asterhover.BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(asterhover.__file__))
    proc = subprocess.run([sys.executable, "-c", PIN_PROBE, order], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_package_first_pins_one_blas_thread_and_forks_collection():
    probe = run_pin_probe("package-first")
    assert probe["pinned"] is True and probe["forked"] == 1
    assert probe["threads"] in (1, None)


def test_numpy_loaded_first_collects_in_one_process():
    probe = run_pin_probe("numpy-first")
    assert probe["pinned"] is False and probe["forked"] == 0


# --------------------------------------------------------------------------
# Advantages

class _ReturnOracle:
    """Stub critic whose forward output equals the padded returns."""

    def __init__(self, batch, gamma):
        self.table = np.zeros_like(batch.rewards)
        for b, ep in enumerate(batch.episodes):
            n = ep.length
            self.table[:n, b] = discounted_returns(batch.rewards[:n, b], gamma)

    def forward_sequence(self, xs, lengths=None):
        return self.table.copy(), None


def test_perfect_value_gives_zero_advantages():
    rng = np.random.default_rng(2)
    batch = synthetic_batch(rng)
    oracle = _ReturnOracle(batch, gamma=0.9)
    compute_advantages(batch, 0.9, oracle)
    # one pass over the padded rewards gives each episode's own returns
    np.testing.assert_array_equal(batch.returns, oracle.table)
    np.testing.assert_allclose(batch.advantages, 0.0, atol=1e-12)


def test_advantages_are_batch_normalized():
    rng = np.random.default_rng(3)
    batch = synthetic_batch(rng)
    _, value_net = build_networks(seed=9)
    compute_advantages(batch, 0.99, value_net)
    total = batch.mask.sum()
    mean = batch.advantages.sum() / total
    var = ((batch.advantages - mean * batch.mask) ** 2).sum() / total
    assert abs(mean) < 1e-12
    np.testing.assert_allclose(var, 1.0, rtol=1e-6)
    # padded slots stay zero
    assert np.all(batch.advantages[batch.mask == 0.0] == 0.0)


def test_zero_rewards_give_zero_returns():
    rng = np.random.default_rng(4)
    batch = synthetic_batch(rng)
    batch.rewards[...] = 0.0
    for ep in batch.episodes:
        ep.rewards[...] = 0.0
    _, value_net = build_networks(seed=9)
    compute_advantages(batch, 0.99, value_net)
    np.testing.assert_array_equal(batch.returns, np.zeros_like(batch.returns))


# --------------------------------------------------------------------------
# Surrogate and clip adaptation

def test_clipped_objective_single_transition_example():
    # A=1, ratio=1.5, eps=0.2: min(1.5, 1.2) = 1.2
    assert clipped_objective(np.array(1.5), np.array(1.0), 0.2) == pytest.approx(1.2)


def test_clipped_objective_is_lower_bound():
    rng = np.random.default_rng(5)
    ratio = np.exp(rng.normal(size=500) * 0.5)
    adv = rng.normal(size=500)
    surr = clipped_objective(ratio, adv, 0.2)
    assert np.all(surr <= ratio * adv + 1e-15)


def test_adapt_clip_rules():
    assert adapt_clip(1.0e-3, 1.0e-3, 0.2) == 0.2           # at target: hold
    assert adapt_clip(1.0e-2, 1.0e-3, 0.3) == pytest.approx(0.2)  # 10x: shrink
    assert adapt_clip(4.0e-4, 1.0e-3, 0.2) == pytest.approx(0.3)  # <half: grow
    assert adapt_clip(1.0, 1.0e-3, 0.012) == 0.01           # floor
    assert adapt_clip(0.0, 1.0e-3, 0.45) == 0.5             # ceiling
    eps = 0.2
    for _ in range(30):
        eps = adapt_clip(0.5, 1.0e-3, eps)
    assert eps == 0.01                                       # floor is a fixed point


# --------------------------------------------------------------------------
# Update steps

def test_zero_advantages_leave_policy_unchanged():
    rng = np.random.default_rng(6)
    batch = synthetic_batch(rng)
    policy, _ = build_networks(seed=10)
    opt = nn.Adam(policy.parameters(), lr=3e-4)
    before = {k: v.copy() for k, v in policy.parameters().items()}
    obj, _, ok = policy_minibatch_step(
        policy, opt, batch.images, batch.vecs, batch.actions, batch.logp_old,
        np.zeros_like(batch.logp_old), batch.mask, 0.2,
    )
    assert ok and obj == 0.0
    for k, v in policy.parameters().items():
        np.testing.assert_array_equal(v, before[k])


def test_policy_step_increases_surrogate():
    rng = np.random.default_rng(7)
    batch = synthetic_batch(rng, T=8, B=4)
    policy, value_net = build_networks(seed=11)
    compute_advantages(batch, 0.99, value_net)
    opt = nn.Adam(policy.parameters(), lr=1e-3)
    args = (batch.images, batch.vecs, batch.actions, batch.logp_old,
            batch.advantages, batch.mask, 0.2)
    first, _, ok = policy_minibatch_step(policy, opt, *args)
    assert ok
    for _ in range(10):
        last, _, ok = policy_minibatch_step(policy, opt, *args)
        assert ok
    assert last > first


def test_value_regression_converges_on_constant_returns():
    rng = np.random.default_rng(8)
    inputs = rng.uniform(-1.0, 1.0, size=(5, 4, 13))
    returns = np.full((5, 4), 3.0)
    mask = np.ones((5, 4))
    _, value_net = build_networks(seed=12)
    opt = nn.Adam(value_net.parameters(), lr=1e-2)
    loss = np.inf
    for _ in range(3000):
        loss, ok = value_minibatch_step(value_net, opt, inputs, returns, mask)
        assert ok
        if loss < 1e-6:
            break
    assert loss < 1e-6


def test_nonfinite_rewards_abort_update_without_stepping():
    rng = np.random.default_rng(9)
    batch = synthetic_batch(rng, nan_reward=True)
    policy, value_net = build_networks(seed=13)
    popt = nn.Adam(policy.parameters(), lr=3e-4)
    vopt = nn.Adam(value_net.parameters(), lr=1e-3)
    before = {k: v.copy() for k, v in policy.parameters().items()}
    stats = ppo_update(
        policy, value_net, batch, small_ppo(), popt, vopt,
        np.random.default_rng(0),
    )
    assert stats.aborted
    assert "epoch 0" in stats.diagnostics
    for k, v in policy.parameters().items():
        np.testing.assert_array_equal(v, before[k])


def test_nonfinite_policy_step_aborts_update_without_stepping():
    # a nan image leaves the advantages finite and poisons the first
    # policy minibatch; nothing steps, not even the critic
    rng = np.random.default_rng(9)
    batch = synthetic_batch(rng)
    batch.images[0, :, 0, 0, 0] = np.nan
    policy, value_net = build_networks(seed=13)
    popt = nn.Adam(policy.parameters(), lr=3e-4)
    vopt = nn.Adam(value_net.parameters(), lr=1e-3)
    params = [*policy.parameters().values(), *value_net.parameters().values()]
    before = [v.copy() for v in params]
    stats = ppo_update(
        policy, value_net, batch, small_ppo(), popt, vopt,
        np.random.default_rng(0), clip_eps=0.3,
    )
    assert stats.aborted
    assert stats.diagnostics == "non-finite policy step at epoch 0"
    assert (stats.kl, stats.policy_epochs, stats.new_clip_eps) == (0.0, 0, 0.3)
    assert np.isnan(stats.value_loss)
    for v, w in zip(params, before):
        np.testing.assert_array_equal(v, w)
    assert popt.t == 0 and vopt.t == 0


def test_nonfinite_value_step_aborts_update_without_stepping():
    # critic outputs near 1e200 overflow the squared error but not the
    # normalized advantages, so the first value minibatch aborts; float64
    # networks, since a float32 bias would hold 1e200 as inf and the update
    # would abort on the advantages instead
    rng = np.random.default_rng(9)
    batch = synthetic_batch(rng)
    policy = nn.PolicyNetwork(seed=13, dtype=np.float64)
    value_net = nn.ValueNetwork(seed=13, dtype=np.float64)
    value_net.layers["out"].b[...] = 1.0e200
    popt = nn.Adam(policy.parameters(), lr=3e-4)
    vopt = nn.Adam(value_net.parameters(), lr=1e-3)
    before = {k: v.copy() for k, v in value_net.parameters().items()}
    with np.errstate(over="ignore", invalid="ignore"):
        stats = ppo_update(
            policy, value_net, batch, small_ppo(), popt, vopt,
            np.random.default_rng(0), clip_eps=0.3,
        )
    assert stats.aborted
    assert stats.diagnostics == "non-finite value step at epoch 0"
    assert (stats.kl, stats.policy_epochs, stats.new_clip_eps) == (0.0, 0, 0.3)
    assert stats.value_loss == np.inf
    for k, v in value_net.parameters().items():
        np.testing.assert_array_equal(v, before[k])
    assert popt.t == 1 and vopt.t == 0  # the policy minibatch before it stepped


def test_ppo_update_stats_and_adaptation():
    env = HoverEnv(tiny_config())
    policy, value_net = build_networks(seed=14)
    batch = collect_rollouts(env, policy, small_ppo(), seed=21, batch_index=0)
    popt = nn.Adam(policy.parameters(), lr=3e-4)
    vopt = nn.Adam(value_net.parameters(), lr=1e-3)
    cfg = small_ppo(epochs=4)
    before = {k: v.copy() for k, v in policy.parameters().items()}
    stats = ppo_update(policy, value_net, batch, cfg, popt, vopt,
                       np.random.default_rng(1))
    assert not stats.aborted
    assert np.isfinite(stats.kl) and stats.kl >= 0.0
    assert 0.0 <= stats.clip_fraction <= 1.0
    assert 0.01 <= stats.new_clip_eps <= 0.5
    assert 1 <= stats.policy_epochs <= cfg.epochs
    assert any(
        not np.array_equal(v, before[k]) for k, v in policy.parameters().items()
    )


def test_large_steps_trigger_kl_early_stop():
    env = HoverEnv(tiny_config())
    policy, value_net = build_networks(seed=15)
    batch = collect_rollouts(env, policy, small_ppo(), seed=22, batch_index=0)
    popt = nn.Adam(policy.parameters(), lr=5e-2)  # oversized on purpose
    vopt = nn.Adam(value_net.parameters(), lr=1e-3)
    cfg = small_ppo(epochs=10)
    stats = ppo_update(policy, value_net, batch, cfg, popt, vopt,
                       np.random.default_rng(2))
    assert stats.policy_epochs < cfg.epochs
    assert stats.kl > 1.5 * cfg.kl_target
    assert stats.new_clip_eps < cfg.clip_eps


def test_no_critic_replay_after_the_kl_stop(monkeypatch):
    # After the KL stop no policy step reads the advantages, so the critic
    # is replayed only at the start of the epochs that take policy steps.
    # The second run puts back the replays the update made before, one
    # ahead of each value step after the stop: stats and networks must not
    # move.
    env = HoverEnv(tiny_config())
    cfg = small_ppo(epochs=6)
    runs = []
    for replay_after_stop in (False, True):
        policy, value_net = build_networks(seed=15)
        batch = collect_rollouts(env, policy, cfg, seed=22, batch_index=0)
        replays, stopped = [], []

        def counted_replay(*args):
            replays.append(args)
            return compute_advantages(*args)

        def watched_kl(*args):
            kl = measure_kl(*args)
            if kl > 1.5 * cfg.kl_target:
                stopped.append(kl)
            return kl

        def value_step(net, *args):
            if replay_after_stop and stopped:
                compute_advantages(batch, cfg.gamma, net)
            return value_minibatch_step(net, *args)

        monkeypatch.setattr(ppo, "compute_advantages", counted_replay)
        monkeypatch.setattr(ppo, "measure_kl", watched_kl)
        monkeypatch.setattr(ppo, "value_minibatch_step", value_step)
        stats = ppo_update(
            policy, value_net, batch, cfg,
            nn.Adam(policy.parameters(), lr=5e-2),  # oversized, so the KL stops it
            nn.Adam(value_net.parameters(), lr=1e-3), np.random.default_rng(2),
        )
        assert stopped and stats.policy_epochs < cfg.epochs
        assert len(replays) == stats.policy_epochs
        runs.append((stats, [p.tobytes() for net in (policy, value_net)
                             for p in net.parameters().values()]))
    assert runs[0] == runs[1]


# The interleaved loop the update is pinned to, case by case: ordinary
# epochs, the KL stop, and each kind of abort, the last three forced by
# patching a step function to fail once its optimizer has taken `fail`
# steps (so the failing call is the same in every process and replay).
UPDATE_CASES = {
    "ordinary": dict(lr=3e-4, epochs=4),
    "kl stop": dict(lr=5e-2, epochs=6),
    "advantages": dict(lr=3e-4, epochs=4, advantages_fail=2),
    "policy step": dict(lr=3e-4, epochs=4, policy_fail=3),
    "value step": dict(lr=3e-4, epochs=4, value_fail=3),
    "value step after the kl stop": dict(lr=5e-2, epochs=6, value_fail=8),
}
UPDATE_OUTCOMES = {  # (diagnostics, policy epochs or None for "before the last epoch")
    "ordinary": ("", 4),
    "kl stop": ("", None),
    "advantages": ("non-finite advantages at epoch 2", 2),
    "policy step": ("non-finite policy step at epoch 1", 1),
    "value step": ("non-finite value step at epoch 1", 1),
    "value step after the kl stop": ("non-finite value step at epoch 4", None),
}


@pytest.fixture(scope="module")
def update_batch():
    policy, _ = build_networks(seed=15)
    return collect_rollouts(HoverEnv(tiny_config()), policy, small_ppo(), seed=22, batch_index=0)


def run_update(update, batch, monkeypatch, lr, epochs, advantages_fail=None,
               policy_fail=None, value_fail=None):
    """`update` on fresh networks and a copy of `batch`, with the case's
    failure patched in; returns every byte it leaves behind."""
    batch = copy.deepcopy(batch)
    policy, value_net = build_networks(seed=15)
    popt = nn.Adam(policy.parameters(), lr=lr)
    vopt = nn.Adam(value_net.parameters(), lr=1.0e-3)
    replays = []

    def advantages(batch, gamma, net):
        compute_advantages(batch, gamma, net)
        replays.append(None)
        if advantages_fail is not None and len(replays) == advantages_fail + 1:
            batch.advantages[0, 0] = np.nan
        return batch

    def policy_step(policy, opt, *args):
        if opt.t == policy_fail:
            return float("nan"), 0.0, False
        return policy_minibatch_step(policy, opt, *args)

    def value_step(net, opt, *args):
        if opt.t == value_fail:
            return float("inf"), False
        return value_minibatch_step(net, opt, *args)

    monkeypatch.setattr(ppo, "compute_advantages", advantages)
    monkeypatch.setattr(ppo, "policy_minibatch_step", policy_step)
    monkeypatch.setattr(ppo, "value_minibatch_step", value_step)
    stats = update(policy, value_net, batch, small_ppo(epochs=epochs), popt, vopt,
                   np.random.default_rng(2), clip_eps=0.3)
    return {
        "stats": repr(stats),
        "parameters": [p.tobytes() for net in (policy, value_net)
                       for p in net.parameters().values()],
        "optimizers": [(opt.t, [a.tobytes() for a in opt.state_arrays().values()])
                       for opt in (popt, vopt)],
        "batch": [getattr(batch, name).tobytes() for name in ("returns", "values", "advantages")],
    }, stats


@pytest.mark.parametrize("case", UPDATE_CASES)
def test_update_equals_the_interleaved_loop_at_one_and_two_processes(
    processes, monkeypatch, update_batch, case
):
    reference, stats = run_update(ppo_reference.ppo_update, update_batch, monkeypatch,
                                  **UPDATE_CASES[case])
    diagnostics, policy_epochs = UPDATE_OUTCOMES[case]
    assert stats.diagnostics == diagnostics
    if policy_epochs is None:
        assert stats.policy_epochs < UPDATE_CASES[case]["epochs"] - 1
    else:
        assert stats.policy_epochs == policy_epochs
    for count in (1, 2):
        forked = processes(count)
        got, _ = run_update(ppo_update, update_batch, monkeypatch, **UPDATE_CASES[case])
        assert len(forked) == count - 1
        assert_no_child_left()
        assert got == reference, count


def test_a_critic_helper_that_dies_is_an_error(processes, monkeypatch, update_batch):
    parent = os.getpid()

    def value_step_or_die(*args):
        if os.getpid() != parent:
            os._exit(3)
        return value_minibatch_step(*args)

    monkeypatch.setattr(ppo, "value_minibatch_step", value_step_or_die)
    processes(2)
    policy, value_net = build_networks(seed=15)
    with pytest.raises(RuntimeError, match="critic helper of the update exited with code 3"):
        ppo_update(policy, value_net, copy.deepcopy(update_batch), small_ppo(),
                   nn.Adam(policy.parameters()), nn.Adam(value_net.parameters()),
                   np.random.default_rng(2))
    assert_no_child_left()


def traced_peak(fn) -> int:
    """The most bytes traced at once while `fn` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# measure_kl's replay keeps no backward cache. On this batch it peaks at
# 0.72 of the cached forward (its largest array is conv1's patch matrix); a
# replay that built the cache would peak at 1.0.
KL_OVER_CACHED_PEAK = 0.8


def test_kl_replay_peaks_below_the_cached_forward():
    batch = synthetic_batch(np.random.default_rng(8), T=100, B=30)
    policy, _ = build_networks(seed=4)
    kl_peak = traced_peak(lambda: measure_kl(policy, batch))
    cached_peak = traced_peak(
        lambda: policy.forward_sequence(batch.images, batch.vecs, batch.lengths)
    )
    assert kl_peak < KL_OVER_CACHED_PEAK * cached_peak, (kl_peak, cached_peak)


def test_minibatch_masks_must_mark_episode_prefixes():
    rng = np.random.default_rng(6)
    batch = synthetic_batch(rng)
    policy, value_net = build_networks(seed=10)
    mask = batch.mask.copy()
    mask[0, 1] = 0.0  # a hole at the start of episode 1
    with pytest.raises(ConfigurationError, match="mask"):
        policy_minibatch_step(
            policy, nn.Adam(policy.parameters()), batch.images, batch.vecs,
            batch.actions, batch.logp_old, np.zeros_like(batch.logp_old), mask, 0.2,
        )
    with pytest.raises(ConfigurationError, match="mask"):
        value_minibatch_step(value_net, nn.Adam(value_net.parameters()),
                             batch.value_inputs, batch.returns, mask)


# --------------------------------------------------------------------------
# Training loop

def train_config(out_dir, **overrides) -> TrainConfig:
    base = dict(
        episode=tiny_config(),
        ppo=small_ppo(),
        seed=7,
        batches=2,
        out_dir=str(out_dir),
        checkpoint_every=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_writes_metrics_config_and_checkpoints(tmp_path):
    path = train(train_config(tmp_path / "run"))
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0].startswith(
        "batch,mean_reward,std_reward,mean_term_pos_err,max_term_pos_err"
    )
    assert len(lines) == 3  # header + 2 batches
    assert lines[1].split(",")[0] == "0"
    # the run config is recorded once, by the CLI's resolved_config.yaml
    assert sorted(os.listdir(tmp_path / "run")) == [
        "checkpoint_000001.npz", "checkpoint_000002.npz", "metrics.csv",
    ]


def test_metrics_columns_count_outcomes_fuel_and_aborts(tmp_path):
    episode = tiny_config()
    episode.omega_max = 0.099  # some episodes end in a rotation breach
    cfg = train_config(tmp_path / "run", episode=episode, ppo=small_ppo(episodes_per_batch=6),
                       batches=1)
    with open(train(cfg)) as fh:
        header, row = (line.split(",") for line in fh.read().strip().split("\n"))
    assert tuple(header) == METRICS_COLUMNS
    got = dict(zip(header, row))
    # batch 0 is collected by the fresh networks
    batch = collect_rollouts(HoverEnv(episode), build_networks(7)[0], cfg.ppo, 7, 0)
    episodes = batch.episodes
    kinds = [ep.violation for ep in episodes]
    assert kinds.count("rotation") > 0
    assert float(got["success_rate"]) == np.mean([ep.terminal_ok for ep in episodes])
    for kind in ("rotation", "all_miss", "fuel"):
        assert got[f"violations_{kind}"] == str(kinds.count(kind))
    assert float(got["mean_fuel"]) == np.mean([ep.fuel_used for ep in episodes])
    assert got["aborted"] == "0"


def test_train_rerun_is_byte_identical(tmp_path):
    p1 = train(train_config(tmp_path / "a"))
    p2 = train(train_config(tmp_path / "b"))
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_train_resume_matches_uninterrupted_run(tmp_path):
    full = train(train_config(tmp_path / "full", batches=4, checkpoint_every=2))
    train(train_config(tmp_path / "split", batches=2, checkpoint_every=2))
    resumed = train(
        train_config(tmp_path / "split", batches=4, checkpoint_every=2, resume=True)
    )
    with open(full) as f1, open(resumed) as f2:
        assert f1.read() == f2.read()
    # final checkpoints hold identical parameters
    pa, va = build_networks(seed=0)
    pb, vb = build_networks(seed=1)
    nn.load_checkpoint(str(tmp_path / "full" / "checkpoint_000004.npz"), pa, va)
    nn.load_checkpoint(str(tmp_path / "split" / "checkpoint_000004.npz"), pb, vb)
    for k, v in pa.parameters().items():
        np.testing.assert_array_equal(v, pb.parameters()[k])
    for k, v in va.parameters().items():
        np.testing.assert_array_equal(v, vb.parameters()[k])


def test_resume_after_lost_checkpoint_matches_uninterrupted_run(tmp_path):
    # Killed after batch 2's row was flushed but before its checkpoint was
    # written: the resume restarts from checkpoint 2 and must not keep the
    # stale row of batch 2 next to the one it writes again.
    full = train(train_config(tmp_path / "full", batches=3, checkpoint_every=2))
    train(train_config(tmp_path / "cut", batches=3, checkpoint_every=2))
    (tmp_path / "cut" / "checkpoint_000003.npz").unlink()
    resumed = train(
        train_config(tmp_path / "cut", batches=3, checkpoint_every=2, resume=True)
    )
    with open(full, "rb") as f1, open(resumed, "rb") as f2:
        assert f1.read() == f2.read()


def test_checkpoint_write_failure_keeps_previous_checkpoint(tmp_path, monkeypatch):
    policy, value_net = build_networks(seed=3)
    first = tmp_path / "checkpoint_000001.npz"
    nn.save_checkpoint(str(first), policy, value_net, extra={"next_batch": 1})

    def savez_then_fail(file, *args, **kwargs):
        file.write(b"PK\x03\x04 partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError):
        nn.save_checkpoint(
            str(tmp_path / "checkpoint_000002.npz"), policy, value_net,
            extra={"next_batch": 2},
        )
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_000001.npz"]
    assert latest_checkpoint(str(tmp_path)) == str(first)
    meta = nn.load_checkpoint(str(first), policy, value_net)
    assert meta["extra"]["next_batch"] == 1


def test_resume_without_checkpoint_is_an_error(tmp_path):
    cfg = train_config(tmp_path / "empty", resume=True)
    with pytest.raises(ConfigurationError):
        train(cfg)
    assert latest_checkpoint(str(tmp_path / "empty")) is None


def test_build_networks_deterministic():
    p1, v1 = build_networks(seed=42)
    p2, v2 = build_networks(seed=42)
    for k, v in p1.parameters().items():
        np.testing.assert_array_equal(v, p2.parameters()[k])
    for k, v in v1.parameters().items():
        np.testing.assert_array_equal(v, v2.parameters()[k])
