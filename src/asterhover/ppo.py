"""Clipped-surrogate policy optimization over recurrent rollouts.

Training alternates three phases: collect a batch of full episodes with the
stochastic policy, recompute empirical returns and advantages with a fresh
critic replay, then take several epochs of minibatch gradient steps on the
clipped surrogate (policy) and squared-error return regression (critic).
The clip range adapts toward a target KL divergence between consecutive
policies.

Minibatches are whole episodes, never shuffled transitions: the recurrent
hidden state must be replayed in order from the episode start. Episodes are
zero-padded to a common length and masked, and the networks run on the real
steps alone (each mask's column lengths): padded steps come after an
episode's real ones, so they change neither its outputs nor its gradients.

All randomness is derived from named seed streams, so a rerun of the same
config is bit-identical and training can resume from a checkpoint without
replaying earlier batches.
"""

from __future__ import annotations

import copy
import functools
import glob
import io
import mmap
import os
import pickle
import re
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import BLAS_PINNED, nn, usable_cpus
from .config import csv_field, replacing
from .env import CONTROL_PERIOD, VIOLATION_KINDS, EpisodeConfig, HoverEnv, rollout
from .errors import ConfigurationError, SimulationError

# Stream tags keep the per-episode, per-action, and per-update rng draws on
# disjoint seed sequences. Episode index occupies the third slot for
# environment streams, so tags must exceed any realistic batch size.
ACTION_STREAM = 7001
UPDATE_STREAM = 7002
INIT_STREAM = 4242

# Training builds its networks in float32: the update runs at about half the
# float64 cost. A float64 network still trains and evaluates as before.
NETWORK_DTYPE = np.float32

# Lane steps per batch (episodes_per_batch x max_steps): collection's
# (lane, step, ...) buffers take 1388 bytes per lane step, so at most
# 138.8 MB. The default batch is 30 x 100 = 3000, and 30 episodes of the
# longest preset, duration-1200, are 6000.
MAX_BATCH_STEPS = 100_000

# Epochs per update (default 10): ppo_update maps epochs + 1 critic rows of
# 167,936 bytes at the default sizes, at most 17.0 MB. Each of its chains
# holds one epoch's minibatch views at a time, about 128 bytes each (12.8 MB
# at 100,000 one-episode minibatches, the most MAX_BATCH_STEPS allows). On
# one process the value steps' statuses wait in a buffer, 9 bytes a step:
# at most 90 MB.
MAX_EPOCHS = 100


@dataclass
class PPOConfig:
    """Update hyperparameters.

    clip_eps is the initial clip range; training adapts it between batches
    to hold the measured KL near kl_target.
    """

    gamma: float = 0.99              # reward discount per 6 s control step
    clip_eps: float = 0.2
    kl_target: float = 1.0e-3
    epochs: int = 10
    episodes_per_batch: int = 30
    minibatch_episodes: int = 10
    policy_lr: float = 3.0e-4
    value_lr: float = 1.0e-3

    def validate(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigurationError("gamma must be in (0, 1]")
        if not 0.0 < self.clip_eps < 1.0:
            raise ConfigurationError("clip_eps must be in (0, 1)")
        if self.kl_target <= 0.0:
            raise ConfigurationError("kl_target must be positive")
        for name in ("epochs", "episodes_per_batch", "minibatch_episodes"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.epochs > MAX_EPOCHS:
            raise ConfigurationError(f"epochs must be at most {MAX_EPOCHS}, got {self.epochs}")
        if self.policy_lr <= 0.0 or self.value_lr <= 0.0:
            raise ConfigurationError("learning rates must be positive")


# The per-step fields of EpisodeRollout, each the (T, ...) stack of one
# attribute of env.Step: collection fills them lane by lane, and
# RolloutBatch pads each to (T_max, B, ...).
STEP_FIELDS = (
    ("images", "image"),
    ("vecs", "vec"),
    ("value_inputs", "value_input"),
    ("actions", "action"),
    ("logits_old", "logits"),
    ("logp_old", "logp"),
    ("rewards", "reward"),
)


@dataclass
class EpisodeRollout:
    """One episode's sequence data plus terminal diagnostics.

    Each per-step array (STEP_FIELDS) is (T, ...), row t taken from the
    ``env.Step`` of control step t.
    """

    images: np.ndarray        # scaled policy image inputs
    vecs: np.ndarray          # scaled policy vector inputs
    value_inputs: np.ndarray  # scaled critic inputs
    actions: np.ndarray       # on/off bits
    logits_old: np.ndarray    # behavior-policy logits
    logp_old: np.ndarray      # behavior-policy log probabilities of the actions
    rewards: np.ndarray
    terminal_pos_err: float   # m
    terminal_ok: bool
    violation: str | None
    fuel_used: float          # kg

    @property
    def length(self) -> int:
        return self.rewards.shape[0]

    @property
    def total_reward(self) -> float:
        return float(self.rewards.sum())


class RolloutBatch:
    """A batch of episodes with zero-padded time-major array views.

    Each per-step field (STEP_FIELDS) is padded to (T_max, B, ...), with
    mask[t, b] = 1 on the ``lengths[b]`` real steps; the network inputs (images, vecs and
    value_inputs) are stored in the networks' `dtype`, so that minibatch
    slices reach them without another cast. Returns, values, and advantages
    are filled in by compute_advantages.
    """

    def __init__(self, episodes: list[EpisodeRollout], dtype=NETWORK_DTYPE):
        if not episodes:
            raise ConfigurationError("batch needs at least one episode")
        self.episodes = episodes
        B = len(episodes)
        T = max(ep.length for ep in episodes)
        for name, _ in STEP_FIELDS:
            first = getattr(episodes[0], name)
            inputs = name in ("images", "vecs", "value_inputs")
            padded = np.zeros((T, B) + first.shape[1:], dtype if inputs else first.dtype)
            for b, ep in enumerate(episodes):
                padded[:ep.length, b] = getattr(ep, name)
            setattr(self, name, padded)
        self.lengths = np.array([ep.length for ep in episodes])
        self.mask = (np.arange(T)[:, None] < self.lengths).astype(np.float64)
        self.returns = np.zeros((T, B))
        self.values = np.zeros((T, B))
        self.advantages = np.zeros((T, B))

    @property
    def num_episodes(self) -> int:
        return len(self.episodes)

    def episode_rewards(self) -> np.ndarray:
        return np.array([ep.total_reward for ep in self.episodes])

    def terminal_pos_errors(self) -> np.ndarray:
        return np.array([ep.terminal_pos_err for ep in self.episodes])


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Suffix sums over the first (time) axis:
    return_k = sum_{l>=k} gamma^(l-k) * r_l."""
    out = np.empty_like(np.asarray(rewards, dtype=float))
    acc = 0.0
    for k in range(len(out) - 1, -1, -1):
        acc = rewards[k] + gamma * acc
        out[k] = acc
    return out


def masked_mean(x: np.ndarray, mask: np.ndarray) -> float:
    return float((x * mask).sum() / mask.sum())


def collection_processes(lanes: int) -> int:
    """How many processes fly `lanes` lanes (a batch's, or evaluation's
    episodes): one per usable CPU and at most one per lane, when BLAS runs
    one thread (see :data:`asterhover.BLAS_PINNED`) and the process can fork
    safely (the platform has ``os.fork`` and no other thread runs); else 1.
    :func:`ppo_update` asks for two lanes, its policy's and its critic's."""
    if BLAS_PINNED and hasattr(os, "fork") and threading.active_count() == 1:
        return max(1, min(usable_cpus(), lanes))
    return 1


def collect_rollouts(
    env: HoverEnv,
    policy: nn.PolicyNetwork,
    cfg: PPOConfig,
    seed: int,
    batch_index: int,
) -> RolloutBatch:
    """Collect one batch of episodes with the stochastic policy.

    All L = ``cfg.episodes_per_batch`` episodes fly as lanes of
    :func:`rollout` on ``env``: episode k in lane k, with the
    (seed, batch, k) environment stream and the (seed, batch, k,
    ACTION_STREAM) action stream. Lane k flies in process k mod P, P =
    :func:`collection_processes` (L), as :func:`deal` deals it. Every
    process steps the policy at width L, so the batch's bytes do not depend
    on P.

    An error in any lane ends the batch: of the processes' first errors,
    the one a single process would have raised first is raised (see
    :func:`rollout`), once every process has finished.
    """
    L = cfg.episodes_per_batch
    select = functools.partial(
        nn.sample_multicategorical,
        rng=[
            np.random.default_rng(np.random.SeedSequence((seed, batch_index, k, ACTION_STREAM)))
            for k in range(L)
        ],
    )
    env_seeds = [np.random.SeedSequence((seed, batch_index, k)) for k in range(L)]
    fly = functools.partial(_fly_lanes, env, policy, env_seeds, select)
    try:
        episodes = deal(fly, L, collection_processes(L), "collection helper of lanes")
    except (SimulationError, ConfigurationError) as exc:
        raise SimulationError(f"batch {batch_index} failed: {exc}") from exc
    return RolloutBatch([episodes[k] for k in range(L)], policy.dtype)


# Where an error that no run placed sorts among the placed ones: after all
# of them.
_UNPLACED = (float("inf"),)


def deal(run, n: int, procs: int, what: str) -> dict:
    """Run items 0..n-1, item k in process k mod `procs`: this one is
    process 0, and the others are helpers forked for this call, each
    sending ``run(its items)`` back through a pipe before it exits.
    ``run(items)`` returns ({k: result}, None), or ({}, (where, error)) at
    its first error. Returns {k: result} for every k. With `procs` 1 no
    process is forked; every helper has been reaped when this returns or
    raises.

    Of the processes' first errors, the one with the least `where` is
    raised once every process has finished. A helper that died raises
    RuntimeError naming `what`, its items and its exit code; it sorts after
    every placed error.
    """
    def send(items, pipe):
        pickle.dump(run(items), pipe, pickle.HIGHEST_PROTOCOL)

    helpers = []  # (items, pid, read end of its pipe)
    try:
        for p in range(1, procs):
            items = range(p, n, procs)
            helpers.append((items, *_fork_helper(send, items, [fd for *_, fd in helpers])))
        results = [run(range(0, n, procs))]
    finally:
        reaped = [(items, *_reap(pid, fd)) for items, pid, fd in helpers]
    for items, sent, code in reaped:
        if code == 0:
            # an error comes back without its traceback: ``taskset -c 0``
            # runs every item in one process, where the traceback shows
            results.append(pickle.loads(sent))
        else:
            error = RuntimeError(f"the {what} {list(items)} exited with code {code}")
            results.append(({}, (_UNPLACED, error)))
    errors = [error for _, error in results if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return {k: result for done, _ in results for k, result in done.items()}


def _fly_lanes(env, policy, env_seeds, select, lanes) -> tuple[dict, tuple | None]:
    """Fly `lanes` of a batch (see :func:`collect_rollouts`). Returns
    ({k: EpisodeRollout}, None), or ({}, (where, error)) at the first error,
    where = its ``rollout_at``."""
    lanes = list(lanes)
    slot = {k: i for i, k in enumerate(lanes)}
    # One (lane, step, ...) buffer per STEP_FIELDS entry, shaped after the
    # first step's values. Steps land there rather than staying alive as
    # small arrays until the last lane finishes, and the buffers and the
    # spawned environments (dropped with the exhausted generator) are gone
    # before the batch is built: collection then peaks no higher than
    # flying the episodes one by one did.
    T = env.cfg.max_steps
    buffers: dict[str, np.ndarray] = {}
    lengths = [0] * len(lanes)
    last: list[dict] = [{} for _ in lanes]
    try:
        for k, step in rollout(env, policy, env_seeds, select, lanes):
            i = slot[k]
            for name, attr in STEP_FIELDS:
                value = np.asarray(getattr(step, attr))
                if name not in buffers:
                    buffers[name] = np.zeros((len(lanes), T) + value.shape, dtype=value.dtype)
                buffers[name][i, lengths[i]] = value
            lengths[i] += 1
            last[i] = step.info
    except Exception as exc:
        return {}, (getattr(exc, "rollout_at", _UNPLACED), exc)
    return {
        k: EpisodeRollout(
            **{name: buffer[i, :lengths[i]].copy() for name, buffer in buffers.items()},
            terminal_pos_err=float(last[i]["pos_err"]),
            terminal_ok=bool(last[i]["terminal_ok"]),
            violation=last[i]["violation"],
            fuel_used=float(last[i]["fuel_used"]),
        )
        for k, i in slot.items()
    }, None


def _fork_helper(send, work, inherited: list[int]) -> tuple[int, int]:
    """Fork a helper that runs ``send(work, pipe)``, `pipe` the write end of
    a pipe as a binary file, and exits without returning: with code 0 once
    `send` has returned and the pipe is closed, else 1. `work` is what the
    helper is dealt (its items of a :func:`deal`, a copy of an update's rng);
    `inherited` are the read ends of earlier helpers' pipes, which it
    closes. Returns (pid, read end)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            for fd in inherited:
                os.close(fd)
            with os.fdopen(write, "wb") as pipe:
                send(work, pipe)
            status = 0
        finally:
            os._exit(status)  # none of the parent's cleanup, buffers or exit hooks
    os.close(write)
    return pid, read


def _reap(pid: int, read: int) -> tuple[bytes, int]:
    """All that helper `pid` sent through `read`, and its exit code once it
    has exited."""
    with os.fdopen(read, "rb") as pipe:
        sent = pipe.read()
    return sent, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def compute_advantages(
    batch: RolloutBatch, gamma: float, value_net: nn.ValueNetwork
) -> RolloutBatch:
    """Fill returns, critic values, and normalized advantages in place.

    Values come from a fresh critic replay (hidden states start at zero, as
    during collection). Advantages are normalized to zero mean and unit
    variance over the valid steps of the whole batch.
    """
    # padded rewards are 0, so each episode's padded returns stay 0
    batch.returns = discounted_returns(batch.rewards, gamma)
    values = value_net.forward_sequence(batch.value_inputs, batch.lengths)[0]
    batch.values = values * batch.mask
    raw = (batch.returns - batch.values) * batch.mask
    total = batch.mask.sum()
    mean = raw.sum() / total
    var = (((raw - mean) * batch.mask) ** 2).sum() / total
    batch.advantages = (raw - mean) / (np.sqrt(var) + 1.0e-8) * batch.mask
    return batch


def clipped_objective(
    ratio: np.ndarray, advantage: np.ndarray, clip_eps: float
) -> np.ndarray:
    """Per-sample surrogate min(ratio*A, clip(ratio, 1-eps, 1+eps)*A)."""
    unclipped = ratio * advantage
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * advantage
    return np.minimum(unclipped, clipped)


def adapt_clip(measured_kl: float, target: float, clip_eps: float) -> float:
    """Shrink the clip range when KL overshoots, grow it when it stalls."""
    if measured_kl > 2.0 * target:
        clip_eps = clip_eps / 1.5
    elif measured_kl < target / 2.0:
        clip_eps = clip_eps * 1.5
    return float(np.clip(clip_eps, 0.01, 0.5))


@dataclass
class UpdateStats:
    kl: float
    clip_fraction: float
    value_loss: float
    policy_epochs: int
    new_clip_eps: float
    aborted: bool = False
    diagnostics: str = ""


def _all_finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


def _mask_lengths(mask: np.ndarray) -> np.ndarray:
    """The column lengths of a (T, B) mask, which must mark a prefix of
    each column: the networks run on the real steps only."""
    lengths = np.count_nonzero(mask, axis=0)
    if not np.array_equal(mask, np.arange(mask.shape[0])[:, None] < lengths):
        raise ConfigurationError("mask must mark the first steps of each episode")
    return lengths


def policy_minibatch_step(
    policy: nn.PolicyNetwork,
    optimizer: nn.Adam,
    images: np.ndarray,
    vecs: np.ndarray,
    actions: np.ndarray,
    logp_old: np.ndarray,
    advantages: np.ndarray,
    mask: np.ndarray,
    clip_eps: float,
) -> tuple[float, float, bool]:
    """One ascent step on the clipped surrogate over whole episodes.

    Returns (objective, clip fraction, ok). ok=False means a non-finite
    quantity appeared and no step was taken.
    """
    logits, caches = policy.forward_sequence(images, vecs, _mask_lengths(mask))
    logp_new = nn.action_log_prob(logits, actions)
    ratio = np.exp(logp_new - logp_old)
    unclipped = ratio * advantages
    surrogate = clipped_objective(ratio, advantages, clip_eps)
    denom = mask.sum()
    objective = float((surrogate * mask).sum() / denom)
    clip_frac = float(((np.abs(ratio - 1.0) > clip_eps) * mask).sum() / denom)
    if not np.isfinite(objective):
        return objective, clip_frac, False

    # d surrogate / d logp: the unclipped branch when it is the minimum,
    # zero when the clipped branch is strictly active (its ratio derivative
    # vanishes outside the clip window).
    coeff = ratio * advantages * (unclipped <= surrogate) * mask / denom
    dlogits = nn.logp_grad_logits(logits, actions, coeff)
    policy.zero_grads()
    policy.backward_sequence(dlogits, caches)
    grads = policy.gradients()
    if not _all_finite(grads.values()):
        return objective, clip_frac, False
    optimizer.step({k: -g for k, g in grads.items()})  # ascend
    return objective, clip_frac, True


def value_minibatch_step(
    value_net: nn.ValueNetwork,
    optimizer: nn.Adam,
    inputs: np.ndarray,
    returns: np.ndarray,
    mask: np.ndarray,
) -> tuple[float, bool]:
    """One descent step on mean squared return-prediction error."""
    values, caches = value_net.forward_sequence(inputs, _mask_lengths(mask))
    err = (values - returns) * mask
    denom = mask.sum()
    loss = float((err**2).sum() / denom)
    if not np.isfinite(loss):
        return loss, False
    value_net.zero_grads()
    value_net.backward_sequence(2.0 * err / denom, caches)
    grads = value_net.gradients()
    if not _all_finite(grads.values()):
        return loss, False
    optimizer.step(grads)
    return loss, True


def measure_kl(policy: nn.PolicyNetwork, batch: RolloutBatch) -> float:
    """Exact KL(old || current) averaged over valid steps. No backward
    follows the replay, so it keeps no cache."""
    logits, _ = policy.forward_sequence(batch.images, batch.vecs, batch.lengths, cache=False)
    return masked_mean(nn.kl_divergence(batch.logits_old, logits), batch.mask)


def ppo_update(
    policy: nn.PolicyNetwork,
    value_net: nn.ValueNetwork,
    batch: RolloutBatch,
    cfg: PPOConfig,
    policy_opt: nn.Adam,
    value_opt: nn.Adam,
    rng: np.random.Generator,
    clip_eps: float | None = None,
) -> UpdateStats:
    """Several epochs of minibatch updates on one batch.

    Each epoch visits the episodes in a permutation drawn from `rng` when
    the epoch starts, one minibatch step of the policy and then one of the
    critic per minibatch. Advantages are recomputed with a fresh critic
    replay at the start of every epoch that takes policy steps. The
    measured KL stops further policy steps once it exceeds 1.5x the target;
    critic regression continues through all epochs, on ``batch.returns``,
    set once before either chain starts. Any non-finite loss or gradient
    aborts the update before the offending step.

    The critic never reads the policy, so its steps run as a chain of their
    own (:func:`_value_epochs`), in a helper forked for the update when
    :func:`collection_processes` (2) is 2, else in this process before the
    policy's; it draws the same permutations from a copy of `rng`. The
    policy's chain (:func:`_policy_epochs`) loads the critic
    each of its epochs starts from (a :class:`_CriticSlots` row), and learns
    whether each value step succeeded before it takes the next policy step;
    so the networks, both optimizers and the stats are those of the
    interleaved loop, whichever process ran the critic. The helper has been
    reaped when this returns or raises; if it dies, this raises RuntimeError.
    """
    eps = cfg.clip_eps if clip_eps is None else clip_eps
    batch.returns = discounted_returns(batch.rewards, cfg.gamma)
    slots = _CriticSlots(value_net, value_opt, cfg.epochs + 1)
    # saved before any helper is forked: no status orders a helper's write
    # of row 0 before this process's first load of it
    slots.save(0, value_net, value_opt)
    send = functools.partial(_value_epochs, value_net, value_opt, batch, cfg, slots)
    policy_chain = functools.partial(_policy_epochs, policy, value_net, batch, cfg,
                                     policy_opt, value_opt, eps, rng, slots)
    if collection_processes(2) == 1:
        statuses = io.BytesIO()
        send(copy.deepcopy(rng), statuses)
        statuses.seek(0)
        return policy_chain(statuses)
    pid, read = _fork_helper(send, copy.deepcopy(rng), [])
    stats = None
    try:
        with os.fdopen(read, "rb", closefd=False) as statuses:
            stats = policy_chain(statuses)
    except EOFError:
        pass  # the helper ended early: its exit code says how
    finally:
        code = _reap(pid, read)[1]
    if stats is None or code != 0:
        raise RuntimeError(f"the critic helper of the update exited with code {code}")
    return stats


# A value step's status as the critic's chain sends it: (ok, loss).
_STATUS = struct.Struct("=?d")


# The rows go through a shared mapping, not the status pipe: a row (163,872
# bytes at the default sizes) is larger than the pipe's 64 KB buffer, so
# the helper could get at most one epoch ahead of the parent. Sent through
# the pipe, they cost train-default 2151 -> 1923 env steps/s (2 vCPUs).
class _CriticSlots:
    """The critic's state, its parameters, Adam ``m`` and ``v`` and Adam's
    step count, in `count` rows of an anonymous shared mapping, so that the
    rows a forked helper writes reach the parent: row 0 the critic an update
    starts from, row e + 1 as epoch e of :func:`_value_epochs` left it."""

    def __init__(self, value_net: nn.ValueNetwork, opt: nn.Adam, count: int):
        self.layout = {}  # name: (start, stop, shape) in a row
        stop = 0
        for name, a in self._arrays(value_net, opt).items():
            self.layout[name] = (stop, stop + a.size, a.shape)
            stop += a.size
        # whole pages a row, so that a loaded row's pages can be let go
        self.row_bytes = -(-stop * value_net.dtype.itemsize // mmap.PAGESIZE) * mmap.PAGESIZE
        # the rows, then each row's Adam step count as an int64, which no
        # row's madvise reaches
        self.mapping = mmap.mmap(-1, count * (self.row_bytes + 8))
        self.rows = np.ndarray((count, stop), value_net.dtype, self.mapping,
                               strides=(self.row_bytes, value_net.dtype.itemsize))
        self.steps = np.ndarray(count, np.int64, self.mapping, count * self.row_bytes)

    @staticmethod
    def _arrays(value_net: nn.ValueNetwork, opt: nn.Adam) -> dict[str, np.ndarray]:
        return {**value_net.parameters(), **opt.state_arrays()}

    def save(self, row: int, value_net: nn.ValueNetwork, opt: nn.Adam) -> None:
        values = self.rows[row]
        for name, a in self._arrays(value_net, opt).items():
            start, stop, _ = self.layout[name]
            values[start:stop] = a.ravel()
        self.steps[row] = opt.t

    def load(self, row: int, value_net: nn.ValueNetwork, opt: nn.Adam) -> None:
        """Put row `row` into `value_net` and `opt`."""
        values = self.rows[row]
        arrays = {name: values[start:stop].reshape(shape)
                  for name, (start, stop, shape) in self.layout.items()}
        value_net.load_parameters(arrays)
        opt.load_state_arrays(arrays, self.steps[row])
        # the row is read once: its pages leave this process's resident set
        # (the mapping is shared, so its data stays)
        if hasattr(mmap, "MADV_DONTNEED"):  # not on every platform
            self.mapping.madvise(mmap.MADV_DONTNEED, row * self.row_bytes, self.row_bytes)


def _minibatches(rng: np.random.Generator, batch: RolloutBatch, size: int) -> list:
    """One epoch's minibatches: an episode permutation from `rng`, sliced."""
    order = rng.permutation(batch.num_episodes)
    return [order[start:start + size] for start in range(0, len(order), size)]


def _value_step(value_net, value_opt, batch, mb) -> tuple[float, bool]:
    return value_minibatch_step(value_net, value_opt, batch.value_inputs[:, mb],
                                batch.returns[:, mb], batch.mask[:, mb])


def _value_epochs(value_net, value_opt, batch, cfg, slots, rng, pipe) -> None:
    """The critic's chain of :func:`ppo_update`, stepping `value_net` and
    `value_opt` (in a forked helper, its own copies of them): a value step
    on each minibatch, drawn from `rng` as its epoch starts, until the
    first that fails. After each step it sends ``(ok, loss)`` through
    `pipe`; before that, if the step ended epoch e, by finishing it or
    failing, it saves the critic into row e + 1 of `slots`."""
    for epoch in range(cfg.epochs):
        mbs = _minibatches(rng, batch, cfg.minibatch_episodes)
        for j, mb in enumerate(mbs):
            loss, ok = _value_step(value_net, value_opt, batch, mb)
            if not ok or j == len(mbs) - 1:
                slots.save(epoch + 1, value_net, value_opt)
            pipe.write(_STATUS.pack(ok, loss))
            pipe.flush()
            if not ok:
                return


def _policy_epochs(
    policy, value_net, batch, cfg, policy_opt, value_opt, eps, rng, slots, statuses,
) -> UpdateStats:
    """The policy's chain of :func:`ppo_update`, reading the value steps'
    statuses from `statuses` in order; draws each epoch's minibatches from
    `rng` after the epoch's advantages, and leaves `rng`, `value_net` and
    `value_opt` where the interleaved loop would."""
    kl = 0.0
    clip_frac = 0.0
    value_loss = float("nan")
    policy_epochs = 0
    policy_active = True
    failed = None  # what went non-finite, which ends the update

    def value_step_ok() -> bool:
        nonlocal value_loss
        status = statuses.read(_STATUS.size)
        if len(status) < _STATUS.size:
            raise EOFError("the critic's chain ended early")
        ok, value_loss = _STATUS.unpack(status)
        return ok

    for epoch in range(cfg.epochs):
        if policy_active:  # nothing reads the advantages after the KL stop
            slots.load(epoch, value_net, value_opt)
            compute_advantages(batch, cfg.gamma, value_net)
            if not np.isfinite(batch.advantages).all():
                failed = "advantages"
                break
        mbs = _minibatches(rng, batch, cfg.minibatch_episodes)
        for j, mb in enumerate(mbs):
            if policy_active:
                _, clip_frac, ok = policy_minibatch_step(
                    policy, policy_opt,
                    batch.images[:, mb], batch.vecs[:, mb],
                    batch.actions[:, mb], batch.logp_old[:, mb],
                    batch.advantages[:, mb], batch.mask[:, mb],
                    eps,
                )
                if not ok:
                    failed = "policy step"
                    break
            if not value_step_ok():
                failed = "value step"
                break
        if failed:
            break
        if policy_active:
            policy_epochs += 1
            kl = measure_kl(policy, batch)
            if kl > 1.5 * cfg.kl_target:
                policy_active = False
    if failed == "policy step":
        # value_net holds the critic this epoch started from: replay the
        # epoch's value steps taken before the one that did not come
        for mb in mbs[:j]:
            _value_step(value_net, value_opt, batch, mb)
    elif failed != "advantages":  # which leaves the critic the epoch started from
        slots.load(epoch + 1, value_net, value_opt)
    return UpdateStats(
        kl=kl,
        clip_fraction=clip_frac,
        value_loss=value_loss,
        policy_epochs=policy_epochs,
        new_clip_eps=eps if failed else adapt_clip(kl, cfg.kl_target, eps),
        aborted=failed is not None,
        diagnostics=f"non-finite {failed} at epoch {epoch}" if failed else "",
    )


# --------------------------------------------------------------------------
# Training loop

METRICS_COLUMNS = (
    "batch", "mean_reward", "std_reward", "mean_term_pos_err",
    "max_term_pos_err", "min_reward", "max_reward", "kl", "clip_fraction",
    "clip_eps", "value_loss", "policy_epochs", "success_rate",
    *(f"violations_{kind}" for kind in VIOLATION_KINDS),
    "mean_fuel", "aborted",
)

_CHECKPOINT_RE = re.compile(r"checkpoint_(\d+)\.npz$")


@dataclass
class TrainConfig:
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    seed: int = 0
    batches: int = 200
    out_dir: str = "runs/train"
    checkpoint_every: int = 25
    resume: bool = False

    def validate(self) -> None:
        self.episode.validate()
        self.ppo.validate()
        lane_steps = self.ppo.episodes_per_batch * self.episode.max_steps
        if lane_steps > MAX_BATCH_STEPS:
            raise ConfigurationError(
                f"ppo.episodes_per_batch x episode steps (duration / {CONTROL_PERIOD:g} s) "
                f"must be at most {MAX_BATCH_STEPS}, got {self.ppo.episodes_per_batch} x "
                f"{self.episode.max_steps} = {lane_steps}"
            )
        if self.batches < 1:
            raise ConfigurationError("batches must be at least 1")
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be at least 1")


def build_networks(seed: int) -> tuple[nn.PolicyNetwork, nn.ValueNetwork]:
    """Fresh NETWORK_DTYPE networks on the init seed stream (policy drawn first)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, INIT_STREAM)))
    return (nn.PolicyNetwork(seed=rng, dtype=NETWORK_DTYPE),
            nn.ValueNetwork(seed=rng, dtype=NETWORK_DTYPE))


def latest_checkpoint(out_dir: str) -> str | None:
    best, best_n = None, -1
    for path in glob.glob(os.path.join(out_dir, "checkpoint_*.npz")):
        m = _CHECKPOINT_RE.search(os.path.basename(path))
        if m and int(m.group(1)) > best_n:
            best, best_n = path, int(m.group(1))
    return best


def train(cfg: TrainConfig, log=None, before_write=None) -> str:
    """Run the full collect / advantage / update loop.

    Writes metrics.csv (one row per batch) and numbered checkpoints into
    cfg.out_dir. `before_write`, when given, is called once the resume
    checkpoint (if any) has been accepted and the environment built (its
    shape model read), before anything is written; the `train` subcommand
    records the resolved config there, so a refused run leaves the run
    directory as it was.
    Returns the metrics file path.
    Reruns with identical config produce byte-identical metrics; resume
    picks up after the last checkpoint and yields the same rows as an
    uninterrupted run.
    """
    cfg.validate()

    policy, value_net = build_networks(cfg.seed)
    policy_opt = nn.Adam(policy.parameters(), lr=cfg.ppo.policy_lr)
    value_opt = nn.Adam(value_net.parameters(), lr=cfg.ppo.value_lr)
    clip_eps = cfg.ppo.clip_eps
    start_batch = 0

    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    if cfg.resume:
        ck = latest_checkpoint(cfg.out_dir)
        if ck is None:
            raise ConfigurationError(f"no checkpoint to resume from in {cfg.out_dir}")
        extra = nn.load_checkpoint(ck, policy, value_net, policy_opt, value_opt)["extra"]
        start_batch = int(extra["next_batch"])
        clip_eps = float(extra["clip_eps"])
    env = HoverEnv(cfg.episode)  # a shape model that cannot be read fails here
    if before_write is not None:
        before_write()

    # metrics.csv is replaced whole after each batch (and once before the
    # first); a resume keeps the header and the rows its checkpoint covers
    lines = [",".join(METRICS_COLUMNS) + "\n"]
    if cfg.resume and os.path.exists(metrics_path):
        with open(metrics_path, newline="") as fh:
            lines = fh.readlines()
        lines = lines[:1] + [row for row in lines[1:] if int(row.split(",", 1)[0]) < start_batch]

    def write_metrics():
        with replacing(metrics_path) as fh:
            fh.writelines(lines)

    write_metrics()
    for batch_idx in range(start_batch, cfg.batches):
        batch = collect_rollouts(env, policy, cfg.ppo, cfg.seed, batch_idx)
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, batch_idx, UPDATE_STREAM))
        )
        stats = ppo_update(
            policy, value_net, batch, cfg.ppo, policy_opt, value_opt,
            rng, clip_eps=clip_eps,
        )
        clip_eps = stats.new_clip_eps
        rewards = batch.episode_rewards()
        pos_errs = batch.terminal_pos_errors()
        episodes = batch.episodes
        row = (
            batch_idx,
            rewards.mean(), rewards.std(),
            pos_errs.mean(), pos_errs.max(),
            rewards.min(), rewards.max(),
            stats.kl, stats.clip_fraction, clip_eps,
            stats.value_loss, stats.policy_epochs,
            np.mean([ep.terminal_ok for ep in episodes]),
            *(sum(ep.violation == kind for ep in episodes) for kind in VIOLATION_KINDS),
            np.mean([ep.fuel_used for ep in episodes]),
            int(stats.aborted),
        )
        lines.append(",".join(csv_field(v) for v in row) + "\n")
        write_metrics()
        if log is not None:
            log(
                f"batch {batch_idx}: reward {rewards.mean():.3f} "
                f"+- {rewards.std():.3f}, terminal err {pos_errs.mean():.1f} m, "
                f"kl {stats.kl:.2e}, eps {clip_eps:.3f}"
                + (f" [aborted: {stats.diagnostics}]" if stats.aborted else "")
            )
        last = batch_idx == cfg.batches - 1
        if (batch_idx + 1) % cfg.checkpoint_every == 0 or last:
            nn.save_checkpoint(
                os.path.join(cfg.out_dir, f"checkpoint_{batch_idx + 1:06d}.npz"),
                policy, value_net, policy_opt, value_opt,
                extra={"next_batch": batch_idx + 1, "clip_eps": clip_eps},
            )
    return metrics_path
