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

import functools
import glob
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .config import csv_field, replacing
from .env import VIOLATION_KINDS, EpisodeConfig, HoverEnv, rollout
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


def collect_rollouts(
    env: HoverEnv,
    policy: nn.PolicyNetwork,
    cfg: PPOConfig,
    seed: int,
    batch_index: int,
) -> RolloutBatch:
    """Collect one batch of episodes with the stochastic policy.

    All ``cfg.episodes_per_batch`` episodes fly together: episode k in lane
    k of :func:`rollout` on ``env``, with the (seed, batch, k) environment
    stream and the (seed, batch, k, ACTION_STREAM) action stream.
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
    # One (lane, step, ...) buffer per STEP_FIELDS entry, shaped after the
    # first step's values. Steps land there rather than staying alive as
    # small arrays until the last lane finishes, and the buffers and the
    # spawned environments (dropped with the exhausted generator) are gone
    # before the batch is built: collection then peaks no higher than
    # flying the episodes one by one did.
    T = env.cfg.max_steps
    buffers: dict[str, np.ndarray] = {}
    lengths = [0] * L
    last: list[dict] = [{} for _ in range(L)]
    steps = rollout(env, policy, env_seeds, select)
    try:
        for k, step in steps:
            for name, attr in STEP_FIELDS:
                value = np.asarray(getattr(step, attr))
                if name not in buffers:
                    buffers[name] = np.zeros((L, T) + value.shape, dtype=value.dtype)
                buffers[name][k, lengths[k]] = value
            lengths[k] += 1
            last[k] = step.info
    except (SimulationError, ConfigurationError) as exc:
        raise SimulationError(f"batch {batch_index} failed: {exc}") from exc
    episodes = [
        EpisodeRollout(
            **{name: buffer[k, :lengths[k]].copy() for name, buffer in buffers.items()},
            terminal_pos_err=float(info["pos_err"]),
            terminal_ok=bool(info["terminal_ok"]),
            violation=info["violation"],
            fuel_used=float(info["fuel_used"]),
        )
        for k, info in enumerate(last)
    ]
    del buffers
    return RolloutBatch(episodes, policy.dtype)


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

    Advantages are recomputed with a fresh critic replay at the start of
    every epoch that takes policy steps. The measured KL stops further
    policy steps once it exceeds 1.5x the target; critic regression
    continues through all epochs, on the returns, which no replay changes.
    Any non-finite loss or gradient aborts the update before the offending
    step.
    """
    eps = cfg.clip_eps if clip_eps is None else clip_eps
    kl = 0.0
    clip_frac = 0.0
    value_loss = float("nan")
    policy_epochs = 0
    policy_active = True
    failed = None  # what went non-finite, which ends the update
    for epoch in range(cfg.epochs):
        if policy_active:  # nothing reads the advantages after the KL stop
            compute_advantages(batch, cfg.gamma, value_net)
            if not np.isfinite(batch.advantages).all():
                failed = "advantages"
                break
        order = rng.permutation(batch.num_episodes)
        for start in range(0, batch.num_episodes, cfg.minibatch_episodes):
            mb = order[start:start + cfg.minibatch_episodes]
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
            value_loss, ok = value_minibatch_step(
                value_net, value_opt,
                batch.value_inputs[:, mb], batch.returns[:, mb],
                batch.mask[:, mb],
            )
            if not ok:
                failed = "value step"
                break
        if failed:
            break
        if policy_active:
            policy_epochs += 1
            kl = measure_kl(policy, batch)
            if kl > 1.5 * cfg.kl_target:
                policy_active = False
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
                f"ppo.episodes_per_batch x episode steps (duration / control_period) must be "
                f"at most {MAX_BATCH_STEPS}, got {self.ppo.episodes_per_batch} x "
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


# The episode settings a trained policy depends on beyond the fixed
# network-input format: its range images are taken at the sensor's field
# of view and miss range, and each action lasts one control period. Every
# checkpoint of `train` records them in its `extra`.
TRAINED_EPISODE_FIELDS = ("sensor.fov", "sensor.max_range", "control_period")


def trained_episode_record(cfg: EpisodeConfig) -> dict[str, float]:
    """The TRAINED_EPISODE_FIELDS of `cfg`, keyed ``episode.<field>``."""
    return {
        f"episode.{name}": float(functools.reduce(getattr, name.split("."), cfg))
        for name in TRAINED_EPISODE_FIELDS
    }


def check_trained_episode(checkpoint_path: str, extra: dict, cfg: EpisodeConfig) -> None:
    """Raise ConfigurationError when the checkpoint at `checkpoint_path`,
    whose `extra` payload is given, records an episode setting (see
    :func:`trained_episode_record`) that `cfg` does not share, naming the
    field and both values; a checkpoint that records none passes."""
    for key, value in trained_episode_record(cfg).items():
        trained = extra.get(key, value)
        if trained != value:
            raise ConfigurationError(
                f"{checkpoint_path} was trained with {key}={trained!r}, "
                f"but this run has {key}={value!r}"
            )


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
        check_trained_episode(ck, extra, cfg.episode)
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
                extra={
                    "next_batch": batch_idx + 1, "clip_eps": clip_eps,
                    **trained_episode_record(cfg.episode),
                },
            )
    return metrics_path
