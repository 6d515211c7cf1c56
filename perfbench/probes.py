"""Isolated layer probes: one public function at a time, on seeded inputs.

They run after the traced unit, outside any workload, and measure shapes
no workload pins: ``cast_rays`` at three facet counts, ``rk4_step`` alone,
``PolicyNetwork.step`` at the rollout width B=1 and at the lockstep width
B=30, a T x B sequence forward and backward pass, and one ``ppo_update``
on a fixed batch. The batch is generated, not collected: seeded random
observations with actions sampled from the policy's own logits, so the
update does the same work as on a recorded batch of that shape.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CAST_RAYS_LEVELS = (2, 3, 5)  # 320, 1280 and 20480 facets
LOCKSTEP_WIDTH = 30


def _median_ms(fn, min_seconds: float, min_reps: int = 3) -> dict:
    """Median call time of ``fn`` as a metric, over at least ``min_seconds``."""
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _metric(1e3 * statistics.median(times), "ms", len(times))


def _metric(value: float, unit: str, samples: int = 1) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples}


def probe_cast_rays(rng, min_seconds: float) -> dict:
    from asterhover import geometry, lidar

    out = {}
    dirs = lidar.beam_directions(lidar.SensorConfig()).reshape(-1, 3)  # boresight -z
    for level in CAST_RAYS_LEVELS:
        model = geometry.synthesize_asteroid(rng, geometry.AsteroidGenConfig(subdivision_level=level))
        prep = lidar.PreparedMesh(model.mesh)
        origin = np.array([0.0, 0.0, prep.bound_radius + 300.0])
        out[f"probe.cast_rays.f{prep.num_faces}.ms_p50"] = _median_ms(
            lambda: lidar.cast_rays(prep, origin, dirs), min_seconds
        )
    return out


def probe_rk4_step(rng, min_seconds: float) -> dict:
    from asterhover import dynamics, geometry

    model = geometry.synthesize_asteroid(rng)
    table = dynamics.default_thruster_table()
    state = dynamics.SpacecraftState(
        position=np.array([0.0, 0.0, 900.0]), velocity=np.zeros(3),
        attitude=np.array([1.0, 0.0, 0.0, 0.0]), omega=np.full(3, 1e-3),
        mass=480.0, com_offset=np.zeros(3), t=0.0,
    )
    action = (rng.uniform(size=12) < 0.5).astype(float)
    return {"probe.rk4_step.ms_p50": _median_ms(
        lambda: dynamics.rk4_step(state, action, 2.0, model, table), min_seconds
    )}


def probe_policy(rng, sizes) -> dict:
    from asterhover import ppo

    policy, _ = ppo.build_networks(int(rng.integers(2**31)))
    out = {}
    for width in (1, LOCKSTEP_WIDTH):
        image = rng.normal(0.0, 0.1, size=(width, 8, 8, 2))
        vec = rng.normal(0.0, 0.01, size=(width, 7))
        hidden = policy.init_hidden(width)
        out[f"probe.policy_step.b{width}.ms_p50"] = _median_ms(
            lambda: policy.step(image, vec, hidden), sizes.probe_seconds
        )

    T, B = sizes.probe_steps, sizes.probe_episodes
    images = rng.normal(0.0, 0.1, size=(T, B, 8, 8, 2))
    vecs = rng.normal(0.0, 0.01, size=(T, B, 7))
    forward, backward = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        logits, caches = policy.forward_sequence(images, vecs)
        t1 = time.perf_counter()
        policy.zero_grads()
        policy.backward_sequence(np.full_like(logits, 1e-3), caches)
        t2 = time.perf_counter()
        forward.append(t1 - t0)
        backward.append(t2 - t1)
    out["probe.policy_forward_sequence.s"] = _metric(statistics.median(forward), "s", 3)
    out["probe.policy_backward_sequence.s"] = _metric(statistics.median(backward), "s", 3)
    return out


def fixed_batch(policy, rng, episodes: int, t_max: int):
    """Seeded episodes of lengths t_max/2..t_max, longest first."""
    from asterhover import nn, ppo

    lengths = rng.integers(t_max // 2, t_max + 1, size=episodes)
    lengths[0] = t_max
    rollouts = []
    for n in lengths:
        images = rng.normal(0.0, 0.1, size=(n, 8, 8, 2))
        vecs = rng.normal(0.0, 0.01, size=(n, 7))
        logits, _ = policy.forward_sequence(images[:, None], vecs[:, None])
        actions, logp = nn.sample_multicategorical(logits[:, 0], rng)
        rollouts.append(ppo.EpisodeRollout(
            images=images, vecs=vecs, value_inputs=rng.normal(0.0, 0.1, size=(n, 13)),
            actions=actions, logits_old=logits[:, 0], logp_old=logp,
            rewards=rng.normal(-0.5, 0.1, size=n),
            terminal_pos_err=0.0, terminal_ok=False, violation=None, fuel_used=0.0,
        ))
    return ppo.RolloutBatch(rollouts)


def probe_ppo_update(rng, sizes) -> dict:
    from asterhover import nn, ppo

    seed = int(rng.integers(2**31))
    policy, value_net = ppo.build_networks(seed)
    batch = fixed_batch(policy, rng, sizes.probe_episodes, sizes.probe_steps)
    cfg = ppo.PPOConfig(episodes_per_batch=sizes.probe_episodes)
    t0 = time.perf_counter()
    stats = ppo.ppo_update(
        policy, value_net, batch, cfg,
        nn.Adam(policy.parameters(), lr=cfg.policy_lr),
        nn.Adam(value_net.parameters(), lr=cfg.value_lr),
        np.random.default_rng(seed),
    )
    elapsed = time.perf_counter() - t0
    return {
        "probe.ppo_update.s": _metric(elapsed, "s"),
        "probe.ppo_update.policy_epochs": _metric(stats.policy_epochs, "count"),
    }


def run_all(seed: int, sizes) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    out.update(probe_cast_rays(rng, sizes.probe_seconds))
    out.update(probe_rk4_step(rng, sizes.probe_seconds))
    out.update(probe_policy(rng, sizes))
    out.update(probe_ppo_update(rng, sizes))
    return out
