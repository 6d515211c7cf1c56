"""Lone-environment references for the lockstep episode driver, and the
array form of a step's bookkeeping.

`fly` is one control step of a single :class:`asterhover.env.HoverEnv`,
the call that :func:`asterhover.env.rollout` makes for each lane, without
the policy step. `replay_episode` is the serial per-episode collector built
on it: it flies one episode alone on given actions and records what the
policy and the critic saw.

`observe_reference` and `compute_reward_reference` are
:meth:`~asterhover.env.HoverEnv._observe` and
:func:`~asterhover.env.compute_reward` as they were before their limit
tests, maxima and bit counts moved onto Python floats: every test there
goes through numpy's array functions. `observe_reference` builds the
network inputs as `inputs_reference`, the array form of
:meth:`~asterhover.env.HoverEnv._inputs` before it wrote the image in place.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from asterhover.dynamics import quat_angle
from asterhover.env import (
    ALPHA,
    BETA,
    CONTROL_PERIOD,
    DR_SCALE,
    DRY_MASS,
    ETA,
    GAMMA_CTRL,
    KAPPA,
    R_ERR_SCALE,
    ROT_LIMIT,
    TERMINAL_OMEGA_LIMIT,
    TERMINAL_POS_LIMIT,
    TERMINAL_SPEED_LIMIT,
    ZETA,
    HoverEnv,
)
from asterhover.lidar import LidarFrame
from dynamics_reference import quat_error_reference


def fly(env: HoverEnv, action: np.ndarray):
    """One control step of a lone environment; returns ((policy image,
    policy vector), critic input, reward, done, info)."""
    image, vec, value_input, reward, done, info = env.step(action)
    return (image, vec), value_input, reward, done, info


def replay_episode(env: HoverEnv, env_seed, actions: np.ndarray) -> dict:
    """Fly the episode of `env_seed` alone on the (T, 12) `actions`.

    Returns the per-step policy images and vectors and critic inputs (each
    taken before its action), the rewards, and the last step's info.
    """
    image, vec, value_input = env.reset(seed=env_seed)
    images, vecs, value_inputs, rewards = [], [], [], []
    done = False
    info = {}
    for action in actions:
        assert not done, "the recorded episode is longer than the replay"
        images.append(image)
        vecs.append(vec)
        value_inputs.append(value_input)
        (image, vec), value_input, reward, done, info = fly(env, action)
        rewards.append(reward)
    assert done, "the recorded episode is shorter than the replay"
    return {
        "images": np.array(images),
        "vecs": np.array(vecs),
        "value_inputs": np.array(value_inputs),
        "rewards": np.array(rewards),
        "info": info,
    }


def compute_reward_reference(
    pos_err: float,
    dq: np.ndarray,
    action: np.ndarray,
    terminal_ok: bool,
    violated: bool,
) -> tuple[float, dict[str, float]]:
    """Per-step reward and its terms, the bit count taken by np.sum."""
    effort = float(np.sum(action)) / action.shape[0]
    terms = {
        "position": ALPHA * pos_err,
        "attitude": BETA * quat_angle(dq),
        "control": GAMMA_CTRL * effort,
        "step": ETA,
        "terminal_bonus": ZETA if terminal_ok else 0.0,
        "violation": KAPPA if violated else 0.0,
    }
    return float(sum(terms.values())), terms


def inputs_reference(
    env: HoverEnv, frame: LidarFrame, r_err: np.ndarray, dq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The policy image and vector and the critic vector, as
    :meth:`HoverEnv._inputs` returns them, each channel of the image built
    on its own and stacked."""
    state = env.state
    image = np.stack(
        [
            (frame.ranges - env.frame0.ranges) / R_ERR_SCALE,
            (frame.ranges - env.prev_frame.ranges) / DR_SCALE,
        ],
        axis=-1,
    )
    vec = np.concatenate([dq, state.omega])
    value_input = np.concatenate([r_err / R_ERR_SCALE, state.velocity, dq, state.omega])
    return image, vec, value_input


def observe_reference(
    env: HoverEnv, action: np.ndarray, frame: LidarFrame
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, bool, dict[str, Any]]:
    """:meth:`HoverEnv._observe` with its tests on arrays: the norms by
    np.linalg.norm, the rate limits by np.any / np.all over np.abs, the
    worst rate by np.max."""
    cfg = env.cfg
    state = env.state

    r_err = state.position - env.r0
    dq = quat_error_reference(state.attitude, env.q0)
    omega = state.omega
    pos_err = float(np.linalg.norm(r_err))
    speed = float(np.linalg.norm(state.velocity))

    rot_breach = bool(np.any(np.abs(omega) > ROT_LIMIT))
    all_miss = not frame.hit.any()
    fuel_out = state.mass <= DRY_MASS
    violated = rot_breach or all_miss or fuel_out

    time_done = env.steps >= cfg.max_steps
    terminal_ok = (
        time_done
        and pos_err <= TERMINAL_POS_LIMIT
        and speed <= TERMINAL_SPEED_LIMIT
        and bool(np.all(np.abs(omega) <= TERMINAL_OMEGA_LIMIT))
    )

    reward, terms = compute_reward_reference(pos_err, dq, action, terminal_ok, violated)
    env.done = time_done or violated

    inputs = inputs_reference(env, frame, r_err, dq)
    env.prev_frame = frame

    violation = None
    if rot_breach:
        violation = "rotation"
    elif all_miss:
        violation = "all_miss"
    elif fuel_out:
        violation = "fuel"

    info = {
        "step": env.steps,
        "t": env.steps * CONTROL_PERIOD,
        "pos_err": pos_err,
        "speed": speed,
        "max_omega": float(np.max(np.abs(omega))),
        "fuel_used": env.fuel_used,
        "violation": violation,
        "terminal_ok": terminal_ok,
        "reward_terms": terms,
    }
    return *inputs, reward, env.done, info
