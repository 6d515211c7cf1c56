"""Lone-environment references for the lockstep episode driver.

`fly` is one control step of a single :class:`asterhover.env.HoverEnv`
rendered by its own :meth:`~asterhover.env.HoverEnv.scan`, the per-episode
path that :func:`asterhover.env.rollout` replaces with one cast over all
lanes. `replay_episode` is the serial per-episode collector built on it:
it flies one episode alone on given actions and records what the policy and
the critic saw.
"""

from __future__ import annotations

import numpy as np

from asterhover.env import HoverEnv


def fly(env: HoverEnv, action: np.ndarray):
    """One control step of a lone environment; returns ((policy image,
    policy vector), critic input, reward, done, info)."""
    env.step(action)
    image, vec, value_input, reward, done, info = env.observe(env.scan())
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
