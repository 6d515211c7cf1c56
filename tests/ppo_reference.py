"""Interleaved reference for ``ppo.ppo_update``.

This is the form the update had before its critic ran as a chain of its
own: one loop in one process, each policy minibatch step followed by the
critic's step on the same minibatch. It calls the step functions of
``asterhover.ppo`` by module attribute, so a test that patches them patches
both, and the update can be pinned to it byte for byte. Unlike the update,
it draws each epoch's permutation only when the epoch starts, so the two
leave `rng` in different states after an abort.
"""

import numpy as np

from asterhover import ppo


def ppo_update(policy, value_net, batch, cfg, policy_opt, value_opt, rng, clip_eps=None):
    eps = cfg.clip_eps if clip_eps is None else clip_eps
    kl = 0.0
    clip_frac = 0.0
    value_loss = float("nan")
    policy_epochs = 0
    policy_active = True
    failed = None  # what went non-finite, which ends the update
    for epoch in range(cfg.epochs):
        if policy_active:  # nothing reads the advantages after the KL stop
            ppo.compute_advantages(batch, cfg.gamma, value_net)
            if not np.isfinite(batch.advantages).all():
                failed = "advantages"
                break
        order = rng.permutation(batch.num_episodes)
        for start in range(0, batch.num_episodes, cfg.minibatch_episodes):
            mb = order[start:start + cfg.minibatch_episodes]
            if policy_active:
                _, clip_frac, ok = ppo.policy_minibatch_step(
                    policy, policy_opt,
                    batch.images[:, mb], batch.vecs[:, mb],
                    batch.actions[:, mb], batch.logp_old[:, mb],
                    batch.advantages[:, mb], batch.mask[:, mb],
                    eps,
                )
                if not ok:
                    failed = "policy step"
                    break
            value_loss, ok = ppo.value_minibatch_step(
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
            kl = ppo.measure_kl(policy, batch)
            if kl > 1.5 * cfg.kl_target:
                policy_active = False
    return ppo.UpdateStats(
        kl=kl,
        clip_fraction=clip_frac,
        value_loss=value_loss,
        policy_epochs=policy_epochs,
        new_clip_eps=eps if failed else ppo.adapt_clip(kl, cfg.kl_target, eps),
        aborted=failed is not None,
        diagnostics=f"non-finite {failed} at epoch {epoch}" if failed else "",
    )
