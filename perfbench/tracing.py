"""In-memory spans around the package's public functions.

Wrappers are installed from outside the package, at the names the callers
look up at run time: ``env.py`` imports ``scan`` and ``rk4_step`` by name,
so those wrappers go on ``asterhover.env.scan`` and
``asterhover.env.rk4_step``; ``lidar.scan`` calls the module global
``cast_rays``, so that one goes on ``asterhover.lidar.cast_rays``. Nothing
under ``src/`` is edited, and :meth:`Recorder.restore` puts every original
back.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import collections
import functools
import os
import time

import numpy as np

# Bytes of the temporaries cast_rays allocates per ray-facet pair, from its
# array shapes: pvec (R, F, 3) float64, det / u / v / t (R, F) float64 and
# the (R, F) bool hit mask.
CAST_RAYS_BYTES_PER_TEST = 3 * 8 + 4 * 8 + 1


class Recorder:
    """Spans plus named counters, recorded by wrappers it installs."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``name`` is a span name or a function of the call's positional
        arguments returning one. ``after(args, result)`` runs on return.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), clock(), 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def before(self, owner, attr: str, fn) -> None:
        """Call ``fn()`` before every call of ``owner.attr``; no span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            fn()
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(rec: Recorder, full: bool, tick=None) -> None:
    """Hook the package; ``full=False`` installs only the per-episode and
    per-batch hooks the end-to-end metrics need.

    ``tick`` (untraced runs only) is called before every environment step
    and every update minibatch, so calibration passes spread over a unit.
    """
    from asterhover import env, evaluation, lidar, nn, ppo

    counts = rec.counts

    def after_collect(args, batch):
        lengths = [ep.length for ep in batch.episodes]
        counts["ppo.episodes"] += len(lengths)
        counts["ppo.real_steps"] += sum(lengths)
        counts["ppo.padded_steps"] += max(lengths) * len(lengths)
        counts["ppo.nonfinite_rewards"] += sum(
            not np.isfinite(ep.rewards).all() for ep in batch.episodes
        )

    def after_update(args, stats):
        counts["ppo.updates"] += 1
        counts["ppo.policy_epochs"] += stats.policy_epochs
        counts["ppo.update_aborted"] += int(stats.aborted)

    def after_episode(args, row):
        counts["evaluation.episodes"] += 1
        counts["evaluation.steps"] += row["steps"]

    rec.wrap(ppo, "collect_rollouts", "ppo.collect_rollouts", after_collect)
    rec.wrap(ppo, "ppo_update", "ppo.ppo_update", after_update)
    rec.wrap(evaluation, "run_episode", "evaluation.run_episode", after_episode)
    if tick is not None:
        rec.before(env.HoverEnv, "step", tick)
        rec.before(ppo, "policy_minibatch_step", tick)
        rec.before(ppo, "value_minibatch_step", tick)
    if not full:
        return

    def after_scan(args, frame):
        counts["lidar.beams"] += frame.hit.size
        counts["lidar.beams_hit"] += int(frame.hit.sum())

    def after_cast(args, result):
        rays = np.atleast_2d(args[2]).shape[0]
        tests = rays * args[0].num_faces
        counts["lidar.ray_facet_tests"] += tests
        counts["lidar.bytes_computed"] += tests * CAST_RAYS_BYTES_PER_TEST

    def after_ic(args, state):
        counts["env.ic_draws"] += 1

    def after_save(args, result):
        counts["nn.save_checkpoint.bytes"] += os.path.getsize(args[0])

    def policy_step_name(args):
        return "nn.policy_step.b1" if args[1].shape[0] == 1 else "nn.policy_step.batched"

    rec.wrap(env, "scan", "lidar.scan", after_scan)
    rec.wrap(lidar, "cast_rays", "lidar.cast_rays", after_cast)
    rec.wrap(env, "rk4_step", "dynamics.rk4_step")
    rec.wrap(env, "sample_initial_conditions", "env.sample_initial_conditions", after_ic)
    rec.wrap(env, "synthesize_asteroid", "geometry.synthesize_asteroid")
    rec.wrap(env, "load_mesh", "geometry.load_mesh")
    rec.wrap(env.HoverEnv, "__init__", "env.HoverEnv.init")
    rec.wrap(env.HoverEnv, "reset", "env.reset")
    rec.wrap(env.HoverEnv, "step", "env.step")
    rec.wrap(nn.PolicyNetwork, "step", policy_step_name)
    rec.wrap(nn.PolicyNetwork, "forward_sequence", "nn.policy_forward_sequence")
    rec.wrap(nn.PolicyNetwork, "backward_sequence", "nn.policy_backward_sequence")
    rec.wrap(nn.ValueNetwork, "forward_sequence", "nn.value_forward_sequence")
    rec.wrap(nn.ValueNetwork, "backward_sequence", "nn.value_backward_sequence")
    rec.wrap(nn.Adam, "step", "nn.adam_step")
    rec.wrap(nn, "save_checkpoint", "nn.save_checkpoint", after_save)
    rec.wrap(ppo, "compute_advantages", "ppo.compute_advantages")
    rec.wrap(evaluation, "write_report_files", "evaluation.write_report_files")


class SpanStats:
    """Per-name durations and self times of the spans ``spans[lo:hi]``.

    A span's self time is its duration minus the time its child spans cover.
    """

    def __init__(self, spans: list[list], lo: int = 0, hi: int | None = None):
        hi = len(spans) if hi is None else hi
        child_time = [0.0] * hi
        for name, start, end, parent in spans[:hi]:
            if parent >= 0:
                child_time[parent] += end - start
        self.durations: dict[str, list[float]] = collections.defaultdict(list)
        self.self_times: dict[str, list[float]] = collections.defaultdict(list)
        for i in range(lo, hi):
            name, start, end, _ = spans[i]
            self.durations[name].append(end - start)
            self.self_times[name].append(end - start - child_time[i])

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def self_total(self, name: str) -> float:
        return float(sum(self.self_times.get(name, ())))

    def p50_ms(self, name: str, self_time: bool = False) -> float:
        values = (self.self_times if self_time else self.durations).get(name)
        return 1e3 * float(np.median(values)) if values else 0.0
