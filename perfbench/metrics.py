"""Metrics from the units a workload ran (see ``workloads.run_units``).

End-to-end metrics come from untraced units, scaled to the reference
machine speed (calibration.py); ``*_raw`` and ``speed_scale`` show the
unscaled rate and the scale. Per-layer metrics come from the one traced
unit, unscaled. Every metric is ``{"value", "unit", "samples"}``.
"""

from __future__ import annotations

import math
import statistics

from tracing import SpanStats

# Spans whose summed self time is reported, one layer boundary each.
SELF_TIME_SPANS = (
    "env.step", "env.reset", "lidar.scan", "lidar.cast_rays", "dynamics.rk4_step",
    "nn.policy_step.b1", "ppo.ppo_update", "ppo.collect_rollouts", "evaluation.run_episode",
)


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ops(units: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations: episodes and updates.

    An episode or update that raised, an aborted update and a non-finite
    output each count as failed; a unit that raised counts as one failed
    operation on top of the ones it completed.
    """
    attempted = failed = 0
    for unit in units:
        c = unit["counts"]
        attempted += unit["episodes"] + c.get("ppo.updates", 0)
        failed += c.get("ppo.update_aborted", 0) + c.get("ppo.nonfinite_rewards", 0)
        if unit["error"] is not None:
            attempted += 1
            failed += 1
    return attempted, failed


def _check_repeats(units: list[dict]) -> list[str]:
    """Units with one seed must have written byte-identical outputs."""
    problems = []
    by_seed: dict[int, list[dict]] = {}
    for unit in units:
        if unit["error"] is None:
            by_seed.setdefault(unit["seed"], []).append(unit["digests"])
    for seed, digests in by_seed.items():
        if any(d != digests[0] for d in digests[1:]):
            problems.append(f"outputs of seed {seed} differ between repeats: {digests}")
    if not any(len(d) > 1 for d in by_seed.values()):
        problems.append("no seed ran twice; determinism unchecked")
    return problems


def end_to_end(workload: str, units: list[dict], peak_rss_mb: float) -> dict:
    timed = [u for u in units if u["role"] == "timed" and u["error"] is None]
    n = len(timed)
    median = statistics.median if timed else (lambda values: math.nan)
    out = {
        "env_steps_per_s": _metric(median([u["steps"] / u["timed_s"] for u in timed]), "1/s", n),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
    }
    if workload == "train-default":
        out["train_batch_s"] = _metric(median([u["timed_s"] for u in timed]), "s", n)
    else:
        out["eval_episodes_per_s"] = _metric(
            median([u["episodes"] / u["timed_s"] for u in timed]), "1/s", n
        )
    out["env_steps_per_s_raw"] = _metric(
        median([u["steps"] / u["raw_s"] for u in timed]), "1/s", n
    )
    out["speed_scale"] = _metric(median([u["scale"] for u in timed]), "ratio", n)
    return out


def per_layer(units: list[dict], spans: list[list]) -> dict:
    traced = next(u for u in units if u["traced"])
    reference = next(u for u in units if u["role"] == "reference")
    stats = SpanStats(spans, *traced["spans"])
    c = traced["counts"]
    phase_s = traced["raw_s"]  # the timed phase; no calibration pass falls inside it
    n = stats.calls

    def busy(name):
        return _metric(_ratio(stats.total(name), phase_s), "ratio", n(name))

    def p50(name):
        return _metric(stats.p50_ms(name), "ms", n(name))

    def total(name):
        return _metric(stats.total(name), "s", n(name))

    def count(value, samples=1):
        return _metric(value, "count", samples)

    traced_rate = _ratio(traced["steps"], traced["timed_s"])
    untraced_rate = _ratio(reference["steps"], reference["timed_s"])
    out = {
        "lidar.scan.calls": count(n("lidar.scan")),
        "lidar.scan.ms_p50": p50("lidar.scan"),
        "lidar.scan.busy_share": busy("lidar.scan"),
        "lidar.cast_rays.calls": count(n("lidar.cast_rays")),
        "lidar.ray_facet_tests": count(c.get("lidar.ray_facet_tests", 0), n("lidar.cast_rays")),
        "lidar.bytes_computed": _metric(c.get("lidar.bytes_computed", 0), "B", n("lidar.cast_rays")),
        "lidar.hit_ratio": _metric(
            _ratio(c.get("lidar.beams_hit", 0), c.get("lidar.beams", 0)), "ratio", n("lidar.scan")
        ),
        "dynamics.rk4_step.calls": count(n("dynamics.rk4_step")),
        "dynamics.rk4_step.ms_p50": p50("dynamics.rk4_step"),
        "dynamics.rk4_step.busy_share": busy("dynamics.rk4_step"),
        "env.step.self_ms": _metric(stats.p50_ms("env.step", self_time=True), "ms", n("env.step")),
        "env.reset.calls": count(n("env.reset")),
        "env.reset.ms_p50": p50("env.reset"),
        "env.HoverEnv.init_s": total("env.HoverEnv.init"),
        "env.ic_accept_ratio": _metric(
            _ratio(n("env.reset"), c.get("env.ic_draws", 0)), "ratio", c.get("env.ic_draws", 0)
        ),
        "geometry.synthesize_asteroid.calls": count(n("geometry.synthesize_asteroid")),
        "geometry.synthesize_asteroid.ms_p50": p50("geometry.synthesize_asteroid"),
        "geometry.load_mesh.s": total("geometry.load_mesh"),
        "nn.policy_step.b1.calls": count(n("nn.policy_step.b1")),
        "nn.policy_step.b1.ms_p50": p50("nn.policy_step.b1"),
        "nn.policy_step.batched.calls": count(n("nn.policy_step.batched")),
        "nn.policy_step.batched.ms_p50": p50("nn.policy_step.batched"),
        "nn.policy_forward_sequence.s": total("nn.policy_forward_sequence"),
        "nn.policy_backward_sequence.s": total("nn.policy_backward_sequence"),
        "nn.value_forward_sequence.s": total("nn.value_forward_sequence"),
        "nn.value_backward_sequence.s": total("nn.value_backward_sequence"),
        "nn.adam_step.s": total("nn.adam_step"),
        "nn.save_checkpoint.s": total("nn.save_checkpoint"),
        "nn.save_checkpoint.bytes": _metric(
            c.get("nn.save_checkpoint.bytes", 0), "B", n("nn.save_checkpoint")
        ),
        "ppo.collect_rollouts.s": total("ppo.collect_rollouts"),
        "ppo.compute_advantages.s": total("ppo.compute_advantages"),
        "ppo.ppo_update.s": total("ppo.ppo_update"),
        "ppo.policy_epochs": count(c.get("ppo.policy_epochs", 0), n("ppo.ppo_update")),
        "ppo.padded_step_ratio": _metric(
            _ratio(c.get("ppo.real_steps", 0), c.get("ppo.padded_steps", 0)),
            "ratio", n("ppo.collect_rollouts"),
        ),
        "ppo.update_aborted": count(c.get("ppo.update_aborted", 0), n("ppo.ppo_update")),
        "evaluation.run_episode.ms_p50": p50("evaluation.run_episode"),
        "evaluation.write_report_files.s": total("evaluation.write_report_files"),
        "trace.spans": count(sum(stats.calls(name) for name in stats.durations)),
        "trace.env_steps_per_s": _metric(traced_rate, "1/s", 1),
        "trace.untraced_env_steps_per_s": _metric(untraced_rate, "1/s", 1),
        "trace.overhead_share": _metric(
            1.0 - _ratio(traced_rate, untraced_rate) if untraced_rate else 0.0, "ratio", 1
        ),
    }
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = _metric(stats.self_total(name), "s", n(name))
    return out


def summarize(workload: str, units: list[dict], rec, peak_rss_mb: float,
              probe_metrics: dict) -> dict:
    """Counts, checks and metrics; ``probe_metrics`` join the per-layer ones."""
    attempted, failed = _ops(units)
    checks = _check_repeats(units)
    traced = any(u["traced"] for u in units)
    if traced:
        layer = {**per_layer(units, rec.spans), **probe_metrics}
        e2e = {}
    else:
        layer = {}
        e2e = end_to_end(workload, units, peak_rss_mb)
        e2e["ops_failed_ratio"] = _metric(_ratio(failed, attempted), "ratio", attempted)
    for name, metric in {**e2e, **layer}.items():
        if not math.isfinite(metric["value"]):
            checks.append(f"{name} is not finite")
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "end_to_end": e2e,
        "per_layer": layer,
    }
