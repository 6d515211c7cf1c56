"""The repository's tools stay in step with the command line they drive."""

import copy
import json
import string
import sys
from pathlib import Path

import numpy as np
import pytest

import asterhover
from asterhover.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402
import learning_check  # noqa: E402
import memory_phases  # noqa: E402
import output_digests  # noqa: E402


def filled(args: list[str]) -> list[str]:
    """`args` with each {placeholder} replaced by a file name."""
    fields = {name for arg in args for _, name, _, _ in string.Formatter().parse(arg) if name}
    return [arg.format(**{name: f"{name}.input" for name in fields}) for arg in args]


@pytest.mark.parametrize("args", [args for _, args, _ in output_digests.RUNS],
                         ids=[run for run, _, _ in output_digests.RUNS])
def test_output_digest_runs_parse_with_the_cli(args):
    # the digest tool appends --out to every command line it runs
    parsed = build_parser().parse_args([*filled(args), "--out", "out"])
    assert parsed.command == args[0]
    assert parsed.out == "out"


def test_pooled_bench_record_keeps_every_comparison():
    # a record of the per-unit form, pooled: the same units per side, the
    # same pairs with equal outputs, and at most a fifth of the bytes
    path = ROOT / "BENCH_0c70a1e-worktree.json"
    record = json.loads(path.read_text())
    pooled = copy.deepcopy(record)
    for name, workload in pooled["workloads"].items():
        old = record["workloads"][name]
        columns, rows = bench_pairs.pool_outputs(workload["pairs"])
        workload.update(output_columns=columns, outputs=rows)
        for pair, old_pair in zip(workload["pairs"], old["pairs"]):
            for side in ("parent", "change"):
                units = [dict(zip(columns, rows[i])) for i in pair[side]["outputs"]]
                assert units == old_pair[side]["outputs"]
        equal = sum(bench_pairs.same_outputs(pair, rows) for pair in workload["pairs"])
        assert equal == old["pairs_with_equal_outputs"]
    assert 5 * len(json.dumps(pooled, indent=0)) <= path.stat().st_size
    # a unit whose digest differs between the sides makes its pair unequal
    pair = copy.deepcopy(record["workloads"]["eval-baseline"]["pairs"][0])
    pair["change"]["outputs"][0]["summary.csv"] = "0"
    _, rows = bench_pairs.pool_outputs([pair])
    assert not bench_pairs.same_outputs(pair, rows)


def test_learning_check_reads_criterion_10_as_the_test_does():
    # the measures of tests/test_acceptance.py's criterion 10, on a run of
    # its 35 batches and on one too short for a moving-average step
    rng = np.random.default_rng(3)
    for batches in (35, 20):
        pos_err = rng.uniform(5.0, 50.0, batches)
        reward = np.cumsum(rng.normal(0.1, 1.0, batches))
        got = learning_check.curriculum_stats(pos_err.tolist(), reward.tolist())
        ratio = pos_err[-10:].mean() / pos_err[0]
        drops = np.diff(np.convolve(reward, np.full(20, 1.0 / 20.0), mode="valid"))
        assert got["final_over_untrained"] == pytest.approx(ratio, rel=1e-12)
        assert got["min_ma_step"] == pytest.approx(drops.min() if drops.size else 0.0, abs=1e-9)
        assert got["passes"] == (ratio <= 0.5 and np.min(drops, initial=0.0) >= -1.0e-9)


def test_memory_phases_accounts_for_every_rise_of_the_peak(tmp_path):
    # one run of the tool's child on this tree at a tiny config: the peak
    # after import plus each phase's rise and the rest is the final peak
    out = tmp_path / "run"
    got = memory_phases.run(ROOT, 2, out, ["ppo.episodes_per_batch=2", "ppo.epochs=1",
                                           "episode.duration=30.0"])
    assert (out / "metrics.csv").exists()
    assert set(got["rise_mb"]) == set(memory_phases.PHASES)
    assert all(rise >= 0.0 for rise in got["rise_mb"].values()) and got["other_mb"] >= 0.0
    total = got["import_mb"] + sum(got["rise_mb"].values()) + got["other_mb"]
    assert total == pytest.approx(got["peak_mb"], abs=1e-9)
    assert 0.0 < got["import_mb"] < got["peak_mb"]
    # its two lanes fly in two processes wherever two CPUs are usable
    assert (got["helper_peak_mb"] > 0.0) == (asterhover.usable_cpus() > 1)
