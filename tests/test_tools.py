"""The repository's tools stay in step with the command line they drive."""

import copy
import json
import os
import string
import sys
import tempfile
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
import step_phases  # noqa: E402


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


def test_npz_difference_tells_metadata_from_arrays(tmp_path):
    def archive(name, meta, **arrays):
        np.savez(tmp_path / name, __meta__=np.array(json.dumps(meta)), **arrays)
        return tmp_path / name

    w = np.arange(6.0).reshape(2, 3)
    meta = {"version": 2, "extra": {"next_batch": 1, "episode.control_period": 6.0}}
    old = archive("old.npz", meta, w=w, b=np.zeros(3, np.float32))
    new = archive("new.npz", {"version": 2, "extra": {"next_batch": 1}},
                  w=w.copy(), b=np.zeros(3, np.float32))
    assert output_digests.npz_difference(old, new) == {
        "arrays_equal": True, "arrays_differ": [],
        "meta_keys_differ": ["extra.episode.control_period"],
    }
    # an array of another dtype, shape or value differs, and so does one
    # only one side holds; equal metadata lists no key
    for name, arrays in (("dtype", {"b": np.zeros(3)}), ("shape", {"b": np.zeros(4, np.float32)}),
                         ("value", {"w": w + 1.0e-12}), ("extra", {"c": np.zeros(1)})):
        other = archive(f"{name}.npz", meta, **{"w": w, "b": np.zeros(3, np.float32), **arrays})
        got = output_digests.npz_difference(old, other)
        assert got == {"arrays_equal": False, "arrays_differ": sorted(arrays),
                       "meta_keys_differ": []}, name


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


def test_step_phases_times_every_call_of_a_lane_step(tmp_path):
    # one run of the tool's child on this tree at one two-episode unit: each
    # control step calls each per-step phase once, each episode resets once,
    # and a phase whose function this tree lacks reads as missing
    gone = ("gone", "lidar", "RetiredCaster.cast")
    got = step_phases.run(ROOT, 2, tmp_path / "run", units=1, episodes=2,
                          phases=step_phases.PHASES + (gone,))
    phases = got["phases"]
    assert got["missing"] == ["gone"]
    assert phases.pop("gone") == {"calls": 0, "median_us": 0.0, "share": 0.0}
    assert set(phases) == {name for name, _, _ in step_phases.PHASES}
    assert got["steps"] > 0 and got["steps_per_s"] > 0.0
    for name in ("rk4_step", "cast", "policy_step", "observe"):
        assert phases[name]["calls"] == got["steps"], name
    assert phases["reset"]["calls"] == 2
    assert all(p["median_us"] > 0.0 and 0.0 < p["share"] < 1.0 for p in phases.values())
    assert got["rest_share"] == pytest.approx(1.0 - sum(p["share"] for p in phases.values()))
    assert 0.0 < got["rest_share"] < 1.0


def test_run_python_reports_a_failing_childs_exit_code_and_stderr(tmp_path):
    script = "import sys; sys.stderr.write('no lift'); sys.exit(3)"
    with pytest.raises(RuntimeError, match=r"(?s)\(exit 3\).*no lift") as caught:
        bench_pairs.run_python(ROOT, ["-c", script, "seed"], tmp_path)
    assert script not in str(caught.value) and "seed" in str(caught.value)


def test_run_python_gives_one_blas_thread_only_the_requested_paths_and_no_bytecode(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    script = ("import os, sys; "
              "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['PYTHONPATH'], "
              "sys.dont_write_bytecode)")
    got = bench_pairs.run_python(ROOT, ["-c", script], tmp_path, paths=("src", "tests"))
    assert got.split() == ["1", f"{ROOT / 'src'}{os.pathsep}{ROOT / 'tests'}", "True"]


def test_alternating_starts_with_the_parent_and_swaps_every_seed():
    parent_first, change_first = ("parent", "change"), ("change", "parent")
    assert list(bench_pairs.alternating([2, 3, 4])) == [
        (2, parent_first), (3, change_first), (4, parent_first)]


def test_checkouts_extract_both_commits_and_remove_them_on_exit(tmp_path, monkeypatch):
    # from a throwaway one-commit repository, so that the test needs no
    # git checkout of its own
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    script = (ROOT / "tools" / "bench_pairs.py").read_bytes()
    (repo / "tools" / "bench_pairs.py").write_bytes(script)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.git("init", "-q")
    bench_pairs.git("add", "-A")
    bench_pairs.git("-c", "user.name=test", "-c", "user.email=test@example.com",
                    "-c", "commit.gpgsign=false", "commit", "-qm", "one")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    with bench_pairs.checkouts("HEAD", "HEAD", "checkouts-") as tmp:
        assert tmp.parent == tmp_path and tmp.name.startswith("checkouts-")
        parent, change = tree(tmp / "parent"), tree(tmp / "change")
        assert parent == change == {Path("tools/bench_pairs.py"): script}
    assert not tmp.exists()
