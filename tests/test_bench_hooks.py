"""The benchmark's hooks still find the package names they wrap.

``perfbench/`` wraps package functions by module attribute and times its
set-up up to the first episode. A hook target that is renamed or removed
fails here, in tier-1, rather than in a benchmark run.
"""

import pathlib

import pytest

from asterhover import env, evaluation, nn, ppo

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def namespaces():
    """Every attribute of the modules and classes a hook could wrap."""
    from asterhover import lidar

    owners = (env, evaluation, lidar, nn, ppo, env.HoverEnv, nn.PolicyNetwork,
              nn.ValueNetwork, nn.Adam)
    return {owner: dict(vars(owner)) for owner in owners}


@pytest.mark.parametrize("install", [
    dict(full=True),
    dict(full=False, tick=lambda: None),
], ids=["full", "light-with-tick"])
def test_every_hook_wraps_an_existing_name_and_restores_it(tracing, install):
    before = namespaces()
    rec = tracing.Recorder()
    try:
        tracing.install(rec, **install)
        patched = list(rec._patches)
        assert patched
        for owner, attr, original in patched:
            assert before[owner][attr] is original, (owner, attr)
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        rec.restore()
    after = namespaces()
    assert {owner: attrs.keys() for owner, attrs in after.items()} == \
        {owner: attrs.keys() for owner, attrs in before.items()}
    assert [(owner, attr) for owner, attrs in before.items() for attr, value in attrs.items()
            if after[owner][attr] is not value] == []


def first_episode_hooks():
    """(workload, the hook perfbench's set-up timing stops at, the call
    that must reach it) for each kind of workload."""
    def evaluate(tmp_path):
        evaluation.run_monte_carlo(
            nn.PolicyNetwork(seed=0), evaluation.get_scenario("baseline"), 1, seed=1,
            out_dir=str(tmp_path), workers=1,
        )

    def train(tmp_path):
        cfg = ppo.TrainConfig(seed=1, batches=1, out_dir=str(tmp_path), checkpoint_every=1)
        ppo.train(cfg)

    return [("eval", evaluation, "run_episode", evaluate),
            ("train", ppo, "collect_rollouts", train)]


class _FirstEpisode(Exception):
    pass


@pytest.mark.parametrize("workload, owner, attr, run", first_episode_hooks(),
                         ids=[case[0] for case in first_episode_hooks()])
def test_set_up_reaches_its_first_episode_hook_before_any_step(
    tmp_path, monkeypatch, workload, owner, attr, run
):
    steps = []
    step = env.HoverEnv.step

    def counted_step(self, action):
        steps.append(action)
        return step(self, action)

    def first_episode(*args, **kwargs):
        raise _FirstEpisode

    monkeypatch.setattr(env.HoverEnv, "step", counted_step)
    monkeypatch.setattr(owner, attr, first_episode)
    with pytest.raises(_FirstEpisode):
        run(tmp_path)
    assert steps == []
