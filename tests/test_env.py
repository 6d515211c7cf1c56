import copy
import functools
import math
import struct

import numpy as np
import pytest

from asterhover import env as env_module
from asterhover import nn
from asterhover.dynamics import G_REF, ISP_DEFAULT, quat_angle, quat_error, quat_to_dcm
from asterhover.env import (
    DR_SCALE,
    DRY_MASS,
    MAX_EPISODE_STEPS,
    R_ERR_SCALE,
    RK4_DT,
    ROT_LIMIT,
    TERMINAL_OMEGA_LIMIT,
    VIOLATION_KINDS,
    EpisodeConfig,
    HoverEnv,
    compute_reward,
    good_hover,
    rollout,
    sample_initial_conditions,
    surface_radius,
)
from asterhover.errors import ConfigurationError, MeshLoadError, SimulationError
from asterhover.geometry import (
    AsteroidDynRanges,
    AsteroidGenConfig,
    mesh_half_extents,
    save_mesh,
    synthesize_asteroid,
)
from asterhover.lidar import (
    LaneCast,
    LidarFrame,
    PreparedMesh,
    SensorConfig,
    cast_rays,
    rotated_beams,
    scan,
)

from dynamics_reference import quat_rotate, rk4_step_reference
from env_reference import compute_reward_reference, fly, observe_reference
from geometry_reference import load_mesh

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def quiet_config(**overrides) -> EpisodeConfig:
    """A scenario with no gravity, spin, disturbances or IC spread: a
    spacecraft that starts perfectly at rest stays put."""
    cfg = EpisodeConfig(
        velocity_max=0.0,
        attitude_err_max_deg=0.0,
        omega_max=0.0,
        failure_prob=0.0,
        dyn=AsteroidDynRanges(
            mass_min=1.0e-6, mass_max=1.0e-6, spin_min=0.0, spin_max=0.0, srp_max=0.0
        ),
        **overrides,
    )
    return cfg


# --------------------------------------------------------------------------
# Config


def test_config_validation():
    EpisodeConfig().validate()
    with pytest.raises(ConfigurationError):
        EpisodeConfig(control_period=5.0).validate()  # not a multiple of RK4_DT
    with pytest.raises(ConfigurationError):
        EpisodeConfig(duration=601.0).validate()
    with pytest.raises(ConfigurationError):
        EpisodeConfig(range_min=600.0, range_max=100.0).validate()
    with pytest.raises(ConfigurationError):
        EpisodeConfig(wet_mass_min=399.0).validate()  # below DRY_MASS
    with pytest.raises(ConfigurationError):
        EpisodeConfig(failure_prob=1.5).validate()
    with pytest.raises(ConfigurationError):
        EpisodeConfig(velocity_max=-1.0).validate()


def test_episode_steps_are_bounded():
    # validate only: nothing is allocated or flown
    at_bound = EpisodeConfig(duration=6.0 * MAX_EPISODE_STEPS)
    at_bound.validate()
    assert at_bound.max_steps == MAX_EPISODE_STEPS
    for cfg in (EpisodeConfig(duration=6.0 * (MAX_EPISODE_STEPS + 1)),
                EpisodeConfig(duration=RK4_DT * (MAX_EPISODE_STEPS + 1), control_period=RK4_DT),
                EpisodeConfig(duration=1.0e308, control_period=RK4_DT)):
        with pytest.raises(ConfigurationError, match=f"at most {MAX_EPISODE_STEPS} steps"):
            cfg.validate()


def test_range_max_must_stay_below_the_sensor_reach():
    reach = SensorConfig().max_range
    EpisodeConfig(range_max=np.nextafter(reach, 0.0)).validate()
    for cfg in (EpisodeConfig(range_max=reach), EpisodeConfig(range_max=1.0e6),
                EpisodeConfig(sensor=SensorConfig(max_range=3.0))):
        with pytest.raises(ConfigurationError, match=r"range_max .* sensor\.max_range"):
            cfg.validate()


def test_config_step_counts():
    cfg = EpisodeConfig()
    assert cfg.substeps == 3
    assert cfg.max_steps == 100
    assert EpisodeConfig(duration=1200.0).max_steps == 200
    assert EpisodeConfig(duration=300.0).max_steps == 50


# --------------------------------------------------------------------------
# Reward and classification


def test_reward_perfect_hover_mid_episode():
    r, terms = compute_reward(0.0, IDENTITY_Q, np.zeros(12), False, False)
    assert r == pytest.approx(0.01, abs=1e-15)
    assert terms["step"] == 0.01
    assert terms["position"] == 0.0 and terms["attitude"] == 0.0


def test_reward_terms_and_sum(rng):
    from asterhover.dynamics import quat_from_axis_angle

    dq = quat_from_axis_angle([0.0, 1.0, 0.0], 0.3)
    action = np.zeros(12)
    action[[0, 3, 7]] = 1.0
    r, terms = compute_reward(5.0, dq, action, False, False)
    assert terms["position"] == pytest.approx(-0.02 * 5.0, rel=1e-12)
    assert terms["attitude"] == pytest.approx(-0.01 * 0.3, rel=1e-9)
    assert terms["control"] == pytest.approx(-0.05 * 3.0 / 12.0, rel=1e-12)
    assert r == pytest.approx(sum(terms.values()), abs=1e-12)


def test_reward_terminal_bonus_and_violation():
    r_ok, terms_ok = compute_reward(1.0, IDENTITY_Q, np.zeros(12), True, False)
    assert terms_ok["terminal_bonus"] == 10.0
    assert r_ok == pytest.approx(10.0 + 0.01 - 0.02, abs=1e-12)
    r_bad, terms_bad = compute_reward(0.0, IDENTITY_Q, np.zeros(12), False, True)
    assert terms_bad["violation"] == -50.0
    assert r_bad == pytest.approx(-50.0 + 0.01, abs=1e-12)


def test_good_hover_edges():
    assert good_hover(1.99, 0.099, 0.0149) == (True, True)
    assert good_hover(2.0, 0.05, 0.001) == (False, True)   # strict <
    assert good_hover(4.99, 0.05, 0.001) == (False, True)
    assert good_hover(5.0, 0.05, 0.001) == (False, False)
    assert good_hover(1.0, 0.10, 0.001) == (False, False)  # speed at limit fails
    assert good_hover(1.0, 0.05, 0.015) == (False, False)  # rate at limit fails


# --------------------------------------------------------------------------
# Observations


def frame_of(values, miss_value=2000.0):
    ranges = np.asarray(values, dtype=np.float64)
    return LidarFrame(ranges, ranges < miss_value)


def step_seeing(env, frame):
    """One all-off step of `env` observing `frame` in place of the image it
    would take."""
    env._frame = lambda: frame
    try:
        return env.step(np.zeros(12))
    finally:
        del env._frame


def test_step_image_differences():
    env = HoverEnv(quiet_config())
    env.reset(seed=5)
    env.frame0 = frame_of(np.full((8, 8), 300.0))
    env.prev_frame = frame_of(np.full((8, 8), 295.0))
    image, *_ = step_seeing(env, frame_of(np.full((8, 8), 291.0)))
    np.testing.assert_allclose(image[..., 0] * R_ERR_SCALE, -9.0)
    np.testing.assert_allclose(image[..., 1] * DR_SCALE, -4.0)
    # the next step differences against this frame
    assert env.prev_frame.ranges[0, 0] == 291.0


def test_hit_to_miss_passes_through():
    base = np.full((8, 8), 300.0)
    gone = base.copy()
    gone[0, 0] = 2000.0
    env = HoverEnv(quiet_config())
    env.reset(seed=5)
    env.frame0 = env.prev_frame = frame_of(base)
    image, *_ = step_seeing(env, frame_of(gone))
    assert image[0, 0, 0] == 1700.0 / R_ERR_SCALE
    assert image[0, 0, 1] == 1700.0 / DR_SCALE


def test_descent_over_plane_dr_oracle():
    # 1 m of pure boresight-axis descent between frames: each beam shortens
    # by 1/cos(off-axis); the central cells read -1 m to within 0.2%.
    from asterhover.lidar import beam_directions

    from test_lidar import plane_mesh

    cfg = SensorConfig()
    lane = LaneCast(PreparedMesh(plane_mesh(0.0)), rotated_beams(cfg, np.eye(3)))
    frames = [scan(lane, np.array([0.0, 0.0, h]), cfg) for h in (250.0, 249.0, 248.0)]
    env = HoverEnv(quiet_config())
    env.reset(seed=5)
    env.frame0, env.prev_frame = frames[0], frames[1]
    image, *_ = step_seeing(env, frames[2])
    dr = image[..., 1] * DR_SCALE
    cosines = -beam_directions(cfg)[..., 2]
    np.testing.assert_allclose(dr, -1.0 / cosines, rtol=1e-9)
    np.testing.assert_allclose(image[..., 0] * R_ERR_SCALE, -2.0 / cosines, rtol=1e-9)
    np.testing.assert_allclose(dr[3:5, 3:5], -1.0, rtol=2e-3)


def test_network_input_scaling():
    env = HoverEnv(quiet_config())
    env.reset(seed=5)
    env.frame0 = frame_of(np.full((8, 8), 350.0))
    env.prev_frame = frame_of(np.full((8, 8), 302.0))
    env.state.position = env.r0 + np.array([10.0, -20.0, 0.0])
    env.state.velocity = np.array([0.05, 0.0, 0.0])
    image, vec, value_input, *_ = step_seeing(env, frame_of(np.full((8, 8), 300.0)))
    assert image.shape == (8, 8, 2)
    np.testing.assert_allclose(image[..., 0], -0.5)
    np.testing.assert_allclose(image[..., 1], -0.2)
    state = env.state
    dq = quat_error(state.attitude, env.q0)
    np.testing.assert_array_equal(vec, np.concatenate([dq, state.omega]))
    # critic: position error scaled like the image (10.3 m after 6 s at
    # 5 cm/s), then velocity, attitude change and rates unscaled
    assert value_input.shape == (13,)
    np.testing.assert_allclose(value_input[:3], [0.103, -0.2, 0.0], atol=1e-9)
    np.testing.assert_array_equal(value_input[3:], np.concatenate([state.velocity, dq, state.omega]))


# --------------------------------------------------------------------------
# Initial conditions


def test_surface_radius_exact_sphere_pole():
    cfg = AsteroidGenConfig(perturbation_min=0.0, perturbation_max=0.0, axis_min=300.0, axis_max=300.0)
    model = synthesize_asteroid(3, cfg)
    r = surface_radius(PreparedMesh(model.mesh), np.array([0.0, 0.0, 1.0]))
    assert r == pytest.approx(300.0, rel=1e-9)


def test_sample_initial_conditions_distribution():
    cfg = EpisodeConfig()
    rng = np.random.default_rng(7)
    prep = PreparedMesh(synthesize_asteroid(rng, cfg.asteroid, cfg.dyn).mesh)
    worst_att = 0.0
    for _ in range(300):
        state = sample_initial_conditions(rng, cfg, prep)
        assert state is not None  # star-shaped body: every direction hits
        u = state.position / np.linalg.norm(state.position)
        assert u[2] >= -1e-12  # theta capped at 90 degrees
        r_surf = surface_radius(prep, u)
        hover = np.linalg.norm(state.position) - r_surf
        assert cfg.range_min - 1e-6 <= hover <= cfg.range_max + 1e-6
        assert np.all(np.abs(state.velocity) <= cfg.velocity_max)
        assert np.all(np.abs(state.omega) <= cfg.omega_max)
        assert cfg.wet_mass_min <= state.mass <= cfg.wet_mass_max
        np.testing.assert_array_equal(state.com_offset, 0.0)
        # Angle between the -z body axis and the line of sight to the body.
        boresight = quat_rotate(state.attitude, np.array([0.0, 0.0, -1.0]))
        cos_err = float(np.clip(np.dot(boresight, -u), -1.0, 1.0))
        err = math.degrees(math.acos(cos_err))
        worst_att = max(worst_att, err)
        assert err <= cfg.attitude_err_max_deg + 1e-9
    assert worst_att > 5.0  # the range is actually exercised


def test_zero_attitude_error_puts_boresight_on_los():
    cfg = EpisodeConfig(attitude_err_max_deg=0.0)
    rng = np.random.default_rng(3)
    prep = PreparedMesh(synthesize_asteroid(rng, cfg.asteroid, cfg.dyn).mesh)
    state = sample_initial_conditions(rng, cfg, prep)
    u = state.position / np.linalg.norm(state.position)
    boresight = quat_rotate(state.attitude, np.array([0.0, 0.0, -1.0]))
    np.testing.assert_allclose(boresight, -u, atol=1e-12)


# --------------------------------------------------------------------------
# Episode protocol


def test_reset_deterministic():
    env_a, env_b = HoverEnv(), HoverEnv()
    for a, b in zip(env_a.reset(seed=42), env_b.reset(seed=42)):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(env_a.model.mesh.vertices, env_b.model.mesh.vertices)
    # Different seeds give different worlds.
    env_b.reset(seed=43)
    assert not np.array_equal(env_a.model.mesh.vertices, env_b.model.mesh.vertices)


def test_loaded_mesh_is_prepared_once(tmp_path):
    path = str(tmp_path / "body.obj")
    save_mesh(path, synthesize_asteroid(5).mesh)
    env = HoverEnv(EpisodeConfig(mesh_file=path))
    env.reset(seed=1)
    prep = env._prep
    env.reset(seed=2)
    assert env._prep is prep
    # Synthesized bodies change every reset, and so does their preparation.
    env = HoverEnv()
    env.reset(seed=1)
    prep = env._prep
    env.reset(seed=2)
    assert env._prep is not prep


def test_reset_casts_through_the_lane_its_first_step_reuses(monkeypatch):
    # reset's frame is a lone cast over the beams at the episode's initial
    # attitude, bit for bit, and the first step of a drift episode casts
    # from the ball that reset built, rebuilding none
    from test_lidar import count_rebuilds

    env = HoverEnv()
    env.reset(seed=9)
    lane = env._lane
    beams = rotated_beams(env.cfg.sensor, quat_to_dcm(env.q0))
    assert lane.mesh is env._prep and lane.beams.tobytes() == beams.tobytes()
    ranges, hit = cast_rays(env._prep, env.r0, beams)
    assert env.frame0.ranges.tobytes() == ranges.reshape(8, 8).tobytes()
    assert env.frame0.hit.tobytes() == hit.reshape(8, 8).tobytes()
    rebuilt = count_rebuilds(monkeypatch)
    centre = lane._ball_centre.copy()
    fly(env, np.zeros(12))
    assert rebuilt == [] and env._lane is lane
    # a spawned environment starts without a lane and builds its own
    twin = env.spawn()
    assert twin._lane is None
    twin.reset(seed=10)
    assert twin._lane is not lane
    assert env._lane is lane and lane._ball_centre.tobytes() == centre.tobytes()


def test_first_observation_invariants():
    env = HoverEnv()
    image, vec, value_input = env.reset(seed=9)
    assert image.shape == (8, 8, 2)
    np.testing.assert_array_equal(image, 0.0)
    np.testing.assert_allclose(vec[:4], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_array_equal(vec[4:], env.state.omega)
    assert np.all(np.abs(vec[4:]) <= env.cfg.omega_max)
    np.testing.assert_array_equal(value_input[:3], 0.0)
    np.testing.assert_array_equal(value_input[3:6], env.state.velocity)
    np.testing.assert_array_equal(value_input[6:], vec)


def test_step_trajectory_determinism():
    actions = np.zeros((5, 12))
    actions[1, 0] = 1.0
    actions[3, [2, 5]] = 1.0
    logs = []
    for _ in range(2):
        env = HoverEnv()
        env.reset(seed=1234)
        rows = []
        for a in actions:
            _, value_input, r, done, info = fly(env, a)
            rows.append((value_input, r, done, info["pos_err"]))
        logs.append(rows)
    for (v1, r1, d1, p1), (v2, r2, d2, p2) in zip(*logs):
        np.testing.assert_array_equal(v1, v2)
        assert r1 == r2 and d1 == d2 and p1 == p2


def test_step_flies_one_rk4_call_per_control_period(monkeypatch):
    # A 6 s control period is one rk4_step call of three 2 s steps, equal
    # bit for bit to three chained reference steps on the same command.
    calls = []
    fused = env_module.rk4_step

    def counted(*args, **kwargs):
        calls.append(kwargs["substeps"])
        return fused(*args, **kwargs)

    monkeypatch.setattr(env_module, "rk4_step", counted)
    env = HoverEnv(EpisodeConfig(com_variation=True, failure_prob=1.0))
    env.reset(seed=7)
    rng = np.random.default_rng(7)
    for step in range(6):
        action = rng.integers(0, 2, 12).astype(np.float64)
        want = env.state
        for _ in range(3):
            want = rk4_step_reference(want, action, RK4_DT, env.model, env.table, env._ext)
        env.step(action)
        assert calls == [3] * (step + 1)
        for name in ("position", "velocity", "attitude", "omega"):
            assert getattr(env.state, name).tobytes() == getattr(want, name).tobytes()
        assert env.state.mass == want.mass and env.state.t == want.t


def test_quiet_scenario_runs_full_episode_with_bonus():
    env = HoverEnv(quiet_config())
    env.reset(seed=5)
    total_steps = 0
    last = None
    while True:
        _, _, reward, done, info = fly(env, np.zeros(12))
        total_steps += 1
        last = (reward, info)
        if done:
            break
    assert total_steps == 100
    assert last[1]["t"] == 600.0
    # Mid-episode steps earn exactly eta; the final step adds the bonus.
    assert last[1]["terminal_ok"]
    assert last[0] == pytest.approx(10.0 + 0.01, abs=1e-9)
    assert last[1]["pos_err"] < 1e-6
    assert env.fuel_used == 0.0


def test_quiet_scenario_mid_step_reward_is_eta():
    env = HoverEnv(quiet_config())
    env.reset(seed=5)
    _, _, reward, done, info = fly(env, np.zeros(12))
    assert not done
    assert reward == pytest.approx(0.01, abs=1e-12)
    assert info["reward_terms"]["position"] == pytest.approx(0.0, abs=1e-9)


def test_step_after_done_raises():
    env = HoverEnv(quiet_config(duration=6.0))  # single-step episode
    env.reset(seed=2)
    _, _, _, done, _ = fly(env, np.zeros(12))
    assert done
    with pytest.raises(SimulationError):
        env.step(np.zeros(12))
    # And before any reset at all.
    env2 = HoverEnv()
    with pytest.raises(SimulationError):
        env2.step(np.zeros(12))


def test_action_validation():
    env = HoverEnv(quiet_config())
    env.reset(seed=2)
    with pytest.raises(ConfigurationError):
        env.step(np.zeros(11))
    with pytest.raises(ConfigurationError):
        env.step(np.full(12, 0.5))


def test_rotation_breach_terminates_with_kappa():
    env = HoverEnv(quiet_config())
    env.reset(seed=8)
    env.state.omega = np.array([0.2, 0.0, 0.0])  # force a breach
    _, _, reward, done, info = fly(env, np.zeros(12))
    assert done
    assert info["violation"] == "rotation"
    assert info["reward_terms"]["violation"] == -50.0
    assert reward < -49.0


def test_all_miss_terminates():
    env = HoverEnv(quiet_config())
    env.reset(seed=8)
    env.state.position = np.array([9000.0, 9000.0, 9000.0])
    _, _, reward, done, info = fly(env, np.zeros(12))
    assert done
    assert info["violation"] == "all_miss"
    assert not env.prev_frame.hit.any()
    assert info["reward_terms"]["violation"] == -50.0


def test_fuel_floor_terminates():
    env = HoverEnv(quiet_config())
    env.reset(seed=8)
    env.state.mass = DRY_MASS + 1.0e-4
    _, _, _, done, info = fly(env, np.ones(12))
    assert done
    assert info["violation"] == "fuel"
    assert env.state.mass <= DRY_MASS


def test_observe_names_only_violation_kinds_in_their_order():
    # Each breach is added to the ones before it, last kind first: a state
    # in several breaches names the first kind observe tests, so the kinds
    # driven come out in VIOLATION_KINDS order and cover it.
    def rotation(state):
        state.omega = np.array([0.11, 0.0, 0.0])

    def all_miss(state):
        state.position = state.position + 5000.0 * state.position / np.linalg.norm(state.position)

    def fuel(state):
        state.mass = DRY_MASS

    driven = []
    breaches = []
    for breach in (fuel, all_miss, rotation):
        breaches.append(breach)
        env = HoverEnv(quiet_config())
        env.reset(seed=8)
        for apply in breaches:
            apply(env.state)
        _, _, _, done, info = fly(env, np.zeros(12))
        assert done and info["violation"] in VIOLATION_KINDS
        driven.insert(0, info["violation"])
    assert tuple(driven) == VIOLATION_KINDS


def test_fuel_accounting_matches_rocket_equation():
    env = HoverEnv(quiet_config())
    env.reset(seed=4)
    action = np.zeros(12)
    action[[0, 1, 4]] = 1.0  # 3 N total
    for _ in range(10):
        fly(env, action)
    expected = 10 * 6.0 * 3.0 / (ISP_DEFAULT * G_REF)
    assert env.fuel_used == pytest.approx(expected, rel=1e-12)


def test_scan_stabilization_decouples_attitude():
    # Body rotation between scans must not move the image: position is
    # unchanged, so R_err stays exactly zero while dq grows.
    env = HoverEnv(quiet_config())
    env.reset(seed=6)
    env.state.omega = np.array([0.05, 0.0, 0.0])  # below the 0.10 limit
    (image, vec), _, _, done, _ = fly(env, np.zeros(12))
    assert not done
    np.testing.assert_array_equal(image[..., 0], 0.0)
    assert quat_angle(vec[:4]) == pytest.approx(0.05 * 6.0, rel=1e-6)


def test_reward_decomposition_sums(rng):
    env = HoverEnv()
    env.reset(seed=77)
    for _ in range(20):
        action = (rng.uniform(size=12) < 0.3).astype(float)
        _, _, reward, done, info = fly(env, action)
        assert reward == pytest.approx(sum(info["reward_terms"].values()), abs=1e-12)
        if done:
            break


def test_sensor_noise_scenario():
    env = HoverEnv(quiet_config(sensor_noise=True))
    env.reset(seed=30)
    (image, _), _, _, _, info = fly(env, np.zeros(12))
    hits = env.prev_frame.hit
    assert hits.any()
    # Stationary spacecraft: R_err is sensor noise only, nonzero but small.
    r_err = image[..., 0] * R_ERR_SCALE
    assert np.any(r_err[hits] != 0.0)
    assert np.all(np.abs(r_err[hits]) < 25.0)
    if (~hits).any():
        np.testing.assert_array_equal(env.prev_frame.ranges[~hits], 2000.0)


def test_com_variation_scenario():
    env = HoverEnv(quiet_config(com_variation=True))
    env.reset(seed=10)
    assert np.all(np.abs(env.state.com_offset) <= 0.10)
    assert np.any(env.state.com_offset != 0.0)
    env2 = HoverEnv(quiet_config())
    env2.reset(seed=10)
    np.testing.assert_array_equal(env2.state.com_offset, 0.0)


def test_actuator_failure_draw():
    env = HoverEnv(quiet_config())
    env.cfg.failure_prob = 1.0
    env.reset(seed=3)
    degraded = np.flatnonzero(env.table.health != 1.0)
    assert degraded.size == 1
    assert env.table.health[degraded[0]] == pytest.approx(0.9)
    env.cfg.failure_prob = 0.0
    env.reset(seed=3)
    np.testing.assert_array_equal(env.table.health, 1.0)


def test_default_scenario_null_policy_smoke():
    env = HoverEnv()
    env.reset(seed=101)
    done = False
    steps = 0
    while not done:
        _, _, _, done, info = fly(env, np.zeros(12))
        steps += 1
        assert steps <= 100
    assert env.fuel_used == 0.0
    assert steps == info["step"]
    if steps < 100:
        assert info["violation"] in ("rotation", "all_miss")


def test_rollout_records_every_control_step():
    cfg = EpisodeConfig(
        duration=60.0, failure_prob=0.0, asteroid=AsteroidGenConfig(subdivision_level=1)
    )
    seen = []

    def fire_first_thruster(logits, lanes):
        seen.append(logits)
        action = np.zeros((1, 12), dtype=np.int64)
        action[0, 0] = 1
        return action, np.array([7.5])

    env = HoverEnv(cfg)
    policy = nn.PolicyNetwork(seed=0)
    steps = [step for _, step in rollout(env, policy, [3], fire_first_thruster)]
    assert env.done
    assert [s.info["step"] for s in steps] == list(range(1, len(steps) + 1))
    image, vec, value_input = HoverEnv(cfg).reset(seed=3)
    np.testing.assert_array_equal(steps[0].image, image)
    np.testing.assert_array_equal(steps[0].vec, vec)
    np.testing.assert_array_equal(steps[0].value_input, value_input)
    # each step carries the state its observation was taken in
    np.testing.assert_array_equal(steps[0].state.position, env.r0)
    for step in steps:
        np.testing.assert_array_equal(
            step.value_input[:3], (step.state.position - env.r0) / R_ERR_SCALE
        )
        np.testing.assert_array_equal(step.vec[4:], step.state.omega)
    for step, logits in zip(steps, seen):
        np.testing.assert_array_equal(step.logits, logits[0])
        assert step.logp == 7.5
        assert step.action.tolist() == [1] + [0] * 11
    assert steps[-1].info["fuel_used"] > 0.0


def lane_config() -> EpisodeConfig:
    """Ten-step episodes over a coarse mesh whose fast initial body rates
    end some episodes early under random firing."""
    return EpisodeConfig(
        duration=60.0, range_min=100.0, range_max=150.0, velocity_max=0.01,
        attitude_err_max_deg=2.0, omega_max=0.099, failure_prob=0.0, sensor_noise=True,
        asteroid=AsteroidGenConfig(subdivision_level=1),
        dyn=AsteroidDynRanges(spin_max=1.0e-5, srp_max=0.0),
    )


def lane_steps(seeds, lane):
    """The steps of one lane of a lockstep rollout whose lane k flies the
    episode of `seeds[k]` and samples from its own generator."""
    rngs = [np.random.default_rng((s, 99)) for s in seeds]
    select = functools.partial(nn.sample_multicategorical, rng=rngs)
    lengths = [0] * len(seeds)
    steps = []
    for k, step in rollout(HoverEnv(lane_config()), nn.PolicyNetwork(seed=1), seeds, select):
        lengths[k] += 1
        if k == lane:
            steps.append(step)
    return steps, lengths


def test_rollout_lane_bytes_do_not_depend_on_the_other_lanes():
    base, lengths = lane_steps([1, 2, 3, 4, 5], lane=1)
    other, other_lengths = lane_steps([6, 2, 7, 8, 9], lane=1)
    # The other lanes fly other bodies, and some finish first.
    assert min(lengths) < lengths[1] or min(other_lengths) < other_lengths[1]
    assert lengths[1] == other_lengths[1] == len(base) == len(other)
    for a, b in zip(base, other):
        for name in ("image", "vec", "value_input", "logits", "action", "logp"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        np.testing.assert_array_equal(a.state.position, b.state.position)
        assert a.reward == b.reward and a.info == b.info


@pytest.mark.parametrize("lanes", [None, [1, 2, 4]])
def test_each_flown_lane_draws_once_per_step_it_flies(lanes):
    seeds = [1, 2, 3, 4, 5]
    rngs = [np.random.default_rng((s, 99)) for s in seeds]
    select = functools.partial(nn.sample_multicategorical, rng=rngs)
    lengths = [0] * len(seeds)
    for k, _ in rollout(HoverEnv(lane_config()), nn.PolicyNetwork(seed=1), seeds, select, lanes):
        lengths[k] += 1
    flown = [lengths[k] for k in (range(len(seeds)) if lanes is None else lanes)]
    assert min(flown) < max(flown)  # a lane ends early, and stops drawing
    for k, s in enumerate(seeds):
        fresh = np.random.default_rng((s, 99))
        fresh.uniform(size=(lengths[k], 12))
        assert rngs[k].bit_generator.state == fresh.bit_generator.state, k


def test_spawn_shares_the_loaded_mesh(tmp_path):
    path = str(tmp_path / "body.obj")
    save_mesh(path, synthesize_asteroid(5).mesh)
    env = HoverEnv(EpisodeConfig(mesh_file=path))
    env.reset(seed=1)
    twin = env.spawn()
    assert twin._prep is env._prep and twin.cfg is env.cfg
    assert twin.done and twin.state is None
    twin.reset(seed=2)
    assert not np.array_equal(twin.state.position, env.state.position)


# --------------------------------------------------------------------------
# Shape models from files: one parse and one preparation per content and scale


def count_parses(monkeypatch) -> list[str]:
    """The path of every mesh file an environment parses from now on."""
    parses = []
    parse = env_module.parse_mesh

    def counted(data, path):
        parses.append(path)
        return parse(data, path)

    monkeypatch.setattr(env_module, "parse_mesh", counted)
    return parses


def body_file(path, seed: int) -> str:
    save_mesh(str(path), synthesize_asteroid(seed).mesh)
    return str(path)


def test_environments_on_one_file_share_one_prepared_body(tmp_path, monkeypatch):
    parses = count_parses(monkeypatch)
    path = body_file(tmp_path / "body.obj", 5)
    a, b = HoverEnv(EpisodeConfig(mesh_file=path)), HoverEnv(EpisodeConfig(mesh_file=path))
    assert b._prep is a._prep and b._loaded_mesh is a._loaded_mesh
    assert b._loaded_extents is a._loaded_extents
    # the key is the content, not the path
    copy_path = tmp_path / "copy.obj"
    copy_path.write_bytes((tmp_path / "body.obj").read_bytes())
    assert HoverEnv(EpisodeConfig(mesh_file=str(copy_path)))._prep is a._prep
    assert parses == [path]
    want = load_mesh(path)
    assert a._loaded_mesh.vertices.tobytes() == want.vertices.tobytes()
    assert a._loaded_mesh.faces.tobytes() == want.faces.tobytes()


def test_a_rewritten_file_gives_the_new_body(tmp_path, monkeypatch):
    parses = count_parses(monkeypatch)
    path = body_file(tmp_path / "body.obj", 5)
    old = HoverEnv(EpisodeConfig(mesh_file=path))
    body_file(tmp_path / "body.obj", 6)
    new = HoverEnv(EpisodeConfig(mesh_file=path))
    assert parses == [path, path]
    assert new._prep is not old._prep
    assert new._loaded_mesh.vertices.tobytes() == load_mesh(path).vertices.tobytes()
    assert not np.array_equal(new._loaded_mesh.vertices, old._loaded_mesh.vertices)
    # one digit of the first vertex changed, the length kept
    data = (tmp_path / "body.obj").read_bytes()
    at = data.index(b"\nv ") + 3
    at += data[at:at + 1] == b"-"
    digit = b"3" if data[at:at + 1] != b"3" else b"4"
    (tmp_path / "body.obj").write_bytes(data[:at] + digit + data[at + 1:])
    edited = HoverEnv(EpisodeConfig(mesh_file=path))
    assert parses == [path, path, path]
    assert edited._loaded_mesh.vertices.tobytes() == load_mesh(path).vertices.tobytes()
    assert not np.array_equal(edited._loaded_mesh.vertices[0], new._loaded_mesh.vertices[0])


def test_a_new_scale_is_prepared_without_a_parse(tmp_path, monkeypatch):
    parses = count_parses(monkeypatch)
    path = body_file(tmp_path / "body.obj", 5)
    one = HoverEnv(EpisodeConfig(mesh_file=path))
    three = HoverEnv(EpisodeConfig(mesh_file=path, mesh_scale=3.0))
    assert three._prep is not one._prep
    assert three._loaded_mesh.vertices.tobytes() == load_mesh(path, 3.0).vertices.tobytes()
    assert three._loaded_extents.tobytes() == mesh_half_extents(load_mesh(path, 3.0)).tobytes()
    # the cache holds one scale at a time, and returning to a scale prepares
    # it again, from the same parse
    again = HoverEnv(EpisodeConfig(mesh_file=path))
    assert again._prep is not one._prep
    assert again._loaded_mesh.vertices.tobytes() == one._loaded_mesh.vertices.tobytes()
    assert parses == [path]
    assert env_module._shape_model[2] == 1.0 and env_module._shape_model[5] is again._prep


@pytest.mark.parametrize("scale", [math.nan, math.inf, 1.0e308])
def test_a_scale_past_float_range_is_refused_and_keeps_the_cached_body(tmp_path, scale):
    # 1e308 is finite, but it takes a vertex hundreds of metres out to inf
    path = body_file(tmp_path / "body.obj", 5)
    good = HoverEnv(EpisodeConfig(mesh_file=path))
    match = "past float range" if scale == 1.0e308 else "mesh scale must be positive"
    with pytest.raises(ConfigurationError, match=match):
        env_module.load_mesh(path, scale)
    assert HoverEnv(EpisodeConfig(mesh_file=path))._prep is good._prep


@pytest.mark.parametrize("text", [None, "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "v 0 0\n"],
                         ids=["missing", "face-index-out-of-range", "short-vertex"])
def test_a_bad_file_fails_alike_on_every_build(tmp_path, monkeypatch, text):
    good = HoverEnv(EpisodeConfig(mesh_file=body_file(tmp_path / "good.obj", 5)))
    parses = count_parses(monkeypatch)
    bad = tmp_path / "bad.obj"
    if text is not None:
        bad.write_text(text)
    with pytest.raises(MeshLoadError) as want:
        load_mesh(str(bad))
    for _ in range(2):
        with pytest.raises(MeshLoadError) as got:
            HoverEnv(EpisodeConfig(mesh_file=str(bad)))
        assert str(got.value) == str(want.value)
    assert parses == ([] if text is None else [str(bad)] * 2)
    # a failed build leaves the cached body as it was
    assert HoverEnv(EpisodeConfig(mesh_file=str(tmp_path / "good.obj")))._prep is good._prep
    with pytest.raises(ConfigurationError, match="mesh scale must be positive"):
        HoverEnv(EpisodeConfig(mesh_file=str(bad), mesh_scale=0.0))


def test_a_shared_body_is_read_only(tmp_path):
    env = HoverEnv(EpisodeConfig(mesh_file=body_file(tmp_path / "body.obj", 5)))
    env.reset(seed=1)
    prep = env._prep
    shared = [env.model.mesh.vertices, env.model.mesh.faces, env.model.axes, prep.v0,
              prep.edge1, prep.edge2, prep.centroid, prep.radius, prep.normal, prep.normal_len]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


# --------------------------------------------------------------------------
# _observe and compute_reward against their array form


def identical(a, b) -> bool:
    """Equal in type and bit for bit, NaNs and signed zeros included."""
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return type(b) is float and struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def step_observing(env, action, observe, omega=None):
    """env.step(action) completed by `observe(action, frame)` in place of
    env._observe, the body rates set to `omega` first when it is given."""
    def seam(action, frame):
        if omega is not None:
            env.state.omega = np.array(omega)
        return observe(action, frame)

    env._observe = seam
    try:
        return env.step(action)
    finally:
        del env._observe


def assert_steps_as_reference(env, action, omega=None):
    """env.step(action) returns, and leaves, what it does on a copy of env
    whose _observe is observe_reference."""
    twin = copy.deepcopy(env)
    got = step_observing(env, action, env._observe, omega)
    want = step_observing(twin, action, functools.partial(observe_reference, twin), omega)
    assert len(got) == len(want)
    for name, a, b in zip(("image", "vec", "value_input", "reward", "done", "info"), got, want):
        assert identical(a, b), (name, a, b)
    assert env.done == twin.done
    assert identical(env.prev_frame.ranges, twin.prev_frame.ranges)


@pytest.mark.parametrize("seed", range(4))
def test_observe_matches_reference_on_random_episodes(seed):
    # fast initial body rates, random firing and sensor noise: some episodes
    # end in a rotation breach, the others run to the terminal step
    env = HoverEnv(lane_config())
    env.reset(seed=seed)
    rng = np.random.default_rng(seed)
    while not env.done:
        assert_steps_as_reference(env, rng.integers(0, 2, 12))


LIMITS = (ROT_LIMIT, TERMINAL_OMEGA_LIMIT)
EDGE_RATES = [
    *(v for limit in LIMITS for v in (limit, -limit, np.nextafter(limit, 1.0),
                                      -np.nextafter(limit, 1.0), np.nextafter(limit, 0.0))),
    0.0, -0.0, math.inf, -math.inf,
]


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("rate", [*EDGE_RATES, math.nan, -math.nan],
                         ids=lambda r: repr(float(r)))
def test_observe_matches_reference_at_rate_edges(axis, rate):
    # a hover that meets the terminal position and speed limits, so the
    # rate tests decide terminal_ok, rot_breach and the violation
    for others in ((0.0, -0.0), (0.02, -TERMINAL_OMEGA_LIMIT), (math.nan, 0.2)):
        env = HoverEnv(quiet_config(duration=12.0))
        env.reset(seed=3)
        env.step(np.zeros(12))
        omega = list(others)
        omega.insert(axis, float(rate))
        assert_steps_as_reference(env, np.zeros(12), omega)


def test_edge_rates_reach_both_sides_of_each_limit():
    # the edge table reaches both sides of both limits
    env = HoverEnv(quiet_config(duration=12.0))
    seen = set()
    for rate in EDGE_RATES:
        env.reset(seed=3)
        env.step(np.zeros(12))
        info = step_observing(env, np.zeros(12), env._observe, [rate, 0.0, 0.0])[-1]
        seen.add((info["terminal_ok"], info["violation"]))
    assert seen == {(True, None), (False, None), (False, "rotation")}


def test_compute_reward_matches_reference(rng):
    for _ in range(50):
        dq = quat_error(rng.standard_normal(4), np.array([1.0, 0.0, 0.0, 0.0]))
        dq /= np.linalg.norm(dq)
        action = rng.integers(0, 2, 12).astype(np.float64)
        args = (float(rng.uniform(0.0, 50.0)), dq, action, bool(rng.integers(2)),
                bool(rng.integers(2)))
        got, want = compute_reward(*args), compute_reward_reference(*args)
        assert identical(got[0], want[0]) and identical(got[1], want[1])
