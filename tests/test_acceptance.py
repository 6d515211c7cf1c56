"""Acceptance gate: twelve pinned behavioral criteria, one test each.

Each test prints a single PASS/FAIL line (run with `pytest -v -s` to see
them alongside the per-test verdicts). Tolerances are stated inline next
to each assertion. The training-progress criterion runs a real reduced
training loop and is by far the slowest entry.
"""

import math
import time
from contextlib import contextmanager

import mpmath
import numpy as np

from asterhover.geometry import (
    AsteroidDynRanges,
    AsteroidGenConfig,
    AsteroidModel,
    GRAVITATIONAL_CONSTANT,
    ellipsoid_rotation_params,
    generate_icosphere,
    synthesize_asteroid,
)
from asterhover.lidar import PreparedMesh, cast_rays
from asterhover.dynamics import (
    ExternalForces,
    SpacecraftState,
    asteroid_angular_velocity,
    body_force_torque,
    default_thruster_table,
    rk4_step,
)
from asterhover.env import EpisodeConfig, HoverEnv, good_hover
from asterhover import nn
from asterhover import ppo
from asterhover.evaluation import run_monte_carlo, Scenario, summary_row

from dynamics_reference import inertia_diag
from env_reference import fly


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} {label}: FAIL")
        raise
    print(f"criterion {num:2d} {label}: PASS")


# --- 1: icosphere counts ----------------------------------------------------


def test_criterion_01_icosphere_counts():
    with criterion(1, "icosphere subdivision counts"):
        m2 = generate_icosphere(2)
        assert (m2.num_faces, m2.num_vertices) == (320, 162)
        m3 = generate_icosphere(3)
        assert (m3.num_faces, m3.num_vertices) == (1280, 642)


# --- 2: ray casting against an analytic sphere ------------------------------


def test_criterion_02_raycast_matches_analytic_sphere():
    with criterion(2, "ray-cast oracle vs analytic sphere"):
        radius = 300.0
        mesh = generate_icosphere(4)
        mesh.vertices *= radius
        prep = PreparedMesh(mesh)

        # Worst-case radial gap between the faceted surface and the sphere:
        # the chord height of the deepest face plane.
        v = mesh.vertices[mesh.faces]
        n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        plane_dist = np.einsum("fk,fk->f", n, v[:, 0])
        h_max = radius - plane_dist.min()
        assert 0.0 < h_max < 2.0  # level 4 facets sit within 2 m of the sphere

        rng = np.random.default_rng(20260816)
        n_hit, n_miss = 280, 120  # per origin; 25 origins -> 10^4 rays
        t0 = time.time()
        for _ in range(25):
            o = rng.normal(size=3)
            o *= rng.uniform(400.0, 1500.0) / np.linalg.norm(o)

            # Aimed rays pass through a point within 0.8 R of the center, so
            # they hit both sphere and inscribed polyhedron away from the limb.
            u = rng.normal(size=(n_hit, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            targets = u * (0.8 * radius * rng.uniform(0.0, 1.0, n_hit) ** (1 / 3))[:, None]
            d_hit = targets - o
            d_hit /= np.linalg.norm(d_hit, axis=1, keepdims=True)

            # Away-pointing rays from an exterior origin cannot hit.
            d_miss = rng.normal(size=(n_miss, 3))
            d_miss /= np.linalg.norm(d_miss, axis=1, keepdims=True)
            flip = d_miss @ o < 0.0
            d_miss[flip] *= -1.0

            dirs = np.concatenate([d_hit, d_miss])
            ranges, hit = cast_rays(prep, o, dirs, max_range=2000.0)

            b_half = d_hit @ o
            disc = b_half**2 - (o @ o - radius * radius)
            assert np.all(disc > 0.0)
            t_sphere = -b_half - np.sqrt(disc)
            assert hit[:n_hit].all()
            diff = ranges[:n_hit] - t_sphere
            # Polyhedron is inscribed: mesh range is never shorter, and the
            # chord-height gap stretches by 1/cos(incidence) along the ray.
            cos_inc = np.sqrt(disc) / radius
            assert np.all(diff >= -1.0e-9)
            assert np.all(diff <= h_max / cos_inc + 1.0e-9)

            assert not hit[n_hit:].any()
            assert np.all(ranges[n_hit:] == 2000.0)  # misses exact
        assert time.time() - t0 < 10.0


# --- 3: free rigid-body conservation ----------------------------------------


def test_criterion_03_free_body_conservation():
    with criterion(3, "free-body invariants and quaternion drift"):
        model = synthesize_asteroid(3)
        table = default_thruster_table()
        state = SpacecraftState(
            position=np.array([8.0e4, 0.0, 0.0]),
            velocity=np.zeros(3),
            attitude=np.array([1.0, 0.0, 0.0, 0.0]),
            omega=np.array([0.009, -0.007, 0.004]),
            mass=480.0,
        )
        j = inertia_diag(state.mass)
        h0 = float(np.linalg.norm(j * state.omega))
        ke0 = 0.5 * float(state.omega @ (j * state.omega))
        coast = np.zeros(12)

        qn_prev = float(np.linalg.norm(state.attitude))
        for _ in range(300):  # 600 s at dt = 2 s
            state = rk4_step(state, coast, 2.0, model, table, renormalize=False)
            qn = float(np.linalg.norm(state.attitude))
            assert abs(qn - qn_prev) < 1.0e-12  # per-step norm drift
            qn_prev = qn

        assert abs(qn_prev - 1.0) < 1.0e-9  # cumulative drift over 600 s
        h = float(np.linalg.norm(j * state.omega))
        ke = 0.5 * float(state.omega @ (j * state.omega))
        assert abs(h - h0) <= 1.0e-9 * h0
        assert abs(ke - ke0) <= 1.0e-9 * ke0


# --- 4: rotating-frame force balance ----------------------------------------


def test_criterion_04_rotating_frame_fixed_point():
    with criterion(4, "gravity/centrifugal cancellation fixed point"):
        mesh = generate_icosphere(1)
        mesh.vertices *= 450.0
        mass = 1.0e12
        spin = 3.0e-4
        nutation = math.radians(60.0)
        _, sigma = ellipsoid_rotation_params(450.0, 450.0, 450.0)
        assert sigma == 0.0  # spherical body: no precession
        model = AsteroidModel(
            mesh=mesh, mass=mass, gm=GRAVITATIONAL_CONSTANT * mass,
            spin_rate=spin, nutation=nutation, phase=0.7,
            precession_rate=sigma * spin * math.cos(nutation), sigma=sigma,
            axes=np.array([450.0, 450.0, 450.0]), srp_accel=np.zeros(3),
        )
        w = asteroid_angular_velocity(model, 0.0)

        r0 = np.array([520.0, -310.0, 260.0])
        a_grav = -model.gm * r0 / np.linalg.norm(r0) ** 3
        a_cent = np.cross(np.cross(w, r0), w)
        hold = ExternalForces(accel=-(a_grav + a_cent))

        state = SpacecraftState(
            position=r0.copy(), velocity=np.zeros(3),
            attitude=np.array([1.0, 0.0, 0.0, 0.0]),
            omega=np.zeros(3), mass=500.0,
        )
        table = default_thruster_table()
        for _ in range(30):  # 60 s at dt = 2 s
            state = rk4_step(state, np.zeros(12), 2.0, model, table, ext=hold)
        assert float(np.linalg.norm(state.position - r0)) < 1.0e-9
        assert float(np.linalg.norm(state.velocity)) < 1.0e-9


# --- 5: propellant bookkeeping ----------------------------------------------


def test_criterion_05_fuel_bookkeeping():
    with criterion(5, "mass flow quadrature"):
        isp, g_ref = 225.0, 9.8
        model = synthesize_asteroid(5)
        table = default_thruster_table()

        # One thruster-second: 1 N for 1 s.
        single = np.zeros(12)
        single[0] = 1.0
        state = SpacecraftState(
            position=np.array([8.0e4, 0.0, 0.0]), velocity=np.zeros(3),
            attitude=np.array([1.0, 0.0, 0.0, 0.0]), omega=np.zeros(3),
            mass=500.0,
        )
        after = rk4_step(state, single, 1.0, model, table, isp=isp, g_ref=g_ref)
        burned = state.mass - after.mass
        assert abs(burned - 4.535e-4) < 5.0e-8  # kg per thruster-second
        # differencing the full wet mass floors the error at eps * m0
        assert abs(burned - 1.0 / (isp * g_ref)) <= 1.0e-12 * state.mass

        # Arbitrary on/off sequence over 120 control periods of 3 x 2 s. The
        # run is long enough that the decrement dominates the float noise of
        # carrying the full wet mass (about sqrt(steps) * eps * m0).
        rng = np.random.default_rng(5)
        actions = (rng.uniform(size=(120, 12)) < 0.7).astype(float)
        state = SpacecraftState(
            position=np.array([8.0e4, 0.0, 0.0]), velocity=np.zeros(3),
            attitude=np.array([1.0, 0.0, 0.0, 0.0]), omega=np.zeros(3),
            mass=480.0,
        )
        m0 = state.mass
        expected = 0.0
        for action in actions:
            _, _, thrust_sum = body_force_torque(action, table)
            expected += thrust_sum * 6.0 / (isp * g_ref)
            for _ in range(3):
                state = rk4_step(state, action, 2.0, model, table, isp=isp, g_ref=g_ref)
        assert expected > 2.0
        assert abs((m0 - state.mass) - expected) <= 1.0e-12 * expected


# --- 6: asteroid rotation state vs high-precision oracle ---------------------


def test_criterion_06_rotation_state_oracle():
    with criterion(6, "precessing spin vector vs 50-digit oracle"):
        mp = mpmath.mp
        old_dps = mp.dps
        mp.dps = 50
        try:
            mesh = generate_icosphere(0)
            rng = np.random.default_rng(6)
            for _ in range(100):
                a, b, c = rng.uniform(300.0, 600.0, size=3)
                w0 = rng.uniform(1.0e-6, 5.0e-4)
                theta = rng.uniform(math.radians(45.0), math.radians(90.0))
                phase = rng.uniform(0.0, 2.0 * math.pi)

                _, sigma = ellipsoid_rotation_params(a, b, c)
                model = AsteroidModel(
                    mesh=mesh, mass=1.0e11, gm=GRAVITATIONAL_CONSTANT * 1.0e11,
                    spin_rate=w0, nutation=theta, phase=phase,
                    precession_rate=sigma * w0 * math.cos(theta), sigma=sigma,
                    axes=np.array([a, b, c]), srp_accel=np.zeros(3),
                )
                for t in (0.0, 321.7, 600.0):
                    got = asteroid_angular_velocity(model, t)
                    ma, mb, mc = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
                    ratio = (mb * mb + mc * mc) / (ma * ma + mb * mb)
                    msigma = 1 / ratio - 1
                    arg = msigma * mpmath.mpf(w0) * mpmath.cos(theta) * t + mpmath.mpf(phase)
                    want = [
                        mpmath.mpf(w0) * mpmath.sin(theta) * mpmath.cos(arg),
                        mpmath.mpf(w0) * mpmath.sin(theta) * mpmath.sin(arg),
                        mpmath.mpf(w0) * mpmath.cos(theta),
                    ]
                    err = max(abs(got[k] - float(want[k])) for k in range(3))
                    assert err <= 1.0e-12 * w0

            # sigma = 0 (spherical): the spin vector is constant.
            _, sigma = ellipsoid_rotation_params(450.0, 450.0, 450.0)
            model = AsteroidModel(
                mesh=mesh, mass=1.0e11, gm=GRAVITATIONAL_CONSTANT * 1.0e11,
                spin_rate=2.0e-4, nutation=math.radians(70.0), phase=0.3,
                precession_rate=0.0, sigma=sigma,
                axes=np.array([450.0, 450.0, 450.0]), srp_accel=np.zeros(3),
            )
            w_ref = asteroid_angular_velocity(model, 0.0)
            for t in (17.0, 300.0, 6000.0):
                assert np.array_equal(asteroid_angular_velocity(model, t), w_ref)
        finally:
            mp.dps = old_dps


# --- 7: gradient checks ------------------------------------------------------

# Central differences carry round-off of order eps*|loss|/h, so comparisons
# use a small absolute floor on top of the stated relative tolerance.
FD_H = 1.0e-5
FD_ATOL = 5.0e-9


def fd_slot(loss_fn, arr, flat_idx, h=FD_H):
    # Perturb through a multi-index: reshape(-1) would silently copy a
    # non-C-contiguous array and the nudge would never reach the loss.
    idx = np.unravel_index(flat_idx, arr.shape)
    old = arr[idx]
    arr[idx] = old + h
    up = loss_fn()
    arr[idx] = old - h
    down = loss_fn()
    arr[idx] = old
    return (up - down) / (2.0 * h)


def check_fd(loss_fn, arr, grad, rng, rtol, samples=25):
    gflat = np.asarray(grad).reshape(-1)
    idxs = rng.choice(arr.size, size=min(samples, arr.size), replace=False)
    for i in idxs:
        want = fd_slot(loss_fn, arr, i)
        got = gflat[i]
        assert abs(got - want) <= FD_ATOL + rtol * max(abs(got), abs(want))


def test_criterion_07_gradient_checks():
    with criterion(7, "finite-difference gradient agreement"):
        rng = np.random.default_rng(7)

        # Dense layer, relative tolerance 1e-6.
        lin = nn.Linear(rng, 6, 5)
        x = rng.normal(size=(3, 6))
        w_out = rng.normal(size=(3, 5))

        def lin_loss():
            y, _ = lin.forward(x)
            return float(np.sum(y * w_out))

        y, cache = lin.forward(x)
        dx = lin.backward(w_out, cache)
        check_fd(lin_loss, lin.W, lin.gW, rng, 1.0e-6)
        check_fd(lin_loss, lin.b, lin.gb, rng, 1.0e-6)
        check_fd(lin_loss, x, dx, rng, 1.0e-6)

        # Convolution, relative tolerance 1e-6.
        conv = nn.Conv2D(rng, 2, 3, kernel=3, stride=2)
        xc = rng.normal(size=(2, 8, 8, 2))
        wc = rng.normal(size=(2, 3, 3, 3))

        def conv_loss():
            y, _ = conv.forward(xc)
            return float(np.sum(y * wc))

        y, cache = conv.forward(xc)
        dxc = conv.backward(wc, cache)
        check_fd(conv_loss, conv.W, conv.gW, rng, 1.0e-6)
        check_fd(conv_loss, conv.b, conv.gb, rng, 1.0e-6)
        check_fd(conv_loss, xc, dxc, rng, 1.0e-6)

        # Recurrent cell, relative tolerance 1e-4.
        gru = nn.GRUCell(rng, 5, 7)
        xg = rng.normal(size=(3, 5))
        hg = rng.normal(size=(3, 7)) * 0.5
        wg = rng.normal(size=(3, 7))

        def gru_loss():
            h_new, _ = gru.forward(xg, hg)
            return float(np.sum(h_new * wg))

        h_new, cache = gru.forward(xg, hg)
        dxg, dhg = gru.backward(wg, cache)
        for name in ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh"):
            check_fd(gru_loss, getattr(gru, name), getattr(gru, "g" + name), rng, 1.0e-4, samples=10)
        check_fd(gru_loss, xg, dxg, rng, 1.0e-4, samples=10)
        check_fd(gru_loss, hg, dhg, rng, 1.0e-4, samples=10)

        # On/off distribution log-probability, relative tolerance 1e-6.
        logits = rng.normal(size=(3, 12, 2))
        actions = (rng.uniform(size=(3, 12)) < 0.5).astype(np.int64)
        coeff = rng.normal(size=3)

        def logp_loss():
            return float(np.sum(coeff * nn.action_log_prob(logits, actions)))

        dlogits = nn.logp_grad_logits(logits, actions, coeff)
        check_fd(logp_loss, logits, dlogits, rng, 1.0e-6, samples=30)

        # Full recurrent policy and critic over a 5-step sequence, 1e-4.
        policy = nn.PolicyNetwork(seed=70)
        images = rng.normal(size=(5, 2, 8, 8, 2))
        vecs = rng.normal(size=(5, 2, 7))
        wp = rng.normal(size=(5, 2, 12, 2))

        def policy_loss():
            logits_seq, _ = policy.forward_sequence(images, vecs)
            return float(np.sum(logits_seq * wp))

        logits_seq, caches = policy.forward_sequence(images, vecs)
        policy.zero_grads()
        policy.backward_sequence(wp, caches)
        params = policy.parameters()
        grads = policy.gradients()
        sizes = {k: p.size for k, p in params.items()}
        names = list(params)
        total = sum(sizes.values())
        for flat_idx in rng.choice(total, size=40, replace=False):
            for k in names:
                if flat_idx < sizes[k]:
                    want = fd_slot(policy_loss, params[k], flat_idx)
                    got = grads[k].reshape(-1)[flat_idx]
                    assert abs(got - want) <= FD_ATOL + 1.0e-4 * max(abs(got), abs(want))
                    break
                flat_idx -= sizes[k]

        value_net = nn.ValueNetwork(seed=71)
        xv = rng.normal(size=(5, 2, 13))
        wv = rng.normal(size=(5, 2))

        def value_loss():
            values, _ = value_net.forward_sequence(xv)
            return float(np.sum(values * wv))

        values, caches = value_net.forward_sequence(xv)
        value_net.zero_grads()
        value_net.backward_sequence(wv, caches)
        params = value_net.parameters()
        grads = value_net.gradients()
        sizes = {k: p.size for k, p in params.items()}
        total = sum(sizes.values())
        for flat_idx in rng.choice(total, size=30, replace=False):
            for k in params:
                if flat_idx < sizes[k]:
                    want = fd_slot(value_loss, params[k], flat_idx)
                    got = grads[k].reshape(-1)[flat_idx]
                    assert abs(got - want) <= FD_ATOL + 1.0e-4 * max(abs(got), abs(want))
                    break
                flat_idx -= sizes[k]


# --- 8: update-rule identities ----------------------------------------------


def tiny_episode_config():
    return EpisodeConfig(
        duration=60.0,
        range_min=100.0, range_max=150.0,
        velocity_max=0.01, attitude_err_max_deg=2.0, omega_max=0.001,
        failure_prob=0.0,
        asteroid=AsteroidGenConfig(subdivision_level=1),
        dyn=AsteroidDynRanges(spin_max=1.0e-5, srp_max=0.0),
    )


def test_criterion_08_update_identities():
    with criterion(8, "surrogate-objective identities"):
        # Probability ratio is exactly 1 before the first gradient step.
        env = HoverEnv(tiny_episode_config())
        policy, value_net = ppo.build_networks(8)
        cfg = ppo.PPOConfig(episodes_per_batch=3, epochs=1, minibatch_episodes=3)
        batch = ppo.collect_rollouts(env, policy, cfg, seed=8, batch_index=0)
        logits, _ = policy.forward_sequence(batch.images, batch.vecs)
        logp_new = nn.action_log_prob(logits, batch.actions)
        ratio = np.exp(logp_new - batch.logp_old) * batch.mask
        assert float(np.max(np.abs(ratio[batch.mask > 0.0] - 1.0))) < 1.0e-10

        # Clipped surrogate lower-bounds the unclipped one samplewise.
        rng = np.random.default_rng(88)
        ratios = rng.uniform(0.0, 2.5, size=1000)
        advantages = rng.normal(size=1000)
        clipped = ppo.clipped_objective(ratios, advantages, 0.2)
        assert np.all(clipped <= ratios * advantages + 1.0e-15)

        # Undiscounted returns equal reversed prefix sums exactly.
        rewards = rng.normal(size=50)
        want = np.cumsum(rewards[::-1])[::-1]
        assert np.array_equal(ppo.discounted_returns(rewards, 1.0), want)

        # Critic regression drives a constant-return fit below 1e-6.
        value_net = nn.ValueNetwork(seed=80)
        opt = nn.Adam(value_net.parameters(), lr=1.0e-2)
        inputs = rng.normal(size=(6, 4, 13))
        returns = np.full((6, 4), 3.0)
        mask = np.ones((6, 4))
        loss = np.inf
        for _ in range(3000):
            loss, ok = ppo.value_minibatch_step(value_net, opt, inputs, returns, mask)
            assert ok
            if loss < 1.0e-6:
                break
        assert loss < 1.0e-6


# --- 9: episode protocol ------------------------------------------------------


def quiet_episode_config():
    """No drift, no rotation, negligible gravity: nothing ends the episode
    except the clock."""
    return EpisodeConfig(
        velocity_max=1.0e-3, attitude_err_max_deg=0.0, omega_max=0.0,
        failure_prob=0.0,
        asteroid=AsteroidGenConfig(
            perturbation_min=0.0, perturbation_max=0.0,
            axis_min=450.0, axis_max=450.0,
        ),
        dyn=AsteroidDynRanges(
            mass_min=1.0e8, mass_max=1.0e8, spin_min=0.0, spin_max=0.0,
            srp_max=0.0,
        ),
    )


def test_criterion_09_environment_protocol():
    with criterion(9, "episode protocol and reward decomposition"):
        cfg = quiet_episode_config()
        assert cfg.max_steps == 100      # 600 s at one action per 6 s
        assert cfg.substeps == 3         # 3 x 2 s integrator substeps
        env = HoverEnv(cfg)

        env.reset(seed=9)
        steps = 0
        done = False
        while not done:
            _, _, reward, done, info = fly(env, np.zeros(12))
            steps += 1
            assert reward == sum(info["reward_terms"].values())  # exact split
            assert steps <= 100
        assert steps == 100
        assert info["violation"] is None
        assert info["t"] == 600.0

        # Rotational-rate breach terminates immediately with the penalty.
        env.reset(seed=9)
        env.state.omega = np.array([0.11, 0.0, 0.0])  # above the 0.10 rad/s cap
        _, _, reward, done, info = fly(env, np.zeros(12))
        assert done and info["violation"] == "rotation"
        assert info["reward_terms"]["violation"] == -50.0
        assert reward == sum(info["reward_terms"].values())

        # Losing every beam return terminates with the same penalty.
        env.reset(seed=9)
        env.state.position = env.state.position + np.array([5000.0, 0.0, 0.0])
        _, _, reward, done, info = fly(env, np.zeros(12))
        assert done and info["violation"] == "all_miss"
        assert info["reward_terms"]["violation"] == -50.0

        # Terminal-quality classifier edges (2 m / 5 m, 10 cm/s, 15 mrad/s).
        assert good_hover(1.99, 0.0999, 0.0149) == (True, True)
        assert good_hover(2.01, 0.05, 0.010) == (False, True)
        assert good_hover(4.99, 0.05, 0.010) == (False, True)
        assert good_hover(5.01, 0.05, 0.010) == (False, False)
        assert good_hover(1.0, 0.101, 0.001) == (False, False)
        assert good_hover(1.0, 0.05, 0.0151) == (False, False)


# --- 10: reduced training progress -------------------------------------------

# Simplified curriculum: spherical non-precessing bodies, slow spin, nominal
# altitudes, 5-minute episodes. Everything is pinned so the run reproduces
# bit-identically.
TRAIN_SEED = 13
TRAIN_BATCHES = 35


def reduced_curriculum(out_dir, batches=TRAIN_BATCHES, seed=TRAIN_SEED):
    """Spherical non-precessing body, spin <= 1e-4 rad/s, altitude 100-200 m,
    300 s episodes. The remaining simplifications keep the dominant untrained
    drift observable and correctable at this episode budget: a fixed heavy
    body makes gravity sag the main error source (visible as a uniform range
    decrease), and a heavy spacecraft damps the position random walk that
    unbiased on/off firing would otherwise cause."""
    episode = EpisodeConfig(
        duration=300.0,
        range_min=100.0, range_max=200.0,
        velocity_max=0.003,
        attitude_err_max_deg=2.0,
        omega_max=0.001,
        failure_prob=0.0,
        wet_mass_min=3000.0, wet_mass_max=3000.0,
        asteroid=AsteroidGenConfig(
            perturbation_min=0.0, perturbation_max=0.0,
            axis_min=450.0, axis_max=450.0,
        ),
        dyn=AsteroidDynRanges(
            mass_min=1.5e12, mass_max=1.5e12,
            spin_min=0.0, spin_max=1.0e-4, srp_max=0.0,
        ),
    )
    return ppo.TrainConfig(
        episode=episode, ppo=ppo.PPOConfig(), seed=seed, batches=batches,
        out_dir=str(out_dir), checkpoint_every=1000,
    )


def read_metrics(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}
    return cols


def test_criterion_10_reduced_training_progress(tmp_path):
    with criterion(10, "reduced curriculum learns to hover"):
        cfg = reduced_curriculum(tmp_path / "train")
        assert cfg.batches <= 200 and cfg.ppo.episodes_per_batch == 30
        t0 = time.time()
        metrics_path = ppo.train(cfg)
        elapsed = time.time() - t0
        assert elapsed < 4.0 * 3600.0  # desktop-CPU budget

        cols = read_metrics(metrics_path)
        pos_err = cols["mean_term_pos_err"]
        reward = cols["mean_reward"]

        untrained = pos_err[0]
        final = pos_err[-10:].mean()
        assert final <= 0.5 * untrained  # at least 50% closer at episode end

        # The 20-batch moving average of batch-mean reward must never dip.
        ma = np.convolve(reward, np.full(20, 1.0 / 20.0), mode="valid")
        drops = np.diff(ma)
        assert np.min(drops, initial=0.0) >= -1.0e-9


# --- 11: determinism -----------------------------------------------------------


def test_criterion_11_bit_identical_reruns(tmp_path):
    with criterion(11, "seeded reruns are bit-identical"):
        # Shape synthesis.
        m1 = synthesize_asteroid(7)
        m2 = synthesize_asteroid(7)
        assert np.array_equal(m1.mesh.vertices, m2.mesh.vertices)
        assert np.array_equal(m1.mesh.faces, m2.mesh.faces)
        assert m1.mass == m2.mass and m1.spin_rate == m2.spin_rate

        # Training metrics.
        cfg_a = ppo.TrainConfig(
            episode=tiny_episode_config(),
            ppo=ppo.PPOConfig(episodes_per_batch=3, epochs=2, minibatch_episodes=2),
            seed=11, batches=2, out_dir=str(tmp_path / "a"),
        )
        cfg_b = ppo.TrainConfig(
            episode=tiny_episode_config(),
            ppo=ppo.PPOConfig(episodes_per_batch=3, epochs=2, minibatch_episodes=2),
            seed=11, batches=2, out_dir=str(tmp_path / "b"),
        )
        path_a = ppo.train(cfg_a)
        path_b = ppo.train(cfg_b)
        with open(path_a) as fa, open(path_b) as fb:
            assert fa.read() == fb.read()

        # Evaluation reports.
        policy, _ = ppo.build_networks(11)
        scenario = Scenario(
            name="tiny", overrides={
                "duration": 60.0, "range_min": 100.0, "range_max": 150.0,
                "velocity_max": 0.01, "attitude_err_max_deg": 2.0,
                "omega_max": 0.001, "failure_prob": 0.0,
                "asteroid.subdivision_level": 1,
                "dyn.spin_max": 1.0e-5, "dyn.srp_max": 0.0,
            },
        )
        r1 = run_monte_carlo(policy, scenario, 3, seed=11)
        r2 = run_monte_carlo(policy, scenario, 3, seed=11)
        assert summary_row(r1) == summary_row(r2)


# --- 12: checkpoint round-trip --------------------------------------------------


def test_criterion_12_checkpoint_roundtrip(tmp_path):
    with criterion(12, "checkpoint save/load preserves outputs bit-exactly"):
        policy, value_net = ppo.build_networks(12)
        rng = np.random.default_rng(12)
        images = rng.normal(size=(100, 8, 8, 2))
        vecs = rng.normal(size=(100, 7))
        xv = rng.normal(size=(100, 13))

        logits1, h1, _ = policy.step(images, vecs, policy.init_hidden(100))
        # one critic step from a zero hidden state; the cache holds its hiddens
        v1, (_, _, hv1, _, _) = value_net.forward_sequence(xv[None])

        path = str(tmp_path / "ck.npz")
        nn.save_checkpoint(path, policy, value_net)
        policy2 = nn.PolicyNetwork(seed=999)
        value2 = nn.ValueNetwork(seed=999)
        nn.load_checkpoint(path, policy2, value2)

        logits2, h2, _ = policy2.step(images, vecs, policy2.init_hidden(100))
        v2, (_, _, hv2, _, _) = value2.forward_sequence(xv[None])
        assert np.array_equal(logits1, logits2)
        assert np.array_equal(h1, h2)
        assert np.array_equal(v1, v2)
        assert np.array_equal(hv1, hv2)
