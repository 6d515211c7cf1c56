import copy
import math
import warnings

import numpy as np
import pytest

from asterhover import dynamics
from asterhover.dynamics import (
    CUBE_SIDE,
    G_REF,
    ISP_DEFAULT,
    ExternalForces,
    SpacecraftState,
    ThrusterTable,
    _derivative,
    _pack,
    _spin,
    asteroid_angular_velocity,
    body_force_torque,
    dcm_to_quat,
    default_thruster_table,
    quat_angle,
    quat_canonicalize,
    quat_conj,
    quat_error,
    quat_from_axis_angle,
    quat_mul,
    quat_normalize,
    quat_to_dcm,
    rk4_step,
)
from asterhover.errors import ConfigurationError, SimulationError

import dynamics_reference
from conftest import make_model
from dynamics_reference import (
    _derivative_reference,
    asteroid_angular_velocity_reference,
    body_force_torque_reference,
    inertia_diag,
    inertia_tensor,
    quat_rotate,
    rk4_step_reference,
    state_derivative,
)


def random_unit_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


# --------------------------------------------------------------------------
# Quaternions


def test_quat_mul_identity_and_inverse(rng):
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(20):
        q = random_unit_quat(rng)
        np.testing.assert_allclose(quat_mul(q, ident), q, atol=1e-15)
        np.testing.assert_allclose(quat_mul(ident, q), q, atol=1e-15)
        np.testing.assert_allclose(quat_mul(q, quat_conj(q)), ident, atol=1e-14)


def test_quat_mul_associative(rng):
    for _ in range(20):
        a, b, c = (random_unit_quat(rng) for _ in range(3))
        np.testing.assert_allclose(
            quat_mul(quat_mul(a, b), c), quat_mul(a, quat_mul(b, c)), atol=1e-14
        )


def test_quat_to_dcm_is_rotation(rng):
    for _ in range(20):
        q = random_unit_quat(rng)
        R = quat_to_dcm(q)
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-13)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        v = rng.standard_normal(3)
        np.testing.assert_allclose(R @ v, quat_rotate(q, v), atol=1e-12)


def test_quat_known_rotation():
    # 90 degrees about z sends x to y.
    q = quat_from_axis_angle([0.0, 0.0, 1.0], math.pi / 2.0)
    np.testing.assert_allclose(quat_rotate(q, np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0], atol=1e-15)
    assert quat_angle(q) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_dcm_quat_roundtrip(rng):
    for _ in range(50):
        q = quat_canonicalize(random_unit_quat(rng))
        q2 = dcm_to_quat(quat_to_dcm(q))
        np.testing.assert_allclose(q2, q, atol=1e-12)


def test_quat_error_properties(rng):
    q = random_unit_quat(rng)
    dq = quat_error(q, q)
    np.testing.assert_allclose(dq, [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    # A known relative rotation is recovered regardless of the base attitude.
    rot = quat_from_axis_angle([0.0, 1.0, 0.0], 0.3)
    dq = quat_error(quat_mul(q, rot), q)
    assert quat_angle(dq) == pytest.approx(0.3, rel=1e-10)
    assert dq[0] >= 0.0
    # Sign flip of either input does not change the canonical error.
    np.testing.assert_allclose(quat_error(-quat_mul(q, rot), q), dq, atol=1e-12)


def test_quat_kinematics_matrix_form(rng):
    # 0.5 * q x (0, w) must agree with the equivalent 4x4 matrix form.
    for _ in range(10):
        q = random_unit_quat(rng)
        w = rng.standard_normal(3) * 0.1
        qdot = 0.5 * quat_mul(q, np.array([0.0, *w]))
        qw, qx, qy, qz = q
        M = np.array(
            [
                [-qx, -qy, -qz],
                [qw, -qz, qy],
                [qz, qw, -qx],
                [-qy, qx, qw],
            ]
        )
        np.testing.assert_allclose(qdot, 0.5 * M @ w, atol=1e-14)


def test_quat_normalize_zero_raises():
    with pytest.raises(ConfigurationError):
        quat_normalize(np.zeros(4))


# --------------------------------------------------------------------------
# Mass properties and thrusters


def test_inertia_cube():
    np.testing.assert_allclose(inertia_diag(480.0), [320.0, 320.0, 320.0])
    np.testing.assert_allclose(inertia_tensor(480.0), 320.0 * np.eye(3))
    # Scales linearly with the remaining mass.
    np.testing.assert_allclose(inertia_diag(240.0), [160.0, 160.0, 160.0])
    assert CUBE_SIDE == 2.0


def test_thruster_table_layout():
    table = default_thruster_table()
    assert table.positions.shape == (12, 3)
    np.testing.assert_allclose(np.linalg.norm(table.directions, axis=1), 1.0)
    np.testing.assert_allclose(table.max_thrust, 1.0)
    np.testing.assert_allclose(table.health, 1.0)
    # Exhaust points outward: force direction opposes the mounting offset.
    assert np.all(np.einsum("ij,ij->i", table.directions, table.positions) < 0.0)
    # Two thrusters per push direction, covering all six axes.
    sums = {tuple(d): 0 for d in map(tuple, np.eye(3))}
    for d in table.directions:
        key = tuple(np.abs(d))
        sums[key] = sums.get(key, 0) + 1
    assert all(v == 4 for v in sums.values())


def test_body_force_torque_single_thruster():
    table = default_thruster_table()
    action = np.zeros(12)
    action[0] = 1.0
    force, torque, thrust = body_force_torque(action, table)
    np.testing.assert_allclose(force, [1.0, 0.0, 0.0])
    # r x F = (-1, 0, 0.4) x (1, 0, 0) = (0, 0.4, 0)
    np.testing.assert_allclose(torque, [0.0, 0.4, 0.0])
    assert thrust == 1.0


def test_body_force_torque_pairs_cancel_torque():
    table = default_thruster_table()
    action = np.zeros(12)
    action[0] = action[1] = 1.0
    force, torque, thrust = body_force_torque(action, table)
    np.testing.assert_allclose(force, [2.0, 0.0, 0.0])
    np.testing.assert_allclose(torque, 0.0, atol=1e-15)
    assert thrust == 2.0


def test_body_force_torque_all_on_cancels():
    table = default_thruster_table()
    force, torque, thrust = body_force_torque(np.ones(12), table)
    np.testing.assert_allclose(force, 0.0, atol=1e-15)
    np.testing.assert_allclose(torque, 0.0, atol=1e-15)
    assert thrust == 12.0


def test_body_force_torque_com_offset():
    table = default_thruster_table()
    action = np.zeros(12)
    action[0] = 1.0
    _, torque, _ = body_force_torque(action, table, com_offset=np.array([0.0, 0.1, 0.0]))
    # Arm becomes (-1, -0.1, 0.4): cross with (1,0,0) = (0, 0.4, 0.1).
    np.testing.assert_allclose(torque, [0.0, 0.4, 0.1])


def test_body_force_torque_health_scaling():
    table = default_thruster_table()
    table.health[0] = 0.9
    action = np.zeros(12)
    action[0] = 1.0
    force, _, thrust = body_force_torque(action, table)
    np.testing.assert_allclose(force, [0.9, 0.0, 0.0])
    assert thrust == pytest.approx(0.9)


def test_body_force_torque_rejects_bad_shape():
    with pytest.raises(ConfigurationError):
        body_force_torque(np.ones(11), default_thruster_table())


# --------------------------------------------------------------------------
# Asteroid rotation


def test_asteroid_angular_velocity_geometry():
    model = make_model(spin_rate=3.0e-4, nutation=math.radians(60.0), phase=0.7)
    for t in (0.0, 100.0, 5000.0, 1.0e5):
        w = asteroid_angular_velocity(model, t)
        assert np.linalg.norm(w) == pytest.approx(3.0e-4, rel=1e-12)
        assert w[2] == pytest.approx(3.0e-4 * math.cos(math.radians(60.0)), rel=1e-12)
        angle = math.acos(w[2] / np.linalg.norm(w))
        assert angle == pytest.approx(math.radians(60.0), rel=1e-12)


def test_asteroid_angular_velocity_phase_and_period():
    model = make_model(spin_rate=2.0e-4, nutation=math.radians(50.0), phase=1.1)
    w0 = asteroid_angular_velocity(model, 0.0)
    s = 2.0e-4 * math.sin(math.radians(50.0))
    np.testing.assert_allclose(w0[:2], [s * math.cos(1.1), s * math.sin(1.1)], rtol=1e-12)
    assert model.precession_rate != 0.0
    period = 2.0 * math.pi / model.precession_rate
    np.testing.assert_allclose(asteroid_angular_velocity(model, period), w0, atol=1e-15)


def test_asteroid_angular_velocity_no_nutation_is_constant():
    model = make_model(spin_rate=1.0e-4, nutation=0.0, phase=0.3)
    np.testing.assert_allclose(asteroid_angular_velocity(model, 0.0), [0.0, 0.0, 1.0e-4], atol=1e-20)
    np.testing.assert_allclose(asteroid_angular_velocity(model, 9999.0), [0.0, 0.0, 1.0e-4], atol=1e-20)


# --------------------------------------------------------------------------
# Integration


def coast_state(r, v, q=None, w=None, mass=480.0):
    return SpacecraftState(
        position=np.asarray(r, dtype=np.float64),
        velocity=np.asarray(v, dtype=np.float64),
        attitude=np.array([1.0, 0.0, 0.0, 0.0]) if q is None else np.asarray(q, dtype=np.float64),
        omega=np.zeros(3) if w is None else np.asarray(w, dtype=np.float64),
        mass=mass,
    )


def test_free_drift_is_linear():
    # No gravity, no spin, no thrust: straight-line coasting.
    model = make_model(mass=0.0, spin_rate=0.0)
    table = default_thruster_table()
    state = coast_state([400.0, 0.0, 0.0], [0.05, -0.02, 0.01])
    for _ in range(100):
        state = rk4_step(state, np.zeros(12), 2.0, model, table)
    np.testing.assert_allclose(state.position, [400.0 + 0.05 * 200, -0.02 * 200, 0.01 * 200], rtol=1e-12)
    np.testing.assert_allclose(state.velocity, [0.05, -0.02, 0.01], rtol=1e-12)
    np.testing.assert_allclose(state.attitude, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert state.mass == 480.0
    assert state.t == pytest.approx(200.0)


def test_orbit_energy_conservation():
    # Non-rotating asteroid: the body frame is inertial, so two-body specific
    # orbital energy is conserved along a coasting arc.
    model = make_model(mass=1.0e12, spin_rate=0.0)
    r0 = 500.0
    v0 = math.sqrt(model.gm / r0)
    state = coast_state([r0, 0.0, 0.0], [0.0, v0, 0.0])
    energy0 = 0.5 * v0 * v0 - model.gm / r0

    table = default_thruster_table()
    for _ in range(300):
        state = rk4_step(state, np.zeros(12), 2.0, model, table)
    r = np.linalg.norm(state.position)
    v = np.linalg.norm(state.velocity)
    energy = 0.5 * v * v - model.gm / r
    assert energy == pytest.approx(energy0, rel=1e-10)
    assert r == pytest.approx(r0, rel=1e-8)


def test_rotating_frame_equilibrium():
    # A point at rest in the rotating frame, where centrifugal acceleration
    # exactly balances gravity, must stay at rest: this pins the signs of the
    # Coriolis and centrifugal terms.
    model = make_model(mass=1.0e12, spin_rate=0.0, nutation=0.0)
    r0 = 450.0
    spin = math.sqrt(model.gm / r0**3)
    model.spin_rate = spin
    model.precession_rate = model.sigma * spin  # nutation 0
    state = coast_state([r0, 0.0, 0.0], [0.0, 0.0, 0.0])
    table = default_thruster_table()
    for _ in range(200):
        state = rk4_step(state, np.zeros(12), 2.0, model, table)
    np.testing.assert_allclose(state.position, [r0, 0.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(state.velocity, 0.0, atol=1e-9)


def test_coriolis_deflection_direction():
    # Moving radially outward in a frame spinning counterclockwise about +z
    # deflects the particle clockwise (toward -y). Spin is kept small so the
    # centrifugal contribution stays negligible over the window.
    model = make_model(mass=0.0, spin_rate=1.0e-4, nutation=0.0)
    state = coast_state([500.0, 0.0, 0.0], [0.1, 0.0, 0.0])
    table = default_thruster_table()
    for _ in range(5):
        state = rk4_step(state, np.zeros(12), 2.0, model, table)
    expected_vy = -2.0 * 1.0e-4 * 0.1 * 10.0
    assert state.velocity[1] == pytest.approx(expected_vy, rel=5e-3)


def test_attitude_closed_form():
    # Constant body rate with an isotropic inertia tensor: the quaternion
    # follows the exact axis-angle solution.
    model = make_model(mass=1.0, spin_rate=0.0)
    table = default_thruster_table()
    w = np.array([0.012, -0.009, 0.015])
    state = coast_state([1000.0, 0.0, 0.0], [0.0, 0.0, 0.0], w=w)
    q0 = state.attitude.copy()
    steps = 50
    dt = 2.0
    for _ in range(steps):
        state = rk4_step(state, np.zeros(12), dt, model, table)
    np.testing.assert_allclose(state.omega, w, rtol=1e-12)
    expected = quat_mul(q0, quat_from_axis_angle(w, float(np.linalg.norm(w)) * steps * dt))
    np.testing.assert_allclose(state.attitude, expected, atol=1e-7)


def test_quaternion_norm_drift_unrenormalized():
    # Classical RK4 without renormalization keeps |q| extremely close to 1
    # at hover-scale body rates.
    model = make_model(mass=1.0, spin_rate=0.0)
    table = default_thruster_table()
    w = np.array([0.02, 0.0, 0.0])
    state = coast_state([1000.0, 0.0, 0.0], [0.0, 0.0, 0.0], w=w)
    drift = []
    for _ in range(25):
        prev = np.linalg.norm(state.attitude)
        state = rk4_step(state, np.zeros(12), 2.0, model, table, renormalize=False)
        drift.append(abs(np.linalg.norm(state.attitude) - prev))
    assert max(drift) < 1.0e-12


def test_mass_depletion_exact():
    model = make_model(mass=1.0, spin_rate=0.0)
    table = default_thruster_table()
    action = np.zeros(12)
    action[[0, 1, 4, 5]] = 1.0  # four thrusters at 1 N
    state = coast_state([1000.0, 0.0, 0.0], [0.0, 0.0, 0.0], mass=480.0)
    steps = 30
    for _ in range(steps):
        state = rk4_step(state, action, 2.0, model, table)
    expected = 480.0 - steps * 2.0 * 4.0 / (ISP_DEFAULT * G_REF)
    assert state.mass == pytest.approx(expected, rel=1e-12)


def test_thrust_accelerates_in_rotated_body_frame():
    # With the body yawed 90 degrees about z, +x body thrust pushes along +y
    # of the asteroid frame.
    model = make_model(mass=1.0, spin_rate=0.0)
    table = default_thruster_table()
    q = quat_from_axis_angle([0.0, 0.0, 1.0], math.pi / 2.0)
    state = coast_state([1000.0, 0.0, 0.0], [0.0, 0.0, 0.0], q=q)
    action = np.zeros(12)
    action[0] = action[1] = 1.0  # 2 N along +x body
    state = rk4_step(state, action, 2.0, model, table)
    assert state.velocity[1] == pytest.approx(2.0 * 2.0 / 480.0, rel=1e-3)
    assert abs(state.velocity[0]) < 1e-6


def test_external_accel_and_torque():
    model = make_model(mass=1.0, spin_rate=0.0)
    table = default_thruster_table()
    ext = ExternalForces(accel=np.array([1.0e-5, 0.0, 0.0]), torque=np.array([0.0, 0.0, 3.2]))
    state = coast_state([1000.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    state = rk4_step(state, np.zeros(12), 2.0, model, table, ext=ext)
    assert state.velocity[0] == pytest.approx(2.0e-5, rel=1e-12)
    # wdot = torque / J = 3.2 / 320 = 0.01 rad/s^2 about z.
    assert state.omega[2] == pytest.approx(0.02, rel=1e-9)


def test_derivative_against_reference_integrator():
    # Full-up scenario (thrust, tumbling precessing asteroid, disturbance
    # accel) checked against an adaptive reference integration of the same
    # derivative parts.
    from scipy.integrate import solve_ivp

    model = make_model(
        mass=8.0e11,
        spin_rate=4.0e-4,
        nutation=math.radians(55.0),
        phase=0.9,
        srp=(5.0e-5, -3.0e-5, 2.0e-5),
    )
    table = default_thruster_table()
    action = np.zeros(12)
    action[[0, 6, 9]] = 1.0
    ext = ExternalForces(accel=model.srp_accel.copy())
    state = SpacecraftState(
        position=np.array([520.0, -80.0, 160.0]),
        velocity=np.array([0.04, 0.02, -0.05]),
        attitude=quat_normalize(np.array([0.9, 0.2, -0.3, 0.1])),
        omega=np.array([0.01, -0.02, 0.015]),
        mass=470.0,
        com_offset=np.array([0.05, -0.02, 0.0]),
    )

    def rhs(t, y):
        s = SpacecraftState(y[0:3], y[3:6], y[6:10], y[10:13], float(y[13]),
                            state.com_offset, t)
        return state_derivative(s, action, model, table, ext)

    y0 = np.concatenate([state.position, state.velocity, state.attitude, state.omega, [state.mass]])
    sol = solve_ivp(rhs, (0.0, 60.0), y0, rtol=1e-12, atol=1e-14, dense_output=False)
    ref = sol.y[:, -1]
    ref[6:10] /= np.linalg.norm(ref[6:10])

    # Fixed-step truncation at dt=2 with the body tumbling at ~0.027 rad/s
    # dominates these bounds; the error falls 16x per dt halving.
    s = copy.deepcopy(state)
    for _ in range(30):
        s = rk4_step(s, action, 2.0, model, table, ext=ext)
    np.testing.assert_allclose(s.position, ref[0:3], atol=1e-5)
    np.testing.assert_allclose(s.velocity, ref[3:6], atol=1e-6)
    np.testing.assert_allclose(s.attitude, ref[6:10], atol=1e-5)
    np.testing.assert_allclose(s.omega, ref[10:13], atol=1e-12)
    assert s.mass == pytest.approx(ref[13], rel=1e-12)


def test_impact_guard():
    model = make_model(mass=1.0e12)
    table = default_thruster_table()
    state = coast_state([0.5, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(SimulationError):
        rk4_step(state, np.zeros(12), 2.0, model, table)


def test_rk4_rejects_bad_dt():
    model = make_model()
    with pytest.raises(ConfigurationError):
        rk4_step(coast_state([500.0, 0.0, 0.0], [0.0, 0.0, 0.0]), np.zeros(12), 0.0, model, default_thruster_table())


# --------------------------------------------------------------------------
# Float kernels: bit-identical to the array forms in dynamics_reference


def assert_states_identical(a, b):
    for name in ("position", "velocity", "attitude", "omega", "com_offset"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert np.float64(a.mass).tobytes() == np.float64(b.mass).tobytes()
    assert a.t == b.t


KERNEL_CASES = {
    # name: (model kwargs, ext, com_offset, degraded, renormalize)
    "precessing": (dict(spin_rate=4.0e-4, nutation=math.radians(55.0), phase=0.9), False, "set", False, True),
    "disturbed": (dict(spin_rate=2.0e-4, nutation=0.3, srp=(5.0e-5, -3.0e-5, 2.0e-5)), True, "zero", False, True),
    "degraded": (dict(spin_rate=3.0e-4, nutation=1.1, phase=2.0), True, "set", True, True),
    "unrenormalized": (dict(spin_rate=1.0e-4, nutation=0.7), True, "set", True, False),
    "still": (dict(mass=0.0, spin_rate=0.0), False, "zero", False, True),
}


def kernel_case(case, rng):
    """(model, table, ext, state, renormalize) of one KERNEL_CASES entry."""
    model_kw, with_ext, com, degraded, renormalize = KERNEL_CASES[case]
    model = make_model(**model_kw)
    table = default_thruster_table()
    if degraded:
        table.health[3] = 0.37
        table.max_thrust[8] = 0.85
    ext = None
    if with_ext:
        ext = ExternalForces(accel=model.srp_accel + rng.standard_normal(3) * 1.0e-6,
                             torque=rng.standard_normal(3) * 1.0e-3)
    state = SpacecraftState(
        position=rng.standard_normal(3) * 300.0 + np.array([0.0, 0.0, 600.0]),
        velocity=rng.standard_normal(3) * 0.05,
        attitude=random_unit_quat(rng),
        omega=rng.standard_normal(3) * 0.01,
        mass=478.0,
        com_offset=rng.standard_normal(3) * 0.05 if com == "set" else np.zeros(3),
        t=rng.uniform(0.0, 500.0),
    )
    return model, table, ext, state, renormalize


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_rk4_step_matches_reference_bitwise(case, rng):
    model, table, ext, state, renormalize = kernel_case(case, rng)
    fast, slow = copy.deepcopy(state), copy.deepcopy(state)
    for _ in range(40):
        action = rng.integers(0, 2, 12).astype(np.float64)
        fast = rk4_step(fast, action, 2.0, model, table, ext, renormalize=renormalize)
        slow = rk4_step_reference(slow, action, 2.0, model, table, ext, renormalize=renormalize)
        assert_states_identical(fast, slow)
    for _ in range(5):
        action = rng.integers(0, 2, 12).astype(np.float64)
        y = _pack(fast)
        forces = ext or ExternalForces()
        got = _derivative(y.tolist(), _spin(model, fast.t), [0.1, -0.2, 0.3], [0.01, 0.0, -0.02],
                          -1.0e-4, model.gm, forces.accel.tolist(), forces.torque.tolist(),
                          np.empty(3), np.empty(4))
        want = _derivative_reference(y, fast.t, np.array([0.1, -0.2, 0.3]), np.array([0.01, 0.0, -0.02]),
                                     -1.0e-4, model, ext or ExternalForces())
        assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("substeps", [1, 3, 5])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_rk4_substeps_match_chained_reference_bitwise(case, substeps, rng):
    # One call flies `substeps` steps on one thruster command, as
    # HoverEnv.step does a control period.
    model, table, ext, state, renormalize = kernel_case(case, rng)
    fast, slow = copy.deepcopy(state), copy.deepcopy(state)
    for _ in range(8):
        action = rng.integers(0, 2, 12).astype(np.float64)
        fast = rk4_step(fast, action, 2.0, model, table, ext, renormalize=renormalize,
                        substeps=substeps)
        for _ in range(substeps):
            slow = rk4_step_reference(slow, action, 2.0, model, table, ext, renormalize=renormalize)
        assert_states_identical(fast, slow)


def count_calls(monkeypatch, module, name):
    """A list that grows by one at every call of `module.name`."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def raise_where(step, monkeypatch, module, name):
    """The error `step()` raises, as (type, message, derivatives taken),
    counting calls of `module.name`."""
    calls = count_calls(monkeypatch, module, name)
    with pytest.raises((SimulationError, ConfigurationError)) as err:
        step()
    return type(err.value), str(err.value), len(calls)


def test_rk4_substeps_raise_where_the_chained_reference_does(monkeypatch):
    model = make_model(mass=1.0e12)
    table = default_thruster_table()
    action = np.zeros(12)
    action[0] = 1.0
    states = {
        "fall": coast_state([14.0, 0.5, 0.0], [-1.2, 0.0, 0.0]),
        "zero-quaternion": coast_state([500.0, 20.0, 0.0], [0.01, 0.0, 0.0], q=np.zeros(4)),
    }
    errors = {}
    for name, state in states.items():
        def chained(state=state):
            for _ in range(5):
                state = rk4_step_reference(state, action, 2.0, model, table)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 0/0 of the zero quaternion
            errors[name] = raise_where(lambda: rk4_step(state, action, 2.0, model, table, substeps=5),
                                       monkeypatch, dynamics, "_derivative")
            assert errors[name] == raise_where(chained, monkeypatch, dynamics_reference,
                                               "_derivative_reference")
    # The fall crosses the 1 m guard mid-period, in the third step; the zero
    # quaternion fails to renormalize at the end of the first.
    kind, _, calls = errors["fall"]
    assert kind is SimulationError and 8 < calls <= 12
    assert errors["zero-quaternion"] == (ConfigurationError, "cannot normalize a zero quaternion", 4)


def test_rk4_rejects_zero_substeps():
    with pytest.raises(ConfigurationError):
        rk4_step(coast_state([500.0, 0.0, 0.0], [0.0, 0.0, 0.0]), np.zeros(12), 2.0, make_model(),
                 default_thruster_table(), substeps=0)


def test_asteroid_angular_velocity_matches_reference_bitwise(rng):
    for nutation in (0.0, math.radians(40.0), math.radians(95.0)):
        model = make_model(spin_rate=3.0e-4, nutation=nutation, phase=0.4)
        for t in [0.0, *rng.uniform(0.0, 1.0e5, size=20)]:
            want = asteroid_angular_velocity_reference(model, t).tobytes()
            assert asteroid_angular_velocity(model, t).tobytes() == want


@pytest.mark.parametrize("com", ["none", "zero", "negative-zero", "set"])
def test_body_force_torque_matches_reference_bitwise(com, rng):
    table = default_thruster_table()
    table.health[5] = 0.6
    com_offset = {
        "none": None,
        "zero": np.zeros(3),
        "negative-zero": np.array([-0.0, 0.0, -0.0]),
        "set": rng.standard_normal(3) * 0.05,
    }[com]
    actions = [np.zeros(12), np.ones(12)] + [rng.integers(0, 2, 12).astype(np.float64) for _ in range(30)]
    for action in actions:
        got = body_force_torque(action, table, com_offset)
        want = body_force_torque_reference(action, table, com_offset)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()
    # Sums start from +0.0: all thrusters off gives +0.0, never -0.0.
    force, torque, _ = body_force_torque(np.zeros(12), table, com_offset)
    assert force.tobytes() == torque.tobytes() == np.zeros(3).tobytes()


def assert_sums_match_reference(table):
    for bits in range(0, 4096, 91):
        action = np.array([(bits >> k) & 1 for k in range(12)], dtype=np.float64)
        for com_offset in (None, np.array([-0.0, -0.0, -0.0])):
            got = body_force_torque(action, table, com_offset)
            want = body_force_torque_reference(action, table, com_offset)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def test_body_force_torque_signed_zero_table():
    # Negative zeros in the table itself: every product and partial sum
    # keeps the reference's sign. A built table's layout is read-only (its
    # rows are taken at construction), so the table is built from edited
    # arrays.
    base = default_thruster_table()
    with pytest.raises(ValueError):
        base.positions[base.positions == 0.0] = -0.0
    with pytest.raises(ValueError):
        base.directions[0, 0] = 2.0
    base.health[3] = 0.5  # an actuator failure still edits the table in place
    positions, directions = base.positions.copy(), base.directions.copy()
    positions[positions == 0.0] = -0.0
    directions[directions == 0.0] = -0.0
    assert_sums_match_reference(
        ThrusterTable(positions, directions, base.max_thrust, base.health)
    )


def test_body_force_torque_signed_zero_rows():
    # body_force_torque sums the rows a table takes when it is built, so the
    # negative zeros go in at construction to reach them
    base = default_thruster_table()
    table = ThrusterTable(
        np.where(base.positions == 0.0, -0.0, base.positions),
        np.where(base.directions == 0.0, -0.0, base.directions),
        base.max_thrust, base.health,
    )
    assert math.copysign(1.0, table.rows[0][0][1]) == -1.0  # thruster 0's y arm
    assert_sums_match_reference(table)


@pytest.mark.parametrize(
    "position, mass",
    [([0.5, 0.0, 0.0], 480.0), ([500.0, 0.0, 0.0], 0.0), ([500.0, 0.0, 0.0], -3.0)],
    ids=["inside-1m", "zero-mass", "negative-mass"],
)
def test_guards_match_reference(position, mass):
    model = make_model(mass=1.0e12)
    table = default_thruster_table()
    state = coast_state(position, [0.0, 0.0, 0.0], mass=mass)
    with pytest.raises(SimulationError) as fast:
        rk4_step(state, np.zeros(12), 2.0, model, table)
    with pytest.raises(SimulationError) as slow:
        rk4_step_reference(state, np.zeros(12), 2.0, model, table)
    assert str(fast.value) == str(slow.value)


def test_zero_attitude_quaternion_matches_reference():
    # 0/0 in the thrust rotation gives NaN (with numpy's warning), not a
    # ZeroDivisionError; the zero quaternion then fails to renormalize.
    model = make_model(mass=1.0e12, spin_rate=2.0e-4, nutation=0.3)
    table = default_thruster_table()
    state = coast_state([500.0, 20.0, 0.0], [0.01, 0.0, 0.0], q=np.zeros(4))
    action = np.zeros(12)
    action[0] = 1.0
    for step in (rk4_step, rk4_step_reference):
        with pytest.warns(RuntimeWarning), pytest.raises(ConfigurationError, match="zero quaternion"):
            step(state, action, 2.0, model, table)
    with pytest.warns(RuntimeWarning):
        fast = rk4_step(state, action, 2.0, model, table, renormalize=False)
    with pytest.warns(RuntimeWarning):
        slow = rk4_step_reference(state, action, 2.0, model, table, renormalize=False)
    assert np.isnan(fast.velocity).all()
    assert_states_identical(fast, slow)
