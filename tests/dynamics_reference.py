"""Slow reference dynamics: the oracles the float kernels are pinned to.

`rk4_step_reference`, `_derivative_reference`,
`body_force_torque_reference`, `asteroid_angular_velocity_reference`,
`quat_mul_reference` and `quat_error_reference` are the array forms that
`asterhover.dynamics.rk4_step`, `_derivative`, `body_force_torque`,
`asteroid_angular_velocity`, `quat_mul` and `quat_error` ran before they
were rewritten on Python floats; the kernels must equal them bit for bit.
`state_derivative`, `inertia_diag`, `inertia_tensor`, `quat_rotate`,
`quat_conj` and `_pack` are test-only helpers that left the package with
them.
"""

from __future__ import annotations

import math

import numpy as np

from asterhover.dynamics import (
    G_REF,
    ISP_DEFAULT,
    ExternalForces,
    SpacecraftState,
    ThrusterTable,
    CUBE_SIDE,
    quat_canonicalize,
    quat_normalize,
)
from asterhover.errors import ConfigurationError, SimulationError
from asterhover.geometry import AsteroidModel


def quat_mul_reference(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Hamilton product q * p, on numpy scalars."""
    w1, x1, y1, z1 = q
    w2, x2, y2, z2 = p
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_error_reference(q_current: np.ndarray, q_reference: np.ndarray) -> np.ndarray:
    """Rotation taking the reference attitude to the current one, scalar
    part nonnegative."""
    return quat_canonicalize(quat_mul_reference(quat_conj(q_reference), q_current))


def _pack(state: SpacecraftState) -> np.ndarray:
    """The state as the (14,) array [r, v, q, omega, m]."""
    return np.concatenate(
        [state.position, state.velocity, state.attitude, state.omega, [state.mass]]
    )


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by quaternion q without forming the full matrix."""
    qv = q[1:]
    t = 2.0 * np.cross(qv, v)
    return v + q[0] * t + np.cross(qv, t)


def inertia_diag(mass: float) -> np.ndarray:
    """Principal moments of a uniform cube of side CUBE_SIDE about its center."""
    s2 = CUBE_SIDE * CUBE_SIDE
    return (mass / 12.0) * np.array([s2 + s2, s2 + s2, s2 + s2])


def inertia_tensor(mass: float) -> np.ndarray:
    return np.diag(inertia_diag(mass))


def asteroid_angular_velocity_reference(model: AsteroidModel, t: float) -> np.ndarray:
    """Asteroid angular velocity at time t, expressed in its own body frame.

    The magnitude and the angle to +z stay fixed while the transverse
    component precesses at the model's torque-free precession rate.
    """
    w0 = model.spin_rate
    theta = model.nutation
    arg = model.precession_rate * t + model.phase
    s = math.sin(theta)
    return w0 * np.array([s * math.cos(arg), s * math.sin(arg), math.cos(theta)])


def body_force_torque_reference(
    action: np.ndarray,
    table: ThrusterTable,
    com_offset: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Net body-frame force, torque about the center of mass, and the summed
    thrust magnitude (used for propellant flow).

    `action` holds 12 on/off commands; `com_offset` shifts the center of
    mass away from the geometric center.
    """
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (12,):
        raise ConfigurationError(f"action must have shape (12,), got {a.shape}")
    thrust = table.max_thrust * table.health * a  # (12,) N
    forces = table.directions * thrust[:, None]
    arms = table.positions - (0.0 if com_offset is None else np.asarray(com_offset))
    force = forces.sum(axis=0)
    torque = np.cross(arms, forces).sum(axis=0)
    return force, torque, float(thrust.sum())


def _derivative_reference(
    y: np.ndarray,
    t: float,
    f_body: np.ndarray,
    l_body: np.ndarray,
    mdot: float,
    model: AsteroidModel,
    ext: ExternalForces,
) -> np.ndarray:
    r = y[0:3]
    v = y[3:6]
    q = y[6:10]
    w = y[10:13]
    m = y[13]

    r_norm = float(np.linalg.norm(r))
    if r_norm < 1.0:
        raise SimulationError(f"position reached {r_norm:.3f} m from the body center")
    if m <= 0.0:
        raise SimulationError("spacecraft mass is not positive")

    w_ast = asteroid_angular_velocity_reference(model, t)

    # Translation: thrust (rotated to the asteroid frame), disturbance,
    # point-mass gravity, Coriolis, centrifugal.
    accel = (
        quat_rotate(q / np.linalg.norm(q), f_body) / m
        + ext.accel
        - model.gm * r / r_norm**3
        + 2.0 * np.cross(v, w_ast)
        + np.cross(np.cross(w_ast, r), w_ast)
    )

    # Attitude kinematics: qdot = 1/2 q * (0, w).
    qdot = 0.5 * quat_mul_reference(q, np.array([0.0, w[0], w[1], w[2]]))

    # Rotation: diagonal inertia shrinks with mass, so Jdot = (J/m) mdot.
    j = inertia_diag(m)
    jdot = j / m * mdot
    wdot = (l_body + ext.torque - np.cross(w, j * w) - jdot * w) / j

    out = np.empty(14)
    out[0:3] = v
    out[3:6] = accel
    out[6:10] = qdot
    out[10:13] = wdot
    out[13] = mdot
    return out


def state_derivative(
    state: SpacecraftState,
    action: np.ndarray,
    model: AsteroidModel,
    table: ThrusterTable,
    ext: ExternalForces | None = None,
    isp: float = ISP_DEFAULT,
    g_ref: float = G_REF,
) -> np.ndarray:
    """Time derivative of the packed state [r, v, q, omega, m]."""
    ext = ext or ExternalForces()
    f_body, l_body, thrust_sum = body_force_torque_reference(action, table, state.com_offset)
    mdot = -thrust_sum / (isp * g_ref)
    return _derivative_reference(_pack(state), state.t, f_body, l_body, mdot, model, ext)


def rk4_step_reference(
    state: SpacecraftState,
    action: np.ndarray,
    dt: float,
    model: AsteroidModel,
    table: ThrusterTable,
    ext: ExternalForces | None = None,
    isp: float = ISP_DEFAULT,
    g_ref: float = G_REF,
    renormalize: bool = True,
) -> SpacecraftState:
    """One classical Runge-Kutta step with the thruster command held fixed.

    The attitude quaternion is renormalized after the step unless
    `renormalize` is disabled (useful for measuring integrator drift).
    """
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    ext = ext or ExternalForces()
    f_body, l_body, thrust_sum = body_force_torque_reference(action, table, state.com_offset)
    mdot = -thrust_sum / (isp * g_ref)

    y = _pack(state)
    t = state.t
    k1 = _derivative_reference(y, t, f_body, l_body, mdot, model, ext)
    k2 = _derivative_reference(y + 0.5 * dt * k1, t + 0.5 * dt, f_body, l_body, mdot, model, ext)
    k3 = _derivative_reference(y + 0.5 * dt * k2, t + 0.5 * dt, f_body, l_body, mdot, model, ext)
    k4 = _derivative_reference(y + dt * k3, t + dt, f_body, l_body, mdot, model, ext)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    q = y[6:10]
    if renormalize:
        q = quat_normalize(q)
    return SpacecraftState(
        position=y[0:3],
        velocity=y[3:6],
        attitude=q,
        omega=y[10:13],
        mass=float(y[13]),
        com_offset=state.com_offset.copy(),
        t=t + dt,
    )
