"""Six degree-of-freedom spacecraft dynamics in the asteroid rotating frame.

State is propagated directly in the asteroid body-fixed frame, which rotates
at the (generally precessing) asteroid angular velocity; the equations of
motion therefore carry Coriolis and centrifugal terms. Attitude quaternions
are scalar-first Hamilton quaternions mapping spacecraft body axes into the
asteroid frame: v_ast = R(q) v_body.

The spacecraft is a uniform-density cube of side 2 m with twelve fixed
on/off thrusters; mass decreases as propellant is burned and the inertia
tensor scales with the remaining mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SimulationError
from .geometry import AsteroidModel

CUBE_SIDE = 2.0        # spacecraft body edge length, m
ISP_DEFAULT = 225.0    # thruster specific impulse, s
G_REF = 9.8            # reference gravitational acceleration for Isp, m/s^2
NUM_THRUSTERS = 12     # on/off thrusters, fixed to the body (see default_thruster_table)


# --------------------------------------------------------------------------
# Quaternion algebra (scalar-first, Hamilton convention)

def _hamilton(
    w1: float, x1: float, y1: float, z1: float, w2: float, x2: float, y2: float, z2: float
) -> tuple[float, float, float, float]:
    """Hamilton product of two quaternions given as floats."""
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def quat_mul(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Hamilton product q * p of two float64 quaternions, taken on Python
    floats, which round as numpy's float64 scalars do: the bits of the
    array form in tests/dynamics_reference.py at a fraction of its cost."""
    return np.array(_hamilton(*q.tolist(), *p.tolist()))


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ConfigurationError("cannot normalize a zero quaternion")
    return q / n


def quat_canonicalize(q: np.ndarray) -> np.ndarray:
    """Flip sign so the scalar part is nonnegative (q and -q are one rotation)."""
    return -q if q[0] < 0.0 else q.copy()


def quat_to_dcm(q: np.ndarray) -> np.ndarray:
    """Rotation matrix R with v_out = R v_in for the rotation q encodes."""
    w, x, y, z = q
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def dcm_to_quat(R: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quat_to_dcm`, scalar part nonnegative."""
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax([R[0, 0], R[1, 1], R[2, 2]]))
        if i == 0:
            s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
            q = np.array(
                [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
            )
        elif i == 1:
            s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
            q = np.array(
                [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
            )
        else:
            s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
            q = np.array(
                [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
            )
    return quat_canonicalize(quat_normalize(q))


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ConfigurationError("rotation axis must be nonzero")
    half = 0.5 * angle
    q = np.empty(4)
    q[0] = math.cos(half)
    q[1:] = math.sin(half) * axis / n
    return q


def quat_error(q_current: np.ndarray, q_reference: np.ndarray) -> np.ndarray:
    """Rotation taking the reference attitude to the current one.

    Canonicalized so the scalar part is nonnegative; identity when the two
    attitudes coincide (up to sign). Taken on floats, as :func:`quat_mul`.
    """
    w, x, y, z = q_reference.tolist()
    dq = _hamilton(w, -x, -y, -z, *q_current.tolist())
    return np.array([-c for c in dq] if dq[0] < 0.0 else dq)


def quat_angle(q: np.ndarray) -> float:
    """Principal rotation angle of a unit quaternion, in [0, pi]."""
    return 2.0 * math.acos(min(1.0, abs(float(q[0]))))


# --------------------------------------------------------------------------
# Spacecraft mass properties and thrusters

@dataclass
class ThrusterTable:
    """Fixed thruster layout in the spacecraft body frame.

    `rows` holds each thruster's (position, direction) as Python floats,
    taken once at construction for :func:`body_force_torque`, so
    `positions` and `directions` are made read-only then: an edit would not
    reach `rows`. Only `health` changes afterwards (an actuator failure)."""

    positions: np.ndarray   # (12, 3) mount points, m
    directions: np.ndarray  # (12, 3) unit force directions
    max_thrust: np.ndarray  # (12,) N
    health: np.ndarray      # (12,) output scale, 1.0 when nominal

    def __post_init__(self) -> None:
        self.positions.flags.writeable = False
        self.directions.flags.writeable = False
        self.rows = list(zip(self.positions.tolist(), self.directions.tolist()))


def default_thruster_table() -> ThrusterTable:
    """Twelve 1 N thrusters, two per cube face pair, pushing along +-x/+-y/+-z.

    Pairs are offset from the face centers so that firing one thruster of a
    pair produces torque while firing both produces nearly pure force.
    """
    positions = np.array(
        [
            [-1.0, 0.0, 0.4],
            [-1.0, 0.0, -0.4],
            [1.0, 0.0, 0.4],
            [1.0, 0.0, -0.4],
            [-0.4, -1.0, 0.0],
            [0.4, -1.0, 0.0],
            [-0.4, 1.0, 0.0],
            [0.4, 1.0, 0.0],
            [0.0, -0.4, -1.0],
            [0.0, 0.4, -1.0],
            [0.0, -0.4, 1.0],
            [0.0, 0.4, 1.0],
        ]
    )
    directions = np.array(
        [
            [1.0, 0.0, 0.0],   # mounted on -x face, push +x
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],  # mounted on +x face, push -x
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    return ThrusterTable(
        positions=positions,
        directions=directions,
        max_thrust=np.ones(NUM_THRUSTERS),
        health=np.ones(NUM_THRUSTERS),
    )


def body_force_torque(
    action: np.ndarray,
    table: ThrusterTable,
    com_offset: np.ndarray | None = None,
) -> tuple[tuple[float, float, float], tuple[float, float, float], float]:
    """Net body-frame force and torque about the center of mass, three
    floats each, and the summed thrust magnitude (used for propellant flow).

    `action` holds 12 on/off commands; `com_offset` shifts the center of
    mass away from the geometric center. The sums run over the fired
    thrusters in table order from +0.0, on Python floats: a thruster at
    zero thrust adds only signed zeros, which cannot change a sum that
    starts from +0.0. tests/dynamics_reference.py holds the array form this
    equals bit for bit.
    """
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (NUM_THRUSTERS,):
        raise ConfigurationError(f"action must have shape ({NUM_THRUSTERS},), got {a.shape}")
    thrust = table.max_thrust * table.health * a  # (12,) N
    cx, cy, cz = (0.0, 0.0, 0.0) if com_offset is None else np.asarray(com_offset).tolist()
    fx = fy = fz = lx = ly = lz = 0.0
    for ((px, py, pz), (dx, dy, dz)), th in zip(table.rows, thrust.tolist()):
        if th == 0.0:
            continue
        gx, gy, gz = dx * th, dy * th, dz * th  # this thruster's force
        ax, ay, az = px - cx, py - cy, pz - cz  # its arm about the center of mass
        fx += gx
        fy += gy
        fz += gz
        lx += ay * gz - az * gy
        ly += az * gx - ax * gz
        lz += ax * gy - ay * gx
    # thrust.sum() stays numpy's pairwise sum, which a float loop would not reproduce.
    return (fx, fy, fz), (lx, ly, lz), float(thrust.sum())


# --------------------------------------------------------------------------
# Asteroid rotation state and external forces

def _spin(model: AsteroidModel, t: float) -> tuple[float, float, float]:
    """Asteroid angular velocity at time t, body frame, as three floats."""
    w0 = float(model.spin_rate)
    theta = model.nutation
    arg = model.precession_rate * t + model.phase
    s = math.sin(theta)
    return w0 * (s * math.cos(arg)), w0 * (s * math.sin(arg)), w0 * math.cos(theta)


def asteroid_angular_velocity(model: AsteroidModel, t: float) -> np.ndarray:
    """Asteroid angular velocity at time t, expressed in its own body frame.

    The magnitude and the angle to +z stay fixed while the transverse
    component precesses at the model's torque-free precession rate.
    """
    return np.array(_spin(model, t))


@dataclass
class ExternalForces:
    """Slowly varying disturbances, constant over an episode."""

    accel: np.ndarray = field(default_factory=lambda: np.zeros(3))   # m/s^2, asteroid frame
    torque: np.ndarray = field(default_factory=lambda: np.zeros(3))  # N m, spacecraft body frame


@dataclass
class SpacecraftState:
    position: np.ndarray   # (3,) m, asteroid frame
    velocity: np.ndarray   # (3,) m/s, asteroid frame
    attitude: np.ndarray   # (4,) unit quaternion, body -> asteroid frame
    omega: np.ndarray      # (3,) rad/s, body frame
    mass: float            # kg
    com_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))  # m, body frame
    t: float = 0.0         # s


def _norm3(v: np.ndarray, x: float, y: float, z: float) -> float:
    """Euclidean norm through BLAS ddot, as np.linalg.norm computes it (a
    float sum of squares rounds differently), taken in the scratch
    3-vector `v`."""
    v[0] = x
    v[1] = y
    v[2] = z
    return math.sqrt(v.dot(v))


def _norm4(v: np.ndarray, w: float, x: float, y: float, z: float) -> float:
    """:func:`_norm3` of four components, in the scratch 4-vector `v`. One
    function for both lengths, filling `v` by `v[:] = components`, makes
    `rk4_step` about 7% slower."""
    v[0] = w
    v[1] = x
    v[2] = y
    v[3] = z
    return math.sqrt(v.dot(v))


# The principal moment of the cube over its mass: J = (m / 12) * _CUBE_J.
_CUBE_J = CUBE_SIDE * CUBE_SIDE + CUBE_SIDE * CUBE_SIDE


def _derivative(y: list[float], spin: tuple[float, float, float], fixed: tuple) -> list[float]:
    """Time derivative of the packed state [r, v, q, omega, m], on floats,
    given the asteroid's angular velocity `spin` at the state's time (see
    :func:`_spin`) and what stays `fixed` over an :func:`rk4_step` call:
    the body force and torque (three floats each), the propellant flow,
    the gravitational parameter, the external acceleration and torque
    (three floats each), and the scratch 3- and 4-vectors the norms are
    taken in.

    Every component is the array form's expression written out, with its
    operations in the same order (np.cross(a, b)[0] is a1*b2 - a2*b1), so
    the result is bit-identical to it.
    """
    rx, ry, rz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, m = y
    fx, fy, fz, lx, ly, lz, mdot, gm, eax, eay, eaz, tqx, tqy, tqz, v3, v4 = fixed

    r_norm = _norm3(v3, rx, ry, rz)
    if r_norm < 1.0:
        raise SimulationError(f"position reached {r_norm:.3f} m from the body center")
    if m <= 0.0:
        raise SimulationError("spacecraft mass is not positive")

    sx, sy, sz = spin

    # Translation: thrust (rotated to the asteroid frame), disturbance,
    # point-mass gravity, Coriolis, centrifugal.
    q_norm = _norm4(v4, qw, qx, qy, qz)
    if q_norm == 0.0:  # numpy's 0/0: NaN (and its warning), not ZeroDivisionError
        a, b, c, d = (np.array([qw, qx, qy, qz]) / q_norm).tolist()
    else:
        a, b, c, d = qw / q_norm, qx / q_norm, qy / q_norm, qz / q_norm
    tx = 2.0 * (c * fz - d * fy)
    ty = 2.0 * (d * fx - b * fz)
    tz = 2.0 * (b * fy - c * fx)
    ux = fx + a * tx + (c * tz - d * ty)
    uy = fy + a * ty + (d * tx - b * tz)
    uz = fz + a * tz + (b * ty - c * tx)
    r3 = r_norm**3
    ex = sy * rz - sz * ry  # spin x r
    ey = sz * rx - sx * rz
    ez = sx * ry - sy * rx
    accel_x = ux / m + eax - gm * rx / r3 + 2.0 * (vy * sz - vz * sy) + (ey * sz - ez * sy)
    accel_y = uy / m + eay - gm * ry / r3 + 2.0 * (vz * sx - vx * sz) + (ez * sx - ex * sz)
    accel_z = uz / m + eaz - gm * rz / r3 + 2.0 * (vx * sy - vy * sx) + (ex * sy - ey * sx)

    # Attitude kinematics: qdot = 1/2 q * (0, w); the zero products stay
    # for their signed zeros.
    qdw = 0.5 * (qw * 0.0 - qx * wx - qy * wy - qz * wz)
    qdx = 0.5 * (qw * wx + qx * 0.0 + qy * wz - qz * wy)
    qdy = 0.5 * (qw * wy - qx * wz + qy * 0.0 + qz * wx)
    qdz = 0.5 * (qw * wz + qx * wy - qy * wx + qz * 0.0)

    # Rotation: the principal moment of a uniform cube shrinks with mass,
    # so Jdot = (J/m) mdot.
    j = (m / 12.0) * _CUBE_J
    jdot = j / m * mdot
    hx, hy, hz = j * wx, j * wy, j * wz
    wdx = (lx + tqx - (wy * hz - wz * hy) - jdot * wx) / j
    wdy = (ly + tqy - (wz * hx - wx * hz) - jdot * wy) / j
    wdz = (lz + tqz - (wx * hy - wy * hx) - jdot * wz) / j

    return [vx, vy, vz, accel_x, accel_y, accel_z, qdw, qdx, qdy, qdz, wdx, wdy, wdz, mdot]


def rk4_step(
    state: SpacecraftState,
    action: np.ndarray,
    dt: float,
    model: AsteroidModel,
    table: ThrusterTable,
    ext: ExternalForces | None = None,
    isp: float = ISP_DEFAULT,
    g_ref: float = G_REF,
    renormalize: bool = True,
    substeps: int = 1,
) -> SpacecraftState:
    """`substeps` classical Runge-Kutta steps of `dt` each, with the
    thruster command held fixed.

    The attitude quaternion is renormalized after every step unless
    `renormalize` is disabled (useful for measuring integrator drift).
    The stages run on Python floats in the array form's order (y + (h*k),
    then ((k1 + 2 k2) + 2 k3) + k4). The thruster force, torque and
    propellant flow are formed once, the asteroid's spin once per distinct
    stage time, the state stays in floats between steps, and an array is
    built only for the returned state, so the result equals `substeps`
    chained one-step calls bit for bit, and so does the error a step raises.
    """
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if substeps < 1:
        raise ConfigurationError(f"substeps must be at least 1, got {substeps}")
    ext = ext or ExternalForces()
    force, torque, thrust_sum = body_force_torque(action, table, state.com_offset)
    # Fixed over the call (see _derivative); the scratch vectors of the
    # norms are made per call, so that rk4_step is reentrant.
    v3, v4 = np.empty(3), np.empty(4)
    fixed = (*force, *torque, -thrust_sum / (isp * g_ref), model.gm, *ext.accel.tolist(),
             *ext.torque.tolist(), v3, v4)

    y = [*state.position.tolist(), *state.velocity.tolist(), *state.attitude.tolist(),
         *state.omega.tolist(), float(state.mass)]
    t = state.t
    h = 0.5 * dt
    c = dt / 6.0
    spin = _spin(model, t)
    for _ in range(substeps):
        k1 = _derivative(y, spin, fixed)
        spin = _spin(model, t + h)  # k2 and k3 share their stage time
        k2 = _derivative([a + h * b for a, b in zip(y, k1)], spin, fixed)
        k3 = _derivative([a + h * b for a, b in zip(y, k2)], spin, fixed)
        spin = _spin(model, t + dt)  # and k4's is the next step's k1's
        k4 = _derivative([a + dt * b for a, b in zip(y, k3)], spin, fixed)
        y = [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if renormalize:  # quat_normalize on floats
            n = _norm4(v4, *y[6:10])
            if n == 0.0:
                raise ConfigurationError("cannot normalize a zero quaternion")
            y[6:10] = [q / n for q in y[6:10]]
        t = t + dt

    y = np.array(y)
    return SpacecraftState(
        position=y[0:3],
        velocity=y[3:6],
        attitude=y[6:10],
        omega=y[10:13],
        mass=float(y[13]),
        com_offset=state.com_offset.copy(),
        t=t,
    )
