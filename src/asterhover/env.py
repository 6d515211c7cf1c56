"""Hovering episodes: randomized scenario setup, network inputs, reward.

Each episode draws a fresh asteroid and initial condition, then runs a
fixed-duration station-keeping task in the asteroid body-fixed frame.
:meth:`HoverEnv.reset` and :meth:`HoverEnv.observe` return the inputs of
the two networks, already scaled, and :func:`rollout` flies a batch of
episodes in lockstep. The policy never sees ground truth: its
image stack holds differences of flash-LIDAR range images taken at the
frozen episode-start attitude, and its vector holds the attitude change and
measured body rates. The critic's vector holds the ground-truth position
error, velocity, attitude change and body rates.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .dynamics import (
    ExternalForces,
    SpacecraftState,
    dcm_to_quat,
    default_thruster_table,
    quat_error,
    quat_angle,
    quat_from_axis_angle,
    quat_mul,
    quat_to_dcm,
    rk4_step,
)
from .errors import ConfigurationError, SimulationError
from .geometry import (
    AsteroidDynRanges,
    AsteroidGenConfig,
    AsteroidModel,
    TriMesh,
    check_mesh_scale,
    draw_rotation_state,
    mesh_half_extents,
    parse_mesh,
    read_mesh_file,
    synthesize_asteroid,
)
from .lidar import (
    GRID_SIZE,
    LaneMeshes,
    LidarFrame,
    PreparedMesh,
    SensorConfig,
    apply_sensor_noise,
    rotated_beams,
    scan,
)

# Scales of the network inputs: position change (critic vector and policy
# image channel 0) and frame-to-frame range change (image channel 1), m.
R_ERR_SCALE = 100.0
DR_SCALE = 10.0

# The reward weights (see compute_reward) and the limits they reference.
ALPHA = -0.02       # weight on position error, 1/m
BETA = -0.01        # weight on attitude deviation angle, 1/rad
GAMMA_CTRL = -0.05  # weight on normalized control effort
ETA = 0.01          # constant per-step term
ZETA = 10.0         # terminal bonus
KAPPA = -50.0       # constraint-violation penalty
TERMINAL_POS_LIMIT = 2.0      # m
TERMINAL_SPEED_LIMIT = 0.10   # m/s
TERMINAL_OMEGA_LIMIT = 0.025  # rad/s, per component
ROT_LIMIT = 0.10              # rad/s per component, hard constraint

# The constraint violations HoverEnv.observe names, in the order it tests
# them: the first one breached is the episode's `violation`.
VIOLATION_KINDS = ("rotation", "all_miss", "fuel")

# The fixed parts of every scenario.
RK4_DT = 2.0            # s, integrator substep
DRY_MASS = 400.0        # propellant floor, kg
THETA_MAX_DEG = 90.0    # bound on the polar angle of the position direction
MAX_IC_RETRIES = 50     # initial-condition draws before reset gives up
COM_RANGE = 0.10        # centre-of-mass offset per component under com_variation, m
NOISE_BIAS_RANGE = 5.0  # per-episode range bias drawn from +-this under sensor_noise, m
NOISE_SIGMA = 2.0       # per-sample range noise under sensor_noise, m

# Control steps per episode (duration / control_period). The longest preset,
# duration-1200, flies 200; each step of one lane keeps its inputs, action
# and reward, 1388 bytes in training's collection buffers (ppo.STEP_FIELDS),
# so one lane holds at most 13.9 MB of them.
MAX_EPISODE_STEPS = 10_000


@dataclass
class EpisodeConfig:
    """Scenario definition; defaults give the nominal randomized task."""

    duration: float = 600.0       # s
    control_period: float = 6.0   # s, one policy action per period

    # Initial condition ranges.
    range_min: float = 100.0      # hover altitude above the surface, m
    range_max: float = 600.0
    velocity_max: float = 0.10    # per component, m/s
    attitude_err_max_deg: float = 11.0
    omega_max: float = 0.020      # per component, rad/s
    wet_mass_min: float = 450.0   # kg
    wet_mass_max: float = 500.0

    # Scenario switches.
    failure_prob: float = 0.5     # chance one thruster runs degraded
    failure_scale: float = 0.9    # output fraction of the degraded thruster
    com_variation: bool = False
    sensor_noise: bool = False
    mesh_file: str | None = None   # hover over a fixed shape model instead
    mesh_scale: float = 1.0

    asteroid: AsteroidGenConfig = field(default_factory=AsteroidGenConfig)
    dyn: AsteroidDynRanges = field(default_factory=AsteroidDynRanges)
    sensor: SensorConfig = field(default_factory=SensorConfig)

    def validate(self) -> None:
        if self.duration <= 0.0 or self.control_period <= 0.0:
            raise ConfigurationError("duration and control_period must be positive")
        sub = self.control_period / RK4_DT
        if abs(sub - round(sub)) > 1e-9 or round(sub) < 1:
            raise ConfigurationError(f"control_period must be an integer multiple of {RK4_DT} s")
        steps = self.duration / self.control_period
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ConfigurationError("duration must be an integer multiple of control_period")
        if round(steps) > MAX_EPISODE_STEPS:
            raise ConfigurationError(
                f"duration / control_period must be at most {MAX_EPISODE_STEPS} steps, "
                f"got {round(steps)}"
            )
        if not (0.0 < self.range_min <= self.range_max):
            raise ConfigurationError("range must satisfy 0 < min <= max")
        if self.range_max >= self.sensor.max_range:
            # reset redraws an altitude at or past the sensor's reach (no beam
            # can hit), so the top of such a range would never be flown and
            # a range wholly past the reach would exhaust its draws
            raise ConfigurationError(
                f"range_max ({self.range_max:g} m) must be below "
                f"sensor.max_range ({self.sensor.max_range:g} m)"
            )
        if self.velocity_max < 0.0 or self.omega_max < 0.0 or self.attitude_err_max_deg < 0.0:
            raise ConfigurationError("IC ranges must be >= 0")
        if not (DRY_MASS <= self.wet_mass_min <= self.wet_mass_max):
            raise ConfigurationError(f"need {DRY_MASS} kg dry mass <= wet_mass_min <= wet_mass_max")
        if not (0.0 <= self.failure_prob <= 1.0):
            raise ConfigurationError("failure_prob must lie in [0, 1]")
        if not (0.0 <= self.failure_scale <= 1.0):
            raise ConfigurationError("failure_scale must lie in [0, 1]")
        self.asteroid.validate()
        self.dyn.validate()
        self.sensor.validate()

    @property
    def substeps(self) -> int:
        return int(round(self.control_period / RK4_DT))

    @property
    def max_steps(self) -> int:
        return int(round(self.duration / self.control_period))


@dataclass
class Step:
    """One control step of one lane of :func:`rollout`: what the policy saw
    and chose, and what the environment returned."""

    state: SpacecraftState    # state the network inputs were taken in
    image: np.ndarray         # the network inputs (policy image and vector,
    vec: np.ndarray           # critic vector), as HoverEnv.reset and
    value_input: np.ndarray   # HoverEnv.observe return them
    logits: np.ndarray        # (12, 2)
    action: np.ndarray        # (12,) on/off bits sent to the environment
    logp: Any                 # the lane's row of what `select` returned beside the actions
    reward: float
    info: dict[str, Any]      # HoverEnv.observe diagnostics after the action


def rollout(
    env: HoverEnv,
    policy,
    env_seeds: Sequence,
    select: Callable[..., tuple[np.ndarray, Any]],
    lanes: Sequence[int] | None = None,
) -> Iterator[tuple[int, Step]]:
    """Fly one episode in each of L lanes, in lockstep, until all are done.

    Lane k of L = ``len(env_seeds)`` starts from ``reset(seed=env_seeds[k])``,
    the first flown lane on ``env`` and the others on environments spawned
    from it (see :meth:`HoverEnv.spawn`), so all share its config. Each
    control step runs one ``policy.step`` over all L lanes, hidden states
    carried from a zero start, and lets ``select(logits[lanes], lanes=lanes)``
    pick the actions of the live flown `lanes` (ascending), one row each,
    and whatever else it returns beside them (``None``, or one row per
    lane); a lane's action is drawn only while it flies. Every live lane's
    environment then flies its action, one
    :meth:`LaneMeshes.cast` renders the range images of all live lanes, and
    each live lane's :meth:`HoverEnv.observe` completes its step. Yields
    ``(k, Step)`` for the live lanes in lane order.

    A finished lane keeps feeding its last inputs, and its rows of the
    outputs are ignored, so every step of every lane runs at width L. A row
    of a network step depends on the width and the row's position, not on
    the other rows' contents, and a lane's cast never depends on the other
    lanes, so lane k's bytes do not depend on when the other lanes finish.
    For the same reason `lanes`, the ascending lanes to fly (default all),
    leaves them unchanged: the lanes not flown are never reset and feed
    zeros, and the policy step keeps width L. Training deals a batch's lanes
    among processes this way (:func:`asterhover.ppo.collect_rollouts`);
    evaluation and ``simulate`` fly one lane.

    An error leaving the rollout carries ``rollout_at = (t, phase, k)``:
    the policy steps taken (0 while resetting), the phase (0 reset, 1 policy
    step, 2 flight, 3 cast, 4 observe) and the lane (0 for the policy step
    and the cast, which span every lane). Tuples order as one rollout runs,
    so of the errors of rollouts that fly disjoint `lanes` of the same call,
    the least is the one a rollout of every lane would have raised first.
    """
    L = len(env_seeds)
    lanes = list(range(L)) if lanes is None else list(lanes)
    envs = [env] + [env.spawn() for _ in lanes[1:]]
    max_range = env.cfg.sensor.max_range
    at = (0, 0, 0)
    try:
        # Each flown lane's (image, vec, value_input), as reset and observe
        # return them.
        inputs = []
        for k, lane_env in zip(lanes, envs):
            at = (0, 0, k)
            inputs.append(lane_env.reset(seed=env_seeds[k]))
        meshes = LaneMeshes([e._prep for e in envs], np.stack([e._beams for e in envs]))
        image, vec, _ = inputs[0]
        images = np.zeros((L,) + image.shape, image.dtype)
        vecs = np.zeros((L,) + vec.shape, vec.dtype)
        for k, (image, vec, _) in zip(lanes, inputs):
            images[k], vecs[k] = image, vec
        hidden = policy.init_hidden(L)
        live = np.ones(len(lanes), dtype=bool)  # by position in `lanes`
        t = 0
        while live.any():
            t += 1
            at = (t, 1, 0)
            logits, hidden, _ = policy.step(images, vecs, hidden)
            flying = np.flatnonzero(live).tolist()
            drawn = [lanes[i] for i in flying]
            actions, logp = select(logits[drawn], lanes=drawn)
            states = [envs[i].state for i in flying]
            for row, i in enumerate(flying):
                at = (t, 2, lanes[i])
                envs[i].step(actions[row])
            at = (t, 3, 0)
            origins = np.array([e.state.position for e in envs])
            ranges, hit = meshes.cast(origins, live, max_range)
            ranges = ranges.reshape(-1, GRID_SIZE, GRID_SIZE)
            hit = hit.reshape(-1, GRID_SIZE, GRID_SIZE)
            for row, (i, state) in enumerate(zip(flying, states)):
                k = lanes[i]
                at = (t, 4, k)
                *next_inputs, reward, done, info = envs[i].observe(LidarFrame(ranges[i], hit[i]))
                yield k, Step(
                    state, *inputs[i], logits[k], actions[row],
                    None if logp is None else logp[row], reward, info,
                )
                inputs[i] = next_inputs
                images[k], vecs[k], _ = next_inputs
                live[i] = not done
    except Exception as exc:
        exc.rollout_at = at
        raise


def compute_reward(
    pos_err: float,
    dq: np.ndarray,
    action: np.ndarray,
    terminal_ok: bool,
    violated: bool,
) -> tuple[float, dict[str, float]]:
    """Per-step reward and its exact decomposition.

    r = ALPHA*pos_err + BETA*angle(dq) + GAMMA_CTRL*(sum of bits)/12 + ETA
        + ZETA*[terminal limits met at the final step] + KAPPA*[violation]
    """
    effort = float(action.sum()) / action.shape[0]
    terms = {
        "position": ALPHA * pos_err,
        "attitude": BETA * quat_angle(dq),
        "control": GAMMA_CTRL * effort,
        "step": ETA,
        "terminal_bonus": ZETA if terminal_ok else 0.0,
        "violation": KAPPA if violated else 0.0,
    }
    return float(sum(terms.values())), terms


def good_hover(pos_err: float, speed: float, max_omega: float) -> tuple[bool, bool]:
    """Terminal-quality classification used by evaluation.

    Tier 1 requires terminal position error < 2 m; tier 2 relaxes it to
    < 5 m. Both require speed below 0.10 m/s and every rotational velocity
    component below 0.015 rad/s.
    """
    rates_ok = speed < 0.10 and max_omega < 0.015
    return (pos_err < 2.0 and rates_ok, pos_err < 5.0 and rates_ok)


def _orthonormal_basis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors orthogonal to u (u must be unit)."""
    a = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, a)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(u, e1)


def _los_attitude(u: np.ndarray, roll: float) -> np.ndarray:
    """Quaternion putting the -z body axis on the line of sight (-u), with
    the given roll about the boresight."""
    e1, e2 = _orthonormal_basis(u)
    x_b = math.cos(roll) * e1 + math.sin(roll) * e2
    z_b = u  # -z body points at the asteroid, so +z points along +u
    y_b = np.cross(z_b, x_b)
    return dcm_to_quat(np.column_stack([x_b, y_b, z_b]))


def surface_radius(prep: PreparedMesh, u: np.ndarray) -> float | None:
    """Distance from the origin to the surface along unit direction u.

    Casts inward from well outside the body so the front (outward) faces
    are the ones intersected. None when the direction misses the mesh.
    """
    # cast_rays is looked up at call time: perfbench's tracer wraps
    # lidar.cast_rays, and a module-level import would bypass the wrapper.
    from .lidar import cast_rays

    cast_from = 2.0 * prep.bound_radius + 100.0
    origin = cast_from * u
    ranges, hit = cast_rays(prep, origin, -u[None, :], max_range=2.0 * cast_from)
    if not hit[0]:
        return None
    return cast_from - float(ranges[0])


def sample_initial_conditions(
    rng: np.random.Generator,
    cfg: EpisodeConfig,
    prep: PreparedMesh,
) -> SpacecraftState | None:
    """One draw of the randomized initial state over the given body.

    Draw order is fixed: direction (theta, phi), hover range, velocity,
    boresight roll, attitude-error axis and magnitude, body rates, wet
    mass, COM offset. Returns None when the position direction misses the
    mesh (caller retries).
    """
    theta = math.radians(rng.uniform(0.0, THETA_MAX_DEG))
    phi = rng.uniform(-math.pi, math.pi)
    u = np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )
    hover = rng.uniform(cfg.range_min, cfg.range_max)
    velocity = rng.uniform(-cfg.velocity_max, cfg.velocity_max, size=3)
    roll = rng.uniform(0.0, 2.0 * math.pi)
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.standard_normal(3)
    err_angle = math.radians(rng.uniform(0.0, cfg.attitude_err_max_deg))
    omega = rng.uniform(-cfg.omega_max, cfg.omega_max, size=3)
    wet_mass = rng.uniform(cfg.wet_mass_min, cfg.wet_mass_max)
    com = (
        rng.uniform(-COM_RANGE, COM_RANGE, size=3)
        if cfg.com_variation
        else np.zeros(3)
    )

    r_surf = surface_radius(prep, u)
    if r_surf is None or r_surf <= 0.0:
        return None

    attitude = quat_mul(_los_attitude(u, roll), quat_from_axis_angle(axis, err_angle))
    return SpacecraftState(
        position=(r_surf + hover) * u,
        velocity=velocity,
        attitude=attitude,
        omega=omega,
        mass=wet_mass,
        com_offset=com,
        t=0.0,
    )


# The last file-backed body load_mesh built: (the length and hash() of the
# file's bytes, its unscaled mesh, the scale, the scaled mesh, its half
# extents, its PreparedMesh), or None. One body at most, as HoverEnv's
# callers fly one shape model at a time. Python hashes bytes with SipHash
# under a per-process random key, so a changed file of the same length
# passes for the cached one with odds of 2**-64. A sha256 would load
# OpenSSL's libcrypto into every run with a mesh file (about 2 MB of peak
# memory and 4 ms on 2 vCPUs), and keeping the bytes to compare would hold
# the file's size.
_shape_model: (
    tuple[tuple[int, int], TriMesh, float, TriMesh, np.ndarray, PreparedMesh] | None
) = None


def load_mesh(path: str, scale: float) -> tuple[TriMesh, np.ndarray, PreparedMesh]:
    """The body in the mesh file at `path`, its vertices multiplied by
    `scale`: its mesh, half extents (:func:`mesh_half_extents`) and
    :class:`PreparedMesh`, shared between environments and read-only.

    The file is read on every call, so a missing, changed or malformed file
    fails or loads as :func:`asterhover.geometry.load_mesh` would; its bytes
    are parsed only when they differ from the cached body's, and the mesh
    scaled and prepared only when they or `scale` do. A file that cannot be
    read or parsed leaves the cached body as it was. (perfbench's tracer
    times this function under ``geometry.load_mesh``.)
    """
    global _shape_model
    check_mesh_scale(scale)
    data = read_mesh_file(path)
    key = (len(data), hash(data))
    if _shape_model is not None and _shape_model[0] == key:
        base = _shape_model[1]  # a new scale of the cached file keeps its parse
        if _shape_model[2] == scale:
            return _shape_model[3:]
    else:
        base = parse_mesh(data, path)
        base.vertices.flags.writeable = base.faces.flags.writeable = False
    # the file's bytes and the old body go before the new one is prepared
    del data
    _shape_model = None
    mesh = base if scale == 1.0 else TriMesh(base.vertices * scale, base.faces)
    mesh.vertices.flags.writeable = False
    extents = mesh_half_extents(mesh)
    extents.flags.writeable = False
    _shape_model = (key, base, scale, mesh, extents, PreparedMesh(mesh))
    return _shape_model[3:]


class HoverEnv:
    """One hovering episode at a time; see module docstring.

    A control step is two calls: :meth:`step` flies the action and
    :meth:`observe` completes the step from the range image taken at the
    new position, so that :func:`rollout` can render the images of many
    environments in one cast. Not shared between processes or lanes: each
    owns its own instance, and all randomness flows from the generator
    created in :meth:`reset`.
    """

    def __init__(self, cfg: EpisodeConfig | None = None):
        self.cfg = cfg or EpisodeConfig()
        self.cfg.validate()
        self._loaded_mesh: TriMesh | None = None
        if self.cfg.mesh_file is not None:
            self._loaded_mesh, self._loaded_extents, self._prep = load_mesh(
                self.cfg.mesh_file, self.cfg.mesh_scale
            )
        self.model: AsteroidModel | None = None
        self.state: SpacecraftState | None = None
        self.done = True
        self.steps = 0

    def spawn(self) -> HoverEnv:
        """A further environment on this one's config and loaded shape
        model (shared, read-only), ready for :meth:`reset`."""
        twin = copy.copy(self)
        twin.state, twin.done, twin.steps = None, True, 0
        return twin

    def reset(self, seed: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Start an episode; returns the first network inputs (see
        :meth:`_inputs`): zero images and zero position error."""
        cfg = self.cfg
        self.rng = np.random.default_rng(seed)

        if self._loaded_mesh is not None:
            self.model = draw_rotation_state(
                self.rng, cfg.dyn, self._loaded_mesh, self._loaded_extents
            )
        else:
            self.model = synthesize_asteroid(self.rng, cfg.asteroid, cfg.dyn)
            self._prep = PreparedMesh(self.model.mesh)
        self._ext = ExternalForces(accel=self.model.srp_accel.copy())

        self.table = default_thruster_table()
        if self.rng.uniform() < cfg.failure_prob:
            self.table.health[int(self.rng.integers(12))] = cfg.failure_scale

        self._noise_bias = (
            self.rng.uniform(-NOISE_BIAS_RANGE, NOISE_BIAS_RANGE)
            if cfg.sensor_noise
            else 0.0
        )

        # Initial conditions must leave the sensor with at least one valid
        # return; resample otherwise (bounded).
        for _ in range(MAX_IC_RETRIES):
            state = sample_initial_conditions(self.rng, cfg, self._prep)
            if state is None:
                continue
            # Every scan of the episode is taken at this attitude (see
            # scan), so the beam grid is rotated once here.
            self.state = state
            self._beams = rotated_beams(cfg.sensor, quat_to_dcm(state.attitude))
            frame0 = self._noisy(self.scan())
            if frame0.hit.any():
                break
        else:
            raise SimulationError(
                f"no viable initial condition in {MAX_IC_RETRIES} draws"
            )

        self.q0 = state.attitude.copy()
        self.r0 = state.position.copy()
        self.frame0 = frame0
        self.prev_frame = frame0
        self.steps = 0
        self.done = False
        self.fuel_used = 0.0
        return self._inputs(frame0, state.position - self.r0, quat_error(state.attitude, self.q0))

    def scan(self) -> LidarFrame:
        """The noise-free range image from the current position.

        Scans are taken at the frozen initiation attitude: the sensor
        platform counter-rotates the body motion, so images differ only
        through translation (and asteroid rotation under the spacecraft).
        """
        return scan(self._prep, self.state.position, self._beams, self.cfg.sensor)

    def _noisy(self, frame: LidarFrame) -> LidarFrame:
        if not self.cfg.sensor_noise:
            return frame
        return apply_sensor_noise(
            frame, self._noise_bias, NOISE_SIGMA, self.rng, self.cfg.sensor.max_range
        )

    def step(self, action: np.ndarray) -> None:
        """Fly one control period with the 12 on/off thruster bits: one
        :func:`rk4_step` call of `substeps` RK4_DT steps.

        The step is complete once :meth:`observe` has the range image from
        the new position: :meth:`scan` for a lone environment, the lanes'
        shared cast in :func:`rollout`.
        """
        if self.done:
            raise SimulationError("step() called on a finished episode; reset() first")
        a = np.asarray(action, dtype=np.float64).reshape(-1)
        if a.shape != (12,) or not {0.0, 1.0}.issuperset(a.tolist()):
            raise ConfigurationError("action must be 12 on/off values")

        mass_before = self.state.mass
        self.state = rk4_step(
            self.state, a, RK4_DT, self.model, self.table, ext=self._ext, substeps=self.cfg.substeps
        )
        self.fuel_used += mass_before - self.state.mass
        self.steps += 1
        self._action = a

    def _inputs(
        self, frame: LidarFrame, r_err: np.ndarray, dq: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The network inputs at the current state, given its range image,
        position change `r_err` and attitude change `dq` since initiation.

        Returns the policy image and vector and the critic vector, in the
        shapes :class:`~asterhover.nn.PolicyNetwork` and
        :class:`~asterhover.nn.ValueNetwork` take. Image channel 0 is the
        range image minus the initiation image over R_ERR_SCALE, channel 1
        the range image minus the previous one over DR_SCALE; a beam that
        stops returning jumps by (max_range - previous reading) rather than
        being masked. The policy vector is dq (scalar part >= 0) and the
        body rates; the critic vector is r_err over R_ERR_SCALE, velocity,
        dq and the body rates.
        """
        state = self.state
        ranges = frame.ranges
        image = np.empty(ranges.shape + (2,))
        np.divide(ranges - self.frame0.ranges, R_ERR_SCALE, out=image[..., 0])
        np.divide(ranges - self.prev_frame.ranges, DR_SCALE, out=image[..., 1])
        vec = np.concatenate([dq, state.omega])
        value_input = np.concatenate([r_err / R_ERR_SCALE, state.velocity, dq, state.omega])
        return image, vec, value_input

    def observe(
        self, frame: LidarFrame
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, bool, dict[str, Any]]:
        """Complete the step :meth:`step` flew, given the noise-free range
        image from the new position; returns (policy image, policy vector,
        critic input, reward, done, info)."""
        cfg = self.cfg
        state = self.state
        frame = self._noisy(frame)

        r_err = state.position - self.r0
        dq = quat_error(state.attitude, self.q0)
        # The norms through BLAS ddot, as np.linalg.norm takes them, and the
        # rate tests on Python floats, which compare as the arrays' elements do.
        pos_err = math.sqrt(r_err.dot(r_err))
        speed = math.sqrt(state.velocity.dot(state.velocity))
        wx, wy, wz = state.omega.tolist()
        ax, ay, az = abs(wx), abs(wy), abs(wz)

        rot_breach = ax > ROT_LIMIT or ay > ROT_LIMIT or az > ROT_LIMIT
        all_miss = not np.count_nonzero(frame.hit)
        fuel_out = state.mass <= DRY_MASS
        violated = rot_breach or all_miss or fuel_out

        time_done = self.steps >= cfg.max_steps
        terminal_ok = (
            time_done
            and pos_err <= TERMINAL_POS_LIMIT
            and speed <= TERMINAL_SPEED_LIMIT
            and ax <= TERMINAL_OMEGA_LIMIT
            and ay <= TERMINAL_OMEGA_LIMIT
            and az <= TERMINAL_OMEGA_LIMIT
        )
        # NaN when any rate is NaN, as np.max gives and max() need not
        max_omega = math.nan if math.isnan(ax + ay + az) else max(ax, ay, az)

        reward, terms = compute_reward(pos_err, dq, self._action, terminal_ok, violated)
        self.done = time_done or violated

        inputs = self._inputs(frame, r_err, dq)
        self.prev_frame = frame

        violation = None
        if rot_breach:
            violation = "rotation"
        elif all_miss:
            violation = "all_miss"
        elif fuel_out:
            violation = "fuel"

        info = {
            "step": self.steps,
            "t": self.steps * cfg.control_period,
            "pos_err": pos_err,
            "speed": speed,
            "max_omega": max_omega,
            "fuel_used": self.fuel_used,
            "violation": violation,
            "terminal_ok": terminal_ok,
            "reward_terms": terms,
        }
        return *inputs, reward, self.done, info
