"""Flash-LIDAR range imaging against triangle meshes.

A square detector grid shares one illumination pulse; each pixel is modeled
as a ray from the sensor origin through the center of its angular cell. The
boresight is the -z axis of the platform frame, and a scan is always taken
at the attitude the platform held when the scan sequence was started, i.e.
the image does not rotate with the spacecraft body between scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .geometry import TriMesh

# Determinant cutoff below which a ray is treated as parallel to the
# triangle plane, and minimum accepted hit distance (meters).
DET_EPS = 1.0e-12
T_MIN = 1.0e-12

# Margins of the candidate pre-pass (LaneCast._build_pairs). The
# kernel's det, barycentric and t numerators are triple products of edge and
# origin-to-vertex vectors, and rounding moves them by about 1e-15 of
# |tvec|*|e1|*|e2|. A facet is culled only when the origin lies behind its
# plane by more than PLANE_TOL * (distance + facet radius), or when its
# bounding sphere lies more than CONE_TOL radians outside the cone of the
# rays. For a facet whose angles exceed 1e-3 rad, seen from where it
# subtends more than 1e-3 rad and from more than 1e-3 rad off edge-on, the
# culled side of those margins moves the kernel's sign tests by at least a
# thousand times their rounding. Closer to them lie only slivers and
# facets seen edge-on, where those sign tests are rounding noise anyway.
PLANE_TOL = 1.0e-6
CONE_TOL = 1.0e-6  # rad

# Radius of a lane's candidate ball (LaneCast._build_pairs), as a fraction
# of the gap between its centre and the nearest facet bounding sphere.
BALL_FRACTION = 0.1

# Pixels per side of the square detector: the policy network is built for
# this image size, so it is fixed rather than configured.
GRID_SIZE = 8


@dataclass(frozen=True)
class SensorConfig:
    """Detector geometry; the defaults are the paper's sensor, which every
    episode flies (`env.SENSOR`). Range noise is switched per episode by
    `EpisodeConfig.sensor_noise`; its model is the constants
    `env.NOISE_BIAS_RANGE` and `env.NOISE_SIGMA`."""

    fov: float = math.radians(30.0)  # full field of view per axis, rad
    max_range: float = 2000.0   # returned for misses; hits are strictly closer, m

    def validate(self) -> None:
        if not (0.0 < self.fov < math.pi):
            raise ConfigurationError("fov must lie in (0, pi)")
        if self.max_range <= 0.0:
            raise ConfigurationError("max_range must be positive")


@dataclass
class LidarFrame:
    """One range image: `ranges[i, j]` in meters, `hit[i, j]` False for misses."""

    ranges: np.ndarray  # (GRID_SIZE, GRID_SIZE) float64
    hit: np.ndarray     # (GRID_SIZE, GRID_SIZE) bool


class PreparedMesh:
    """Mesh rearranged for batch ray casting, read-only; build once per mesh.

    The fields the Möller–Trumbore kernel gathers rows from, `v0`, `edge1`
    and `edge2`, are C-contiguous (F, 3). The fields only the whole-mesh
    facet test reads (see LaneCast._build_pairs) are (F,) or, for
    `centroid` and `normal`, (3, F): one row per component, so that each
    elementwise op there runs along F rather than across a 3-wide row.
    """

    def __init__(self, mesh: TriMesh):
        v = mesh.vertices
        f = mesh.faces
        vt = np.ascontiguousarray(v.T)
        # The facets' first, second and third corners, (3, F) each.
        c0, c1, c2 = (np.take(vt, f[:, k], axis=1) for k in range(3))
        self.num_faces = f.shape[0]
        # Upper bound on the distance of any surface point from the origin.
        self.bound_radius = float(np.max(np.linalg.norm(v, axis=1)))
        # Per-facet bounding sphere and outward (unnormalised) normal, for
        # the candidate pre-pass (LaneCast._build_pairs).
        self.centroid = (c0 + c1 + c2) / 3.0
        r0, r1, r2 = (np.linalg.norm(c - self.centroid, axis=0) for c in (c0, c1, c2))
        self.radius = np.maximum(np.maximum(r0, r1), r2)
        edge1, edge2 = c1 - c0, c2 - c0
        # What is left to build needs none of these: on a large body, the
        # build's peak is then the kept fields plus three (3, F) arrays.
        del vt, c1, c2, r0, r1, r2
        self.normal = _cross(edge1, edge2, axis=0)
        self.normal_len = np.linalg.norm(self.normal, axis=0)
        self.v0, self.edge1, self.edge2 = (np.ascontiguousarray(a.T) for a in (c0, edge1, edge2))
        # Lanes and environments on one body share it, so it is read-only.
        for a in (self.v0, self.edge1, self.edge2, self.centroid, self.radius, self.normal,
                  self.normal_len):
            a.flags.writeable = False


def _cross(a: np.ndarray, b: np.ndarray, axis: int = 1) -> np.ndarray:
    """np.cross of two (N, 3) arrays, or of two (3, N) ones with `axis` 0,
    with its arithmetic (a1*b2 - a2*b1, ...), without its per-call
    overhead, which dominates at cast sizes."""
    a0, a1, a2 = a.T if axis else a
    b0, b1, b2 = b.T if axis else b
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=axis)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the columns of two (3, N) arrays, summed as
    (a0*b0 + a2*b2) + a1*b1: the order in which np.einsum("nk,nk->n") sums
    (N, 3) rows with x86-64 SIMD, so that either layout gives the same
    values. Only a zero's sign can differ: einsum's zero sums are +0.0,
    which no test of this module tells from -0.0."""
    p = a * b
    s = p[0] + p[2]
    s += p[1]
    return s


def _near_cone(
    along: np.ndarray,
    dist: np.ndarray,
    radius: np.ndarray,
    half_angle: float,
) -> np.ndarray:
    """Whether each bounding sphere comes within CONE_TOL rad of a cone of
    `half_angle`.

    A sphere's centre lies at distance `dist` from the apex and its radius
    is `radius`; `along` is the centre offset's component along the cone's
    unit axis. The three arrays broadcast together. A sphere that holds the
    apex always counts.

    The centre's angle off the axis is compared with the largest one kept,
    theta, through its cosine: along >= dist * cos(theta), with the bound
    at -inf where every direction counts. So the work at the shape of
    `along` is one comparison, however many rays share one sphere.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        sphere_half_angle = np.arcsin(np.minimum(radius / dist, 1.0))
    theta = half_angle + sphere_half_angle + CONE_TOL
    every = (dist <= radius) | (theta >= np.pi)
    return along >= np.where(every, -np.inf, dist * np.cos(np.minimum(theta, np.pi)))


def _reachable(
    w: np.ndarray,
    dist: np.ndarray,
    along: np.ndarray,
    radius: np.ndarray,
    normal: np.ndarray,
    normal_len: np.ndarray,
    half_angle: float,
    rho: float,
) -> np.ndarray:
    """The facet test of :meth:`LaneCast._build_pairs`: the indices of
    the F facets that some ray in a cone of `half_angle` may hit when cast
    from an origin within `rho` of the one their centre offsets `w` (3, F),
    distances `dist` (F,) and offset components `along` the cone's unit
    axis (F,) are measured from. The facets' bounding sphere radii, outward
    normals (3, F) and normal lengths come in `radius`, `normal` and
    `normal_len`.

    The plane test runs first, over every facet; the cone test, whose
    arcsin and cos cost several times as much, runs on the facets in
    front only.
    """
    facing = _dot(w, normal)
    front = np.flatnonzero(facing <= normal_len * (rho + PLANE_TOL * (dist + rho + radius)))
    near = _near_cone(
        np.take(along, front), np.take(dist, front), np.take(radius, front) + rho, half_angle
    )
    return np.take(front, np.flatnonzero(near))


def beam_cone(directions: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit axis and half-angle of a cone that holds every ray of the
    (R, 3) `directions`: the axis is their normalised sum, the half-angle
    their largest angle from it. Any axis gives such a cone, so the choice
    only sets how much the candidate pre-pass culls."""
    units = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    total = units.sum(axis=0)
    norm = np.linalg.norm(total)
    axis = total / norm if norm > 0.0 else units[0]
    return axis, float(np.arccos(np.clip((units @ axis).min(), -1.0, 1.0)))


class _Pairs(NamedTuple):
    """A lane's cached (ray, facet) pairs, P of them: the terms of the
    Möller–Trumbore kernel that do not depend on the origin. The (3, P)
    fields hold one row per component, so that the kernel's elementwise
    work runs along P."""

    ray: np.ndarray       # (P,) the ray, as an index into the lane's R rays
    v0: np.ndarray        # (3, P) the facet's first corner
    e1_roll2: np.ndarray  # (3, P) its edge1, row k holding component k + 2 (mod 3)
    e1_roll1: np.ndarray  # (3, P) and row k holding component k + 1
    edge2: np.ndarray     # (3, P)
    pvec: np.ndarray      # (3, P) the ray direction cross edge2
    det: np.ndarray       # (P,) edge1 . pvec, above DET_EPS
    d: np.ndarray         # (P, 3) the ray direction


# Row orders that roll a (3, N) array's rows by one and by two.
_ROLL1, _ROLL2 = np.array([1, 2, 0]), np.array([2, 0, 1])


class LaneCast:
    """One lane's caster: a prepared mesh and the lane's rays `beams`
    (R, 3), fixed for the object's life as an episode's beams are (the
    attitude is frozen), inside the cone of :func:`beam_cone`.

    The lane keeps a candidate ball between casts: the (ray, facet) pairs
    that may hit from anywhere within rho of the ball's centre (see
    :meth:`_build_pairs`). rho is BALL_FRACTION of the gap from the centre
    to the nearest facet bounding sphere. The ball is rebuilt when the
    origin is more than rho / 2 from the centre; the other half of rho is
    slack far beyond rounding, so the ball holds every pair that a test from
    the origin itself would keep. Culling is thus one path, ball then pairs
    then kernel, and a cast between rebuilds runs only the kernel on the
    cached pairs: it costs what the lane's footprint costs, not what its
    mesh does.
    """

    def __init__(self, mesh: PreparedMesh, beams: np.ndarray):
        self.mesh = mesh
        self.beams = beams
        self.units = beams / np.linalg.norm(beams, axis=1, keepdims=True)
        self.cone = beam_cone(beams)
        # The ball: its centre (NaN until built), the square of half its
        # radius, and its pairs (see _build_pairs).
        self._ball_centre = np.full(3, np.nan)
        self._ball_reach = 0.0
        self._ball_pairs: _Pairs | None = None

    def _build_pairs(self, origin: np.ndarray, fraction: float) -> None:
        """Rebuild the ball around `origin`, of radius rho = `fraction` of
        its gap (0 once the origin is inside a facet bounding sphere, or
        when `fraction` is 0), in one pass over the mesh.

        A facet is kept when some origin within rho of the centre may see
        it: the origin is not clearly behind its plane (the kernel then has
        det <= DET_EPS or t <= T_MIN for every ray), with slack rho * |n|,
        and its bounding sphere grown by rho (the Minkowski sum) comes
        within CONE_TOL of the lane's cone. A kept facet pairs with each ray
        that passes the same cone test as a zero-angle cone. Of those pairs,
        the ones whose det (which depends only on the ray and the facet)
        exceeds DET_EPS are kept, as a :class:`_Pairs`. A culled pair would
        give t = inf from every origin in the ball.
        """
        mesh, (axis, half_angle) = self.mesh, self.cone
        w = mesh.centroid - origin[:, None]                          # (3, F)
        dist = np.sqrt(_dot(w, w))
        gap = (dist - mesh.radius).min()
        # No ball (rho = 0, a rebuild at every move) once the origin enters
        # a bounding sphere; a NaN gap lands there too.
        rho = fraction * gap if gap > 0.0 else 0.0
        kept = _reachable(
            w, dist, axis @ w, mesh.radius, mesh.normal, mesh.normal_len, half_angle, rho
        )

        # The rays of the K kept facets, in one (K, R) pass.
        along = np.take(w, kept, axis=1).T @ self.units.T            # (K, R)
        grown = np.take(mesh.radius, kept) + rho
        near = _near_cone(along, np.take(dist, kept)[:, None], grown[:, None], 0.0)
        k, ray = np.divmod(np.flatnonzero(near), self.beams.shape[0])
        face = np.take(kept, k)

        d = np.take(self.beams, ray, axis=0)
        edge1, edge2 = (np.take(a, face, axis=0) for a in (mesh.edge1, mesh.edge2))
        pvec = _cross(d, edge2)
        det = np.einsum("pk,pk->p", edge1, pvec)
        front = np.flatnonzero(det > DET_EPS)
        edge1 = np.take(edge1, front, axis=0).T
        self._ball_pairs = _Pairs(
            np.take(ray, front),
            np.take(mesh.v0, np.take(face, front), axis=0).T.copy(),
            edge1[_ROLL2], edge1[_ROLL1],
            *(np.take(a, front, axis=0).T.copy() for a in (edge2, pvec)),
            np.take(det, front), np.take(d, front, axis=0),
        )
        self._ball_centre = origin.copy()
        self._ball_reach = (0.5 * rho) ** 2

    def cast(
        self, origin: np.ndarray, max_range: float = SensorConfig.max_range
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest front-face hit of each of the lane's rays from `origin`,
        as (R,) ranges and hits, as :func:`cast_rays` returns them.

        An origin more than rho / 2 from the ball's centre rebuilds the
        ball first, in one :meth:`_build_pairs` call. Möller–Trumbore then
        runs on the cached pairs. A culled pair would give t = inf, and each
        kept pair's arithmetic is the brute-force cast's, so the result
        equals brute force bit for bit. The one exception is a ray passing
        within rounding of a facet edge, where a hit can hinge on `v`: brute
        force forms it in one BLAS product over all facets, whose rounding
        can differ from the per-pair dot product here (one facet or one ray
        takes another BLAS kernel).
        """
        offset = origin - self._ball_centre
        if not offset.dot(offset) <= self._ball_reach:
            self._build_pairs(origin, BALL_FRACTION)
        ray, v0, e1_roll2, e1_roll1, edge2, pvec, det, d = self._ball_pairs
        nearest = np.full(self.beams.shape[0], np.inf)
        if ray.size:
            tvec = origin[:, None] - v0                              # (3, P)
            # np.cross(tvec, edge1): row k is t[k+1]*e[k+2] - t[k+2]*e[k+1]
            qvec = tvec[_ROLL1]
            qvec *= e1_roll2
            qvec -= tvec[_ROLL2] * e1_roll1
            # the brute-force cast's dot products: einsum's (see _dot), and
            # BLAS ddot on C-contiguous rows
            t = _dot(edge2, qvec)                                    # (P,)
            u = _dot(tvec, pvec)
            v = np.vecdot(d, qvec.T.copy())

            # Scaled barycentric tests avoid a divide until the final t.
            # Culling: only det > eps survives (see _build_pairs), which
            # selects rays entering through the outward-facing side of each
            # triangle. With v >= 0, u + v <= det implies u <= det (rounding
            # is monotone), and a NaN u or v fails the tests. A NaN t (never
            # from finite inputs) passes the T_MIN cut and reads as a miss.
            ok = np.minimum(u, v) >= 0.0
            u += v
            ok &= u <= det
            t /= det
            ok &= ~(t <= T_MIN)
            np.minimum.at(nearest, ray, np.where(ok, t, np.inf))
        hit = nearest < max_range
        return np.where(hit, nearest, max_range), hit


def cast_rays(
    mesh: PreparedMesh,
    origin: np.ndarray,
    directions: np.ndarray,
    max_range: float = SensorConfig.max_range,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest front-face hit per ray of the (R, 3) `directions` from a
    shared origin.

    Returns (ranges, hit), each (R,): misses get exactly `max_range`; hits
    are the nearest intersection distance and are strictly less than
    `max_range` (a surface exactly at or beyond `max_range` reads as a
    miss). This is :meth:`LaneCast.cast` on a lane whose rays are
    `directions`.
    """
    origin = np.asarray(origin, dtype=np.float64)
    # A ball of radius 0 around the origin: its pairs are the ones the
    # cast from there keeps, without the slack a lane spends on later casts.
    lane = LaneCast(mesh, np.asarray(directions, dtype=np.float64))
    lane._build_pairs(origin, 0.0)
    return lane.cast(origin, max_range)


def crossing_count(prep: PreparedMesh, origin: np.ndarray, direction: np.ndarray) -> int:
    """Number of surface crossings along a ray, counting both face sides.

    Used for watertightness checks: from a point inside a closed mesh every
    direction crosses the surface an odd number of times.
    """
    d = np.asarray(direction, dtype=np.float64)
    pvec = np.cross(d[None, :], prep.edge2)
    det = np.einsum("fk,fk->f", prep.edge1, pvec)
    tvec = np.asarray(origin, dtype=np.float64)[None, :] - prep.v0
    u = np.einsum("fk,fk->f", tvec, pvec)
    qvec = np.cross(tvec, prep.edge1)
    v = qvec @ d
    sign = np.sign(det)
    nz = np.abs(det) > DET_EPS
    su, sv, sd = u * sign, v * sign, np.abs(det)
    ok = nz & (su >= 0.0) & (sv >= 0.0) & (su + sv <= sd)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ok, np.einsum("fk,fk->f", prep.edge2, qvec) / det, np.inf)
    return int(np.count_nonzero(np.isfinite(t) & (t > T_MIN)))


def beam_directions(cfg: SensorConfig) -> np.ndarray:
    """Unit beam directions in the sensor frame, shape (GRID_SIZE, GRID_SIZE, 3).

    The boresight is -z. Beam (i, j) passes through the center of angular
    cell (i, j): row index i tilts toward +y as i grows, column index j
    toward +x. Cell centers are symmetric about the boresight, so the grid
    maps onto itself under 90-degree rotations about the optical axis.
    """
    cfg.validate()
    n = GRID_SIZE
    # Center angle of cell k out of n across the full field of view.
    angles = cfg.fov * ((np.arange(n) + 0.5) / n - 0.5)
    tan_a = np.tan(angles)
    tx = np.broadcast_to(tan_a[None, :], (n, n))  # columns tilt about y toward +x
    ty = np.broadcast_to(tan_a[:, None], (n, n))  # rows tilt about x toward +y
    dirs = np.stack([tx, ty, -np.ones((n, n))], axis=-1)
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return dirs


def rotated_beams(cfg: SensorConfig, rotation_matrix: np.ndarray) -> np.ndarray:
    """The (GRID_SIZE**2, 3) beam directions turned by `rotation_matrix` into
    the frame the mesh lives in."""
    return beam_directions(cfg).reshape(-1, 3) @ rotation_matrix.T


def scan(lane: LaneCast, position: np.ndarray, cfg: SensorConfig) -> LidarFrame:
    """Render one range image from `position` through `lane`, whose rays
    are the (GRID_SIZE**2, 3) directions from :func:`rotated_beams` at the
    platform attitude."""
    ranges, hit = lane.cast(position, cfg.max_range)
    return LidarFrame(ranges.reshape(GRID_SIZE, GRID_SIZE), hit.reshape(GRID_SIZE, GRID_SIZE))


def apply_sensor_noise(
    frame: LidarFrame,
    bias: float,
    sigma: float,
    rng: np.random.Generator,
    max_range: float = SensorConfig.max_range,
) -> LidarFrame:
    """Additive bias plus white noise on returned samples only.

    Misses stay exactly at the miss value; noisy returns are clamped to
    (0, max_range].
    """
    ranges = frame.ranges.copy()
    if frame.hit.any():
        noisy = ranges[frame.hit] + bias + rng.normal(0.0, sigma, size=int(frame.hit.sum()))
        tiny = 1.0e-6
        ranges[frame.hit] = np.clip(noisy, tiny, max_range)
    return LidarFrame(ranges, frame.hit.copy())
