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

import numpy as np

from .errors import ConfigurationError
from .geometry import TriMesh

# Determinant cutoff below which a ray is treated as parallel to the
# triangle plane, and minimum accepted hit distance (meters).
DET_EPS = 1.0e-12
T_MIN = 1.0e-12

# Margins of the candidate-facet pre-pass in cast_rays. The kernel's det,
# barycentric and t numerators are triple products of edge and
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


@dataclass
class SensorConfig:
    """Detector geometry. The range noise model is set per episode
    (`EpisodeConfig.sensor_noise` and `noise_*`)."""

    grid_size: int = 8          # pixels per side
    fov: float = math.radians(30.0)  # full field of view per axis, rad
    max_range: float = 2000.0   # returned for misses; hits are strictly closer, m

    def validate(self) -> None:
        if self.grid_size < 1:
            raise ConfigurationError("grid_size must be >= 1")
        if not (0.0 < self.fov < math.pi):
            raise ConfigurationError("fov must lie in (0, pi)")
        if self.max_range <= 0.0:
            raise ConfigurationError("max_range must be positive")


@dataclass
class LidarFrame:
    """One range image: `ranges[i, j]` in meters, `hit[i, j]` False for misses."""

    ranges: np.ndarray  # (grid, grid) float64
    hit: np.ndarray     # (grid, grid) bool


class PreparedMesh:
    """Mesh rearranged for batch ray casting; build once per mesh."""

    def __init__(self, mesh: TriMesh):
        v = mesh.vertices
        f = mesh.faces
        corners = v[f]                                          # (F, 3, 3)
        self.v0 = np.ascontiguousarray(corners[:, 0])
        self.edge1 = np.ascontiguousarray(corners[:, 1] - corners[:, 0])
        self.edge2 = np.ascontiguousarray(corners[:, 2] - corners[:, 0])
        self.num_faces = f.shape[0]
        # Upper bound on the distance of any surface point from the origin.
        self.bound_radius = float(np.max(np.linalg.norm(v, axis=1)))
        # Per-facet bounding sphere and outward (unnormalised) normal, for
        # the candidate pre-pass of cast_rays.
        self.centroid = corners.mean(axis=1)
        self.radius = np.linalg.norm(corners - self.centroid[:, None, :], axis=2).max(axis=1)
        self.normal = np.cross(self.edge1, self.edge2)
        self.normal_len = np.linalg.norm(self.normal, axis=1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of two (N, 3) arrays with its arithmetic (a1*b2 - a2*b1,
    ...), without its per-call overhead, which dominates at cast sizes."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def _prepare(mesh: TriMesh | PreparedMesh) -> PreparedMesh:
    return mesh if isinstance(mesh, PreparedMesh) else PreparedMesh(mesh)


def _near_cone(
    w: np.ndarray,
    dist: np.ndarray,
    radius: np.ndarray,
    axis: np.ndarray,
    half_angle: float,
) -> np.ndarray:
    """Whether each bounding sphere comes within CONE_TOL rad of a cone.

    The spheres have centres `w` (F, 3) relative to the apex, at distances
    `dist`, with radii `radius`. With a unit `axis` of shape (3,), `dist`
    and `radius` are (F,) and so is the mask; with one unit axis per column,
    (3, R), they are (F, 1) and the mask is (F, R). A sphere that holds the
    apex always counts.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        off_axis = np.arccos(np.clip((w @ axis) / dist, -1.0, 1.0))
        sphere_half_angle = np.arcsin(np.minimum(radius / dist, 1.0))
    return (dist <= radius) | (off_axis <= half_angle + sphere_half_angle + CONE_TOL)


def _candidate_faces(prep: PreparedMesh, origin: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Indices of the facets any of the rays `d` from `origin` can hit.

    A facet is kept when the origin is not clearly behind its plane (the
    kernel then has det <= DET_EPS or t <= T_MIN for every ray) and its
    bounding sphere meets the cone around the rays: the axis is their
    normalised sum, the half-angle their largest angle from it. Any axis
    gives a cone holding every ray, so the choice only sets how much is
    culled.
    """
    w = prep.centroid - origin                                  # (F, 3)
    dist = np.sqrt(np.einsum("fk,fk->f", w, w))
    reach = dist + prep.radius
    front = np.einsum("fk,fk->f", w, prep.normal) <= PLANE_TOL * prep.normal_len * reach

    units = d / np.linalg.norm(d, axis=1, keepdims=True)
    total = units.sum(axis=0)
    norm = np.linalg.norm(total)
    axis = total / norm if norm > 0.0 else units[0]
    half_angle = np.arccos(np.clip((units @ axis).min(), -1.0, 1.0))
    in_cone = _near_cone(w, dist, prep.radius, axis, half_angle)
    return np.flatnonzero(front & in_cone)


def cast_rays(
    mesh: TriMesh | PreparedMesh,
    origin: np.ndarray,
    directions: np.ndarray,
    max_range: float = 2000.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest front-face hit per ray from a shared origin.

    Returns (ranges, hit): misses get exactly `max_range`; hits are the
    nearest intersection distance and are strictly less than `max_range`
    (a surface exactly at or beyond `max_range` reads as a miss).

    Möller–Trumbore runs only on the (ray, facet) pairs that survive two
    culls: the facet is kept by :func:`_candidate_faces` for the whole cast,
    and its bounding sphere passes the same cone test with the ray alone as
    a zero-angle cone. A culled pair would give t = inf, and the per-pair
    arithmetic is the brute-force cast's, so the result equals it bit for
    bit. The exception is the BLAS product `d @ qvec.T`, formed over the
    kept facets and read at the pairs, which can round differently for
    another facet count; that decides a hit only for a ray passing within
    rounding of a facet edge, where brute force itself changes with the
    mesh's facet count.
    """
    prep = _prepare(mesh)
    d = np.asarray(directions, dtype=np.float64)
    single = d.ndim == 1
    d = np.atleast_2d(d)                       # (R, 3)
    origin = np.asarray(origin, dtype=np.float64)

    keep = _candidate_faces(prep, origin, d)
    v0, edge1, edge2 = prep.v0[keep], prep.edge1[keep], prep.edge2[keep]
    tvec = origin[None, :] - v0                                # (K, 3)
    qvec = _cross(tvec, edge1)                                 # (K, 3)
    v_all = d @ qvec.T                                         # (R, K)
    t_scaled = np.einsum("fk,fk->f", edge2, qvec)              # (K,)

    # The (ray, facet) pairs: each ray is its own zero-angle cone.
    w = prep.centroid[keep] - origin
    dist = np.sqrt(np.einsum("fk,fk->f", w, w))[:, None]
    units = d / np.linalg.norm(d, axis=1, keepdims=True)
    fi, ri = np.nonzero(_near_cone(w, dist, prep.radius[keep][:, None], units.T, 0.0))

    pvec = _cross(d[ri], edge2[fi])                            # (P, 3)
    det = np.einsum("pk,pk->p", edge1[fi], pvec)               # (P,)
    u = np.einsum("pk,pk->p", tvec[fi], pvec)
    v = v_all[ri, fi]

    # Scaled barycentric tests avoid a divide until the final t. Culling:
    # only det > eps survives, which selects rays entering through the
    # outward-facing side of each triangle.
    ok = (det > DET_EPS) & (u >= 0.0) & (v >= 0.0) & (u <= det) & (u + v <= det)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ok, t_scaled[fi] / det, np.inf)
    t[t <= T_MIN] = np.inf

    nearest = np.full(d.shape[0], np.inf)
    np.minimum.at(nearest, ri, t)
    hit = nearest < max_range
    ranges = np.where(hit, nearest, max_range)
    if single:
        return ranges[0], hit[0]
    return ranges, hit


def crossing_count(mesh: TriMesh | PreparedMesh, origin: np.ndarray, direction: np.ndarray) -> int:
    """Number of surface crossings along a ray, counting both face sides.

    Used for watertightness checks: from a point inside a closed mesh every
    direction crosses the surface an odd number of times.
    """
    prep = _prepare(mesh)
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
    """Unit beam directions in the sensor frame, shape (grid, grid, 3).

    The boresight is -z. Beam (i, j) passes through the center of angular
    cell (i, j): row index i tilts toward +y as i grows, column index j
    toward +x. Cell centers are symmetric about the boresight, so the grid
    maps onto itself under 90-degree rotations about the optical axis.
    """
    cfg.validate()
    n = cfg.grid_size
    # Center angle of cell k out of n across the full field of view.
    angles = cfg.fov * ((np.arange(n) + 0.5) / n - 0.5)
    tan_a = np.tan(angles)
    tx = np.broadcast_to(tan_a[None, :], (n, n))  # columns tilt about y toward +x
    ty = np.broadcast_to(tan_a[:, None], (n, n))  # rows tilt about x toward +y
    dirs = np.stack([tx, ty, -np.ones((n, n))], axis=-1)
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return dirs


def rotated_beams(cfg: SensorConfig, rotation_matrix: np.ndarray) -> np.ndarray:
    """The (grid*grid, 3) beam directions turned by `rotation_matrix` into
    the frame the mesh lives in."""
    return beam_directions(cfg).reshape(-1, 3) @ rotation_matrix.T


def scan(
    mesh: TriMesh | PreparedMesh,
    position: np.ndarray,
    beams: np.ndarray,
    cfg: SensorConfig,
) -> LidarFrame:
    """Render one range image from `position` along `beams`, the
    (grid*grid, 3) directions from :func:`rotated_beams` at the platform
    attitude."""
    ranges, hit = cast_rays(mesh, position, beams, cfg.max_range)
    n = cfg.grid_size
    return LidarFrame(ranges.reshape(n, n), hit.reshape(n, n))


def apply_sensor_noise(
    frame: LidarFrame,
    bias: float,
    sigma: float,
    rng: np.random.Generator,
    max_range: float = 2000.0,
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
