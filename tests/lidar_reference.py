"""Slow reference ray casting: the oracles the fast paths are pinned to.

`cast_rays_reference` is the brute-force Möller–Trumbore cast over every
ray x facet pair that `asterhover.lidar.cast_rays` ran before it gained its
candidate-facet pre-pass; `ray_triangle_intersect` is the scalar
one-triangle form of the same test. `prepared_mesh_reference` computes the
fields of `asterhover.lidar.PreparedMesh` with numpy's own mean, cross and
norm over the (F, 3, 3) corners array.
"""

from __future__ import annotations

import numpy as np

from asterhover.geometry import TriMesh
from asterhover.lidar import DET_EPS, T_MIN, PreparedMesh, _prepare, cast_rays


def prepared_mesh_reference(mesh: TriMesh) -> dict:
    """The fields of `PreparedMesh(mesh)`, each with its facets along the
    first axis: `v0`, `edge1`, `edge2`, `centroid` and `normal` (F, 3),
    `radius` and `normal_len` (F,), and `bound_radius`."""
    v = mesh.vertices
    corners = v[mesh.faces]                                     # (F, 3, 3)
    edge1 = corners[:, 1] - corners[:, 0]
    edge2 = corners[:, 2] - corners[:, 0]
    centroid = corners.mean(axis=1)
    normal = np.cross(edge1, edge2)
    return {
        "v0": corners[:, 0],
        "edge1": edge1,
        "edge2": edge2,
        "bound_radius": float(np.max(np.linalg.norm(v, axis=1))),
        "centroid": centroid,
        "radius": np.linalg.norm(corners - centroid[:, None, :], axis=2).max(axis=1),
        "normal": normal,
        "normal_len": np.linalg.norm(normal, axis=1),
    }


def ray_triangle_intersect(
    origin: np.ndarray,
    direction: np.ndarray,
    triangle: np.ndarray,
    cull_backface: bool = True,
) -> float | None:
    """Distance along `direction` to one triangle, or None.

    Front faces are those whose vertices appear counterclockwise from the
    ray origin side; with culling enabled a back-face crossing returns None,
    as does a parallel or degenerate triangle.
    """
    v0, v1, v2 = np.asarray(triangle, dtype=np.float64)
    e1 = v1 - v0
    e2 = v2 - v0
    pvec = np.cross(direction, e2)
    det = float(np.dot(e1, pvec))
    if cull_backface:
        if det < DET_EPS:
            return None
    elif abs(det) < DET_EPS:
        return None
    tvec = origin - v0
    u = float(np.dot(tvec, pvec))
    qvec = np.cross(tvec, e1)
    v = float(np.dot(direction, qvec))
    if det > 0.0:
        if u < 0.0 or u > det or v < 0.0 or u + v > det:
            return None
    else:
        if u > 0.0 or u < det or v > 0.0 or u + v < det:
            return None
    t = float(np.dot(e2, qvec)) / det
    if t <= T_MIN:
        return None
    return t


def cast_rays_reference(
    mesh: TriMesh | PreparedMesh,
    origin: np.ndarray,
    directions: np.ndarray,
    max_range: float = 2000.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest front-face hit per ray of the (R, 3) `directions` from a
    shared origin, over all facets.

    Returns (ranges, hit), each (R,): misses get exactly `max_range`; hits are the
    nearest intersection distance and are strictly less than `max_range`
    (a surface exactly at or beyond `max_range` reads as a miss).
    """
    prep = _prepare(mesh)
    d = np.asarray(directions, dtype=np.float64)  # (R, 3)
    origin = np.asarray(origin, dtype=np.float64)

    pvec = np.cross(d[:, None, :], prep.edge2[None, :, :])     # (R, F, 3)
    det = np.einsum("fk,rfk->rf", prep.edge1, pvec)            # (R, F)
    tvec = origin[None, :] - prep.v0                           # (F, 3)
    u = np.einsum("fk,rfk->rf", tvec, pvec)
    qvec = np.cross(tvec, prep.edge1)                          # (F, 3)
    v = d @ qvec.T                                             # (R, F)

    # Scaled barycentric tests avoid a divide until the final t. Culling:
    # only det > eps survives, which selects rays entering through the
    # outward-facing side of each triangle.
    ok = (det > DET_EPS) & (u >= 0.0) & (v >= 0.0) & (u <= det) & (u + v <= det)
    t_scaled = np.einsum("fk,fk->f", prep.edge2, qvec)         # (F,)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ok, t_scaled[None, :] / det, np.inf)
    t[t <= T_MIN] = np.inf

    nearest = t.min(axis=1)
    hit = nearest < max_range
    ranges = np.where(hit, nearest, max_range)
    return ranges, hit


def cast_ray(
    mesh: TriMesh | PreparedMesh,
    origin: np.ndarray,
    direction: np.ndarray,
    max_range: float = 2000.0,
) -> float:
    """Single-ray convenience wrapper around :func:`asterhover.lidar.cast_rays`."""
    ranges, _ = cast_rays(mesh, origin, np.asarray(direction, dtype=np.float64)[None], max_range)
    return float(ranges[0])
