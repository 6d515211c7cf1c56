"""Test-side geometry: `load_mesh`, the package's own read, parse and scale
of a mesh file without `asterhover.env.load_mesh`'s cache; the per-line
OBJ reader that the package ran before it read its records in bulk, kept
as the reference the bulk reader is pinned to; and the two-lobed peanut
body the shape-model tests fly over.
"""

from __future__ import annotations

import math

import numpy as np

from asterhover.errors import ConfigurationError, MeshLoadError
from asterhover.geometry import (
    TriMesh,
    check_mesh_scale,
    generate_icosphere,
    parse_mesh,
    read_mesh_file,
)


def load_mesh(path: str, scale: float = 1.0) -> TriMesh:
    """The mesh file at `path` as the package reads it
    (:func:`read_mesh_file`, then :func:`parse_mesh`), vertices multiplied
    by `scale`."""
    check_mesh_scale(scale)
    mesh = parse_mesh(read_mesh_file(path), path)
    return TriMesh(mesh.vertices * scale, mesh.faces)


def make_peanut_mesh(
    level: int = 3,
    lobe_radius: float = 267.0,
    waist_radius: float = 147.0,
    flatten: float = 0.71,
) -> TriMesh:
    """Elongated two-lobed test body, roughly contact-binary proportions.

    Radius grows from `waist_radius` on the y-z plane to `lobe_radius` at the
    +-x poles, then the z axis is compressed by `flatten`. Star-shaped about
    the origin, so it is safe for the same ray casting paths as synthesized
    shapes.
    """
    if lobe_radius <= 0.0 or waist_radius <= 0.0 or not (0.0 < flatten <= 1.0):
        raise ConfigurationError("peanut parameters must be positive (flatten in (0, 1])")
    mesh = generate_icosphere(level)
    u = mesh.vertices
    radius = waist_radius + (lobe_radius - waist_radius) * u[:, 0] ** 2
    mesh.vertices = u * radius[:, None]
    mesh.vertices[:, 2] *= flatten
    return mesh


def load_mesh_reference(path: str, scale: float = 1.0) -> TriMesh:
    """Read a mesh written by :func:`save_mesh` (a subset of Wavefront OBJ).

    Only `v` and `f` records are interpreted; `#` comments and other record
    types are skipped. Faces must be triangles and use 1-based vertex
    indices. Vertices are multiplied by `scale` after loading.
    """
    if scale <= 0.0:
        raise ConfigurationError(f"mesh scale must be positive, got {scale}")
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    face_lines: list[int] = []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            kind = tokens[0]
            if kind == "v":
                if len(tokens) != 4:
                    raise MeshLoadError(
                        f"{path}:{lineno}: vertex needs exactly 3 coordinates"
                    )
                try:
                    coords = [float(t) for t in tokens[1:]]
                except ValueError as exc:
                    raise MeshLoadError(
                        f"{path}:{lineno}: bad vertex coordinate: {exc}"
                    ) from None
                if not all(map(math.isfinite, coords)):
                    raise MeshLoadError(f"{path}:{lineno}: vertex coordinate is not finite")
                vertices.append(coords)
            elif kind == "f":
                if len(tokens) != 4:
                    raise MeshLoadError(
                        f"{path}:{lineno}: only triangular faces are supported"
                    )
                try:
                    # Tolerate "f 1/1/1 2/2/2 3/3/3" style by taking the
                    # leading vertex index of each vertex tuple.
                    idx = [int(t.split("/")[0]) for t in tokens[1:]]
                except ValueError as exc:
                    raise MeshLoadError(
                        f"{path}:{lineno}: bad face index: {exc}"
                    ) from None
                faces.append(idx)
                face_lines.append(lineno)
            # Any other record type (vn, vt, o, g, s, ...) is ignored.
    if not vertices:
        raise MeshLoadError(f"{path}: no vertices found")
    if not faces:
        raise MeshLoadError(f"{path}: no faces found")
    nv = len(vertices)
    face_arr = np.asarray(faces, dtype=np.int64)
    bad = ((face_arr < 1) | (face_arr > nv)).ravel()
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), 3)  # first offending index
        raise MeshLoadError(
            f"{path}:{face_lines[row]}: face index {face_arr[row, col]} outside 1..{nv}"
        )
    verts = np.asarray(vertices, dtype=np.float64) * scale
    return TriMesh(verts, face_arr - 1)
