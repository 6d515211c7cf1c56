"""Procedural asteroid shape models and triangle-mesh utilities.

Shapes start from a subdivided icosahedron (an icosphere), get a random
radial roughening, and are then stretched per octant by six independent
half-axes so the body is a different size in the +x/-x/+y/-y/+z/-z
directions. All coordinates are in the asteroid body-fixed frame, meters.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .config import replacing
from .errors import ConfigurationError, MeshLoadError

# Universal gravitational constant, m^3 kg^-1 s^-2.
GRAVITATIONAL_CONSTANT = 6.674e-11

# Range of the nutation angle (between the spin axis and +z) drawn per body, rad.
NUTATION_MIN = math.radians(45.0)
NUTATION_MAX = math.radians(90.0)


@dataclass
class TriMesh:
    """Indexed triangle mesh. Faces are CCW when viewed from outside."""

    vertices: np.ndarray  # (V, 3) float64, meters
    faces: np.ndarray     # (F, 3) int64, indices into vertices

    def copy(self) -> "TriMesh":
        return TriMesh(self.vertices.copy(), self.faces.copy())

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_faces(self) -> int:
        return self.faces.shape[0]


def face_normals(mesh: TriMesh) -> np.ndarray:
    """Per-face normal vectors, twice the facet area long, outward for a
    correctly wound closed mesh."""
    v = mesh.vertices
    f = mesh.faces
    return np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])


# Vertices of a regular icosahedron built from three orthogonal golden
# rectangles, then pushed onto the unit sphere.
def _base_icosahedron() -> TriMesh:
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    mesh = TriMesh(verts, faces)
    # Enforce outward winding; the body is star-shaped about the origin so
    # an outward normal has positive dot product with the face centroid.
    centroids = verts[faces].mean(axis=1)
    flip = np.einsum("ij,ij->i", face_normals(mesh), centroids) < 0.0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return mesh


def _subdivide(mesh: TriMesh) -> TriMesh:
    """One 4-way subdivision pass with shared-edge midpoint reuse."""
    verts = [row for row in mesh.vertices]
    midpoint_cache: dict[tuple[int, int], int] = {}

    def midpoint(i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        idx = midpoint_cache.get(key)
        if idx is None:
            m = 0.5 * (verts[i] + verts[j])
            m = m / np.linalg.norm(m)  # keep intermediate spheres unit
            idx = len(verts)
            verts.append(m)
            midpoint_cache[key] = idx
        return idx

    new_faces = np.empty((mesh.num_faces * 4, 3), dtype=np.int64)
    k = 0
    for a, b, c in mesh.faces:
        ab = midpoint(int(a), int(b))
        bc = midpoint(int(b), int(c))
        ca = midpoint(int(c), int(a))
        new_faces[k] = (a, ab, ca)
        new_faces[k + 1] = (b, bc, ab)
        new_faces[k + 2] = (c, ca, bc)
        new_faces[k + 3] = (ab, bc, ca)
        k += 4
    return TriMesh(np.asarray(verts, dtype=np.float64), new_faces)


_ICOSPHERE_CACHE: dict[int, TriMesh] = {}


def generate_icosphere(level: int) -> TriMesh:
    """Unit icosphere after `level` recursive subdivisions.

    Level 0 is the icosahedron itself (12 vertices, 20 faces); each level
    multiplies the face count by four. Returns a fresh copy, safe to mutate.
    """
    if level < 0:
        raise ConfigurationError(f"subdivision level must be >= 0, got {level}")
    if level not in _ICOSPHERE_CACHE:
        mesh = _base_icosahedron()
        for _ in range(level):
            mesh = _subdivide(mesh)
        _ICOSPHERE_CACHE[level] = mesh
    return _ICOSPHERE_CACHE[level].copy()


# Each level quadruples the facets; level 7 (327680) is the largest measured
# here. Above it a single body takes memory and time without bound.
MAX_SUBDIVISION_LEVEL = 7


@dataclass
class AsteroidGenConfig:
    """Ranges for the random shape synthesis."""

    subdivision_level: int = 2
    perturbation_min: float = 0.005  # radial roughness bound, fraction of unit radius
    perturbation_max: float = 0.05
    axis_min: float = 300.0  # half-axis range, m
    axis_max: float = 600.0

    def validate(self) -> None:
        if not 0 <= self.subdivision_level <= MAX_SUBDIVISION_LEVEL:
            raise ConfigurationError(f"subdivision_level must be in [0, {MAX_SUBDIVISION_LEVEL}]")
        if not (0.0 <= self.perturbation_min <= self.perturbation_max):
            raise ConfigurationError("perturbation range must satisfy 0 <= min <= max")
        if not (0.0 < self.axis_min <= self.axis_max):
            raise ConfigurationError("axis range must satisfy 0 < min <= max")


@dataclass
class AsteroidDynRanges:
    """Ranges for the random mass, spin and solar-pressure draws; the
    nutation range is fixed (NUTATION_MIN, NUTATION_MAX)."""

    mass_min: float = 1.0e10   # kg
    mass_max: float = 1.5e12
    spin_min: float = 1.0e-6   # body rate magnitude, rad/s
    spin_max: float = 5.0e-4
    srp_max: float = 100.0e-6  # per-component solar pressure accel bound, m/s^2

    def validate(self) -> None:
        if not (0.0 < self.mass_min <= self.mass_max):
            raise ConfigurationError("mass range must satisfy 0 < min <= max")
        if not (0.0 <= self.spin_min <= self.spin_max):
            raise ConfigurationError("spin range must satisfy 0 <= min <= max")
        if self.srp_max < 0.0:
            raise ConfigurationError("srp_max must be >= 0")


@dataclass
class AsteroidModel:
    """A synthesized (or loaded) small body: shape plus rotation state.

    The angular velocity direction precesses about +z at `precession_rate`
    while keeping the nutation angle fixed; see
    :func:`asterhover.dynamics.asteroid_angular_velocity`.
    """

    mesh: TriMesh
    mass: float                # kg
    gm: float                  # gravitational parameter G*M, m^3/s^2
    spin_rate: float           # |omega|, rad/s
    nutation: float            # rad
    phase: float               # precession phase at t=0, rad
    precession_rate: float     # rad/s
    sigma: float               # inertia-ratio asymmetry parameter
    axes: np.ndarray           # effective half-axes (a, b, c), m
    srp_accel: np.ndarray      # (3,) solar pressure + outgassing accel, m/s^2


def ellipsoid_rotation_params(a: float, b: float, c: float) -> tuple[float, float]:
    """Inertia ratio and asymmetry parameter of a triaxial ellipsoid.

    For half-axes (a, b, c) the moment about x is proportional to b^2 + c^2,
    so ratio = (b^2 + c^2) / (a^2 + b^2) compares the spin-axis moment to a
    transverse one, and sigma = 1/ratio - 1 sets the torque-free precession
    rate.
    """
    if a <= 0.0 or b <= 0.0 or c <= 0.0:
        raise ConfigurationError(f"half-axes must be positive, got {(a, b, c)}")
    ratio = (b * b + c * c) / (a * a + b * b)
    sigma = 1.0 / ratio - 1.0
    return ratio, sigma


def synthesize_asteroid(
    seed: int | np.random.Generator,
    cfg: AsteroidGenConfig | None = None,
    dyn: AsteroidDynRanges | None = None,
) -> AsteroidModel:
    """Draw a random asteroid: perturbed icosphere, octant scaling, rotation state.

    The same seed always yields the same model. Draw order is fixed:
    roughness amplitude, six half-axes (+x, -x, +y, -y, +z, -z), vertex
    perturbations, mass, spin rate, nutation, phase, SRP components.
    """
    cfg = cfg or AsteroidGenConfig()
    dyn = dyn or AsteroidDynRanges()
    cfg.validate()
    dyn.validate()
    rng = np.random.default_rng(seed)

    p = rng.uniform(cfg.perturbation_min, cfg.perturbation_max)
    half_axes = rng.uniform(cfg.axis_min, cfg.axis_max, size=6)  # +x -x +y -y +z -z

    mesh = generate_icosphere(cfg.subdivision_level)
    mesh.vertices += rng.uniform(-p, p, size=mesh.vertices.shape)

    pos = half_axes[0::2]  # scale used where the coordinate is >= 0
    neg = half_axes[1::2]
    scale = np.where(mesh.vertices >= 0.0, pos, neg)
    mesh.vertices *= scale

    return draw_rotation_state(rng, dyn, mesh, 0.5 * (pos + neg))


def draw_rotation_state(
    rng: np.random.Generator,
    dyn: AsteroidDynRanges,
    mesh: TriMesh,
    axes: np.ndarray,
) -> AsteroidModel:
    """The body `mesh` with a random mass and rotation state.

    Draw order is fixed: mass, spin rate, nutation, phase, SRP components.
    `axes` are the half-axes of the comparison ellipsoid that sets the
    precession rate.
    """
    mass = rng.uniform(dyn.mass_min, dyn.mass_max)
    spin = rng.uniform(dyn.spin_min, dyn.spin_max)
    nutation = rng.uniform(NUTATION_MIN, NUTATION_MAX)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    srp = rng.uniform(-dyn.srp_max, dyn.srp_max, size=3)
    _, sigma = ellipsoid_rotation_params(*axes)
    return AsteroidModel(
        mesh=mesh,
        mass=mass,
        gm=GRAVITATIONAL_CONSTANT * mass,
        spin_rate=spin,
        nutation=nutation,
        phase=phase,
        precession_rate=sigma * spin * math.cos(nutation),
        sigma=sigma,
        axes=axes,
        srp_accel=srp,
    )


def mesh_half_extents(mesh: TriMesh) -> np.ndarray:
    """Half the bounding-box span along each axis; ellipsoid stand-in for
    meshes that were loaded from a file rather than synthesized."""
    return 0.5 * (mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0))


def save_mesh(path: str, mesh: TriMesh) -> None:
    """Write a mesh as ASCII `v x y z` / `f i j k` records (1-based indices)."""
    with replacing(path, encoding="ascii") as fh:
        fh.write(f"# {mesh.num_vertices} vertices, {mesh.num_faces} faces\n")
        for x, y, z in mesh.vertices:
            fh.write(f"v {x:.17g} {y:.17g} {z:.17g}\n")
        for a, b, c in mesh.faces:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")


def check_mesh_scale(scale: float) -> None:
    """Refuse a mesh scale that is not positive and finite."""
    if not 0.0 < scale < np.inf:
        raise ConfigurationError(f"mesh scale must be positive and finite, got {scale}")


def read_mesh_file(path: str) -> bytes:
    """The bytes of the mesh file at `path`; a file that cannot be read
    raises MeshLoadError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise MeshLoadError(f"cannot read mesh file {path}: {exc}") from exc


def parse_mesh(data: bytes, path: str) -> TriMesh:
    """The mesh in `data`, the bytes of the mesh file at `path`, unscaled;
    `path` only names the file in errors.

    Only `v` and `f` records are interpreted; `#` comments and other record
    types are skipped. Faces must be triangles and use 1-based vertex
    indices.

    Records are found by whole-array passes over the bytes, and numpy's
    parser reads each kind in one call; only when a record fails a check
    are the lines split and read one by one, to name the first offending
    line.
    """
    if b"\r" in data:  # the universal newlines of a text-mode read
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    buf, starts, ends, first = _line_bounds(data)
    # A record's type is its line's first token: one letter, then a blank,
    # "#" or the line end. Any other type (vn, vt, o, g, s, ...) is ignored.
    kind = np.where(_TYPE_END[buf[first + 1]], buf[first], 0)
    vertex_rows = np.flatnonzero(kind == ord("v"))
    face_rows = np.flatnonzero(kind == ord("f"))
    try:
        vertices = _read_triples(
            _records(buf, starts, ends, first, vertex_rows), len(vertex_rows), np.float64
        )
        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinate is not finite")
        # Tolerate "f 1/1/1 2/2/2 3/3/3" style by taking the leading vertex
        # index of each vertex tuple.
        face_text = _records(buf, starts, ends, first, face_rows)
        if "/" in face_text:
            face_text = re.sub(r"/[^\s#]*", "", face_text)
        face_arr = _read_triples(face_text, len(face_rows), np.int64)
    except (ValueError, Warning) as exc:
        linenos = (np.union1d(vertex_rows, face_rows) + 1).tolist()
        lines = data.decode("ascii", errors="replace").split("\n")
        bad = _first_bad_record(path, lines, linenos)
        # Python's float() and int() also read digit-group underscores and
        # indices beyond int64, which numpy's parser refuses; such a file
        # gets the parser's message.
        raise bad or MeshLoadError(f"{path}: {exc}") from None
    if not vertex_rows.size:
        raise MeshLoadError(f"{path}: no vertices found")
    if not face_rows.size:
        raise MeshLoadError(f"{path}: no faces found")
    nv = len(vertices)
    bad = ((face_arr < 1) | (face_arr > nv)).ravel()
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), 3)  # first offending index
        raise MeshLoadError(
            f"{path}:{face_rows[row] + 1}: face index {face_arr[row, col]} outside 1..{nv}"
        )
    return TriMesh(vertices, face_arr - 1)


# Whitespace as str.split() sees it among ASCII characters, less the
# newline (every "\r" has become one).
_BLANK = np.zeros(256, dtype=bool)
_BLANK[[ord(c) for c in " \t\x0b\x0c\x1c\x1d\x1e\x1f"]] = True
# What may follow a record type: a blank, a comment or the line end.
_TYPE_END = _BLANK.copy()
_TYPE_END[[ord("\n"), ord("#")]] = True


def _line_bounds(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The file's bytes with two newlines appended, so that the byte after
    any line's first character exists, and per line (as splitting at each
    newline counts them) the offsets of its start, its end and its first
    non-blank byte, which is the end for a blank line."""
    buf = np.frombuffer(data + b"\n\n", dtype=np.uint8)
    ends = np.flatnonzero(buf[:-1] == ord("\n"))
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    first = starts.copy()
    indented = np.flatnonzero(_BLANK[buf[first]])
    while indented.size:  # one pass per column of indentation
        first[indented] += 1
        indented = indented[_BLANK[buf[first[indented]]]]
    return buf, starts, ends, first


def _records(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, first: np.ndarray, rows: np.ndarray
) -> str:
    """The lines from the first to the last of `rows` as one text, with the
    record type of each of `rows` blanked and every other non-blank line
    turned into a comment, so that numpy's parser reads just the records'
    numbers."""
    if not rows.size:
        return ""
    lo, hi = rows[0], rows[-1] + 1
    span = buf[starts[lo]:ends[hi - 1]].copy()
    heads = first[lo:hi]
    span[heads[buf[heads] != ord("\n")] - starts[lo]] = ord("#")
    span[first[rows] - starts[lo]] = ord(" ")
    return span.tobytes().decode("ascii", errors="replace")


def _read_triples(text: str, count: int, dtype: type) -> np.ndarray:
    """The (count, 3) numbers of the `count` records in `text` (see
    :func:`_records`), read by numpy's parser.

    Raises ValueError unless each record holds exactly three numbers of
    `dtype`, and the parser's warning (as an exception) when a record is
    empty or all comment.
    """
    if not count:
        return np.empty((0, 3), dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(text.split("\n"), dtype=dtype, comments="#", ndmin=2)
    if table.shape != (count, 3):
        raise ValueError(f"{count} records read as a {table.shape} table")
    return table


def _first_bad_record(path: str, lines: list[str], linenos: list[int]) -> MeshLoadError | None:
    """The error of the first of the `v` and `f` records on `linenos` that
    is malformed or holds a non-finite coordinate, or None."""
    for lineno in linenos:
        kind, *values = lines[lineno - 1].split("#", 1)[0].split()
        if kind == "v":
            if len(values) != 3:
                return MeshLoadError(f"{path}:{lineno}: vertex needs exactly 3 coordinates")
            try:
                coords = [float(t) for t in values]
            except ValueError as exc:
                return MeshLoadError(f"{path}:{lineno}: bad vertex coordinate: {exc}")
            if not all(map(math.isfinite, coords)):
                return MeshLoadError(f"{path}:{lineno}: vertex coordinate is not finite")
        else:
            if len(values) != 3:
                return MeshLoadError(f"{path}:{lineno}: only triangular faces are supported")
            try:
                for t in values:
                    int(t.split("/")[0])
            except ValueError as exc:
                return MeshLoadError(f"{path}:{lineno}: bad face index: {exc}")
    return None
