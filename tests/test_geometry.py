import math

import numpy as np
import pytest

from asterhover.errors import ConfigurationError, MeshLoadError
from asterhover.geometry import (
    MAX_SUBDIVISION_LEVEL,
    NUTATION_MAX,
    NUTATION_MIN,
    AsteroidDynRanges,
    AsteroidGenConfig,
    TriMesh,
    ellipsoid_rotation_params,
    face_normals,
    generate_icosphere,
    mesh_half_extents,
    save_mesh,
    synthesize_asteroid,
)
from geometry_reference import load_mesh, load_mesh_reference, make_peanut_mesh


def edge_counts(mesh: TriMesh) -> dict[tuple[int, int], int]:
    """Count how many faces reference each undirected edge."""
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in mesh.faces:
        for i, j in ((a, b), (b, c), (c, a)):
            key = (int(min(i, j)), int(max(i, j)))
            counts[key] = counts.get(key, 0) + 1
    return counts


def is_closed(mesh: TriMesh) -> bool:
    """True when every edge is shared by exactly two faces."""
    return all(n == 2 for n in edge_counts(mesh).values())


@pytest.mark.parametrize(
    "level,nv,nf",
    [(0, 12, 20), (1, 42, 80), (2, 162, 320), (3, 642, 1280)],
)
def test_icosphere_counts(level, nv, nf):
    mesh = generate_icosphere(level)
    assert mesh.num_vertices == nv
    assert mesh.num_faces == nf


def test_icosphere_unit_radius():
    mesh = generate_icosphere(3)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-12)


def test_icosphere_closed_and_outward():
    mesh = generate_icosphere(2)
    assert is_closed(mesh)
    # Euler characteristic of a sphere: V - E + F = 2.
    n_edges = len(edge_counts(mesh))
    assert mesh.num_vertices - n_edges + mesh.num_faces == 2
    normals = face_normals(mesh)
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    assert np.all(np.einsum("ij,ij->i", normals, centroids) > 0.0)


def test_icosphere_returns_fresh_copy():
    a = generate_icosphere(1)
    a.vertices *= 100.0
    b = generate_icosphere(1)
    assert np.max(np.linalg.norm(b.vertices, axis=1)) < 2.0


def test_icosphere_rejects_negative_level():
    with pytest.raises(ConfigurationError):
        generate_icosphere(-1)


def test_synthesize_deterministic():
    a = synthesize_asteroid(1234)
    b = synthesize_asteroid(1234)
    np.testing.assert_array_equal(a.mesh.vertices, b.mesh.vertices)
    np.testing.assert_array_equal(a.mesh.faces, b.mesh.faces)
    assert a.mass == b.mass
    assert a.spin_rate == b.spin_rate
    assert a.phase == b.phase
    np.testing.assert_array_equal(a.srp_accel, b.srp_accel)


def test_synthesize_respects_ranges():
    cfg = AsteroidGenConfig()
    dyn = AsteroidDynRanges()
    for seed in range(12):
        m = synthesize_asteroid(seed, cfg, dyn)
        assert is_closed(m.mesh)
        # Perturbation is bounded by p in each component, so the distance of
        # any vertex from the origin is at most axis_max * (1 + p*sqrt(3)).
        r = np.linalg.norm(m.mesh.vertices, axis=1)
        assert r.max() <= cfg.axis_max * (1.0 + cfg.perturbation_max * math.sqrt(3.0)) + 1e-9
        assert r.min() >= cfg.axis_min * (1.0 - cfg.perturbation_max * math.sqrt(3.0)) - 1e-9
        assert dyn.mass_min <= m.mass <= dyn.mass_max
        assert dyn.spin_min <= m.spin_rate <= dyn.spin_max
        assert NUTATION_MIN <= m.nutation <= NUTATION_MAX
        assert 0.0 <= m.phase < 2.0 * math.pi
        assert np.all(np.abs(m.srp_accel) <= dyn.srp_max)
        assert np.all(m.axes >= cfg.axis_min) and np.all(m.axes <= cfg.axis_max)
        assert m.gm == pytest.approx(6.674e-11 * m.mass, rel=1e-15)
        assert m.precession_rate == pytest.approx(
            m.sigma * m.spin_rate * math.cos(m.nutation), rel=1e-12
        )


def test_synthesize_octant_scaling():
    # With zero perturbation the vertices sit exactly on the per-octant
    # scaled sphere, so the extreme coordinates recover the half-axes.
    cfg = AsteroidGenConfig(perturbation_min=0.0, perturbation_max=0.0)
    m = synthesize_asteroid(77, cfg)
    rng = np.random.default_rng(77)
    rng.uniform(0.0, 0.0)  # roughness draw
    half_axes = rng.uniform(cfg.axis_min, cfg.axis_max, size=6)
    v = m.mesh.vertices
    # The icosphere has vertices exactly on each coordinate axis pole only at
    # level 0; at level 2 use the support along each direction instead.
    assert v[:, 0].max() == pytest.approx(half_axes[0], rel=1e-12)
    assert -v[:, 0].min() == pytest.approx(half_axes[1], rel=1e-12)
    assert v[:, 1].max() == pytest.approx(half_axes[2], rel=1e-12)
    assert -v[:, 1].min() == pytest.approx(half_axes[3], rel=1e-12)
    assert v[:, 2].max() == pytest.approx(half_axes[4], rel=1e-12)
    assert -v[:, 2].min() == pytest.approx(half_axes[5], rel=1e-12)
    np.testing.assert_allclose(m.axes, 0.5 * (half_axes[0::2] + half_axes[1::2]))


def test_synthesize_rejects_bad_ranges():
    with pytest.raises(ConfigurationError):
        synthesize_asteroid(0, AsteroidGenConfig(axis_min=600.0, axis_max=300.0))
    with pytest.raises(ConfigurationError):
        synthesize_asteroid(0, dyn=AsteroidDynRanges(mass_min=0.0))
    with pytest.raises(ConfigurationError):
        synthesize_asteroid(0, AsteroidGenConfig(perturbation_min=0.2, perturbation_max=0.1))


def test_subdivision_level_is_bounded_by_the_facet_count():
    # level 7 holds 327680 facets; each further level quadruples them
    assert MAX_SUBDIVISION_LEVEL == 7
    for level in (0, MAX_SUBDIVISION_LEVEL):
        AsteroidGenConfig(subdivision_level=level).validate()
    for level in (-1, MAX_SUBDIVISION_LEVEL + 1, 1000000, 10**400):
        with pytest.raises(ConfigurationError, match=r"subdivision_level must be in \[0, 7\]"):
            AsteroidGenConfig(subdivision_level=level).validate()


def test_ellipsoid_rotation_params_known_values():
    ratio, sigma = ellipsoid_rotation_params(500.0, 400.0, 300.0)
    assert ratio == pytest.approx(0.6097560975609756, rel=1e-12)
    assert sigma == pytest.approx(0.64, rel=1e-12)
    # Oblate-ish case: b = c = a/2.
    ratio, sigma = ellipsoid_rotation_params(400.0, 200.0, 200.0)
    assert ratio == pytest.approx(0.4, rel=1e-12)
    assert sigma == pytest.approx(1.5, rel=1e-12)
    # Sphere: no asymmetry, no precession.
    ratio, sigma = ellipsoid_rotation_params(350.0, 350.0, 350.0)
    assert ratio == pytest.approx(1.0, rel=1e-15)
    assert sigma == pytest.approx(0.0, abs=1e-15)


def test_ellipsoid_rotation_params_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        ellipsoid_rotation_params(0.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        ellipsoid_rotation_params(1.0, -2.0, 1.0)


def test_mesh_roundtrip(tmp_path):
    mesh = synthesize_asteroid(5).mesh
    path = tmp_path / "roid.obj"
    save_mesh(str(path), mesh)
    loaded = load_mesh(str(path))
    np.testing.assert_array_equal(loaded.faces, mesh.faces)
    np.testing.assert_array_equal(loaded.vertices, mesh.vertices)


def test_mesh_load_scale(tmp_path):
    mesh = generate_icosphere(0)
    path = tmp_path / "unit.obj"
    save_mesh(str(path), mesh)
    scaled = load_mesh(str(path), scale=250.0)
    np.testing.assert_allclose(np.linalg.norm(scaled.vertices, axis=1), 250.0)
    with pytest.raises(ConfigurationError):
        load_mesh(str(path), scale=0.0)


def test_mesh_load_ignores_comments_and_other_records(tmp_path):
    path = tmp_path / "misc.obj"
    path.write_text(
        "# header comment\n"
        "o thing\n"
        "v 0 0 0\n"
        "v 1 0 0  # trailing comment\n"
        "v 0 1 0\n"
        "vn 0 0 1\n"
        "f 1 2 3\n"
    )
    mesh = load_mesh(str(path))
    assert mesh.num_vertices == 3
    assert mesh.num_faces == 1
    np.testing.assert_array_equal(mesh.faces[0], [0, 1, 2])


def test_mesh_load_slash_indices(tmp_path):
    path = tmp_path / "slash.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
    mesh = load_mesh(str(path))
    np.testing.assert_array_equal(mesh.faces[0], [0, 1, 2])


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("v 0 0\nf 1 1 1\n", "exactly 3"),
        ("v 0 0 zero\n", "bad vertex"),
        ("v 0 0 0\nv 1 0 0\nv nan 1 0\nf 1 2 3\n", r"bad\.obj:3: vertex coordinate is not finite"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 1\n", "triangular"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "outside 1..3"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", "outside 1..3"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf a b c\n", "bad face"),
        ("# nothing here\n", "no vertices"),
        ("v 0 0 0\n", "no faces"),
    ],
)
def test_mesh_load_errors(tmp_path, body, fragment):
    path = tmp_path / "bad.obj"
    path.write_text(body)
    with pytest.raises(MeshLoadError, match=fragment):
        load_mesh(str(path))


def test_mesh_load_error_reports_line_number(tmp_path):
    path = tmp_path / "lined.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 99\n")
    with pytest.raises(MeshLoadError, match=":5:"):
        load_mesh(str(path))


HAND_WRITTEN_OBJ = {
    "comments_and_records": (
        "# header\no thing\nv 0 0 0\nv 1 0 0  # trailing\nvn 0 0 1\nvt 0.5 0.5\n"
        "g group\ns off\nv 0 1 0\nusemtl x\nv 1 1 1#tight\n\n   \nf 1 2 3\nf 2 4 3 # c\n"
    ),
    "slash_indices": "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1/1/1 2/2/2 3/3/3\nf 2//4 4//4 3//1\nf 2/ 4/7 3\n",
    "crlf_tabs_indent": (
        "# crlf\r\nv\t0.5\t-1\t2\r\n  v 1 0 0\r\n\tv  0 1   0 \r\n \t f\t1 2 3\r\nf 3 2 1\r\n"
    ),
    "exponents": (
        "v 1e3 -2.5E-4 +3.0e+2\nv .5 -0. 1.\nv 6.02214076e23 1e-310 -7E0\n"
        "v 0.1 0.30000000000000004 1.7976931348623157e308\nf 1 2 3\nf 2 3 4\nf +1 03 4\n"
    ),
    "interleaved_blocks": (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nv 1 1 0\nf 2 4 3\n# mid\nv 2 1 0\nv 2 2 0\n"
        "f 4 5 6\nf 2 5 4\n\nv 0 2 1\nf 3 6 7\n"
    ),
    "no_final_newline": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 3 2 1 # last",
    "no_final_newline_vertex": "f 1 2 3\nv 0 0 0\nv 1 0 0\nv 0 1 0",
    "vertices_after_faces": "# faces first\nf 1 2 3\nf 2 4 3\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n",
    "look_alikes": (
        "v 0 0 0\nvn 0 0 1\nvt 0.5 0.5\nv 1 0 0\nfo 1 2 3\nf1 2 3\nvp 1\nv 0 1 0\nfoo bar\n"
        "f 1 2 3\nv\t1 1 1\nff 1\nvx 1 2\nf 2 4 3\n"
    ),
    "indented_records": (
        "\tv 0 0 0\n  v 1 0 0\n \t v 0 1 0\n\t\tf 1 2 3\n    f 3 2 1 # c\n\t# v 9 9 9\n"
        "  vn 1 1 1\n\x0cv\x0b1 1 1\n \n\t\n f\t2\t4\t3\n"
    ),
    "cr_newlines": "v 0 0 0\rv 1 0 0\r\nv 0 1 0\r\rf 1 2 3\r",
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN_OBJ))
def test_bulk_reader_matches_per_line_reference(tmp_path, name):
    path = tmp_path / f"{name}.obj"
    path.write_bytes(HAND_WRITTEN_OBJ[name].encode("ascii"))
    want = load_mesh_reference(str(path))
    got = load_mesh(str(path))
    assert got.vertices.tobytes() == want.vertices.tobytes()
    np.testing.assert_array_equal(got.faces, want.faces)
    assert got.faces.dtype == want.faces.dtype


@pytest.mark.parametrize("source", ["level2", "level5", "peanut"])
def test_bulk_reader_matches_per_line_reference_on_saved_meshes(tmp_path, source):
    if source == "peanut":
        mesh = make_peanut_mesh(level=3)
    else:
        mesh = synthesize_asteroid(9, AsteroidGenConfig(subdivision_level=int(source[-1]))).mesh
    path = tmp_path / "saved.obj"
    save_mesh(str(path), mesh)
    for scale in (1.0, 3.0):
        want = load_mesh_reference(str(path), scale)
        got = load_mesh(str(path), scale)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        np.testing.assert_array_equal(got.faces, want.faces)


@pytest.mark.parametrize(
    "body",
    [
        "v 0 0 0\nv 1 0 0\nf 1 2 x\nv 0 0 zero\n",      # the earlier line wins
        "v 0 0 zero\nf 1 2 x\n",
        "v 0 0 zero\n",                                 # not "no faces"
        "v # no coordinates\nf 1 2 3\n",
        "v 0 0 0\nf # no indices\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf /3 1 2\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1.0 2 3\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 inf\nf 1 2 9\n",     # non-finite before the index range
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 3 4\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 4 2 3\nf 1 0 2\n",
        "v 1 2 3 4\n",
        "f 1 2 3\n",
        "",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/2#c 2 3\n",      # a slash index ends at a comment
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n  f # empty\nf 3 2 1\n",
        "v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\nv 0 0\n",   # a short vertex after the faces
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 4",    # a bad index on the unterminated last line
        "v 0 0 0\nv#x 1 2 3\nv 0 1 0\nf 1 2 3\n",        # a record type ended by a comment
    ],
)
def test_bulk_reader_errors_match_per_line_reference(tmp_path, body):
    path = tmp_path / "bad.obj"
    path.write_text(body)
    with pytest.raises(MeshLoadError) as want:
        load_mesh_reference(str(path))
    with pytest.raises(MeshLoadError) as got:
        load_mesh(str(path))
    assert str(got.value) == str(want.value)


def test_bulk_reader_matches_per_line_reference_past_undecodable_bytes(tmp_path):
    # a byte outside ASCII is read as the replacement character: harmless
    # in a comment or an ignored record, an error in a record, and not the
    # blank that ends a record type
    path = tmp_path / "latin.obj"
    path.write_bytes(b"# caf\xe9\no \xff\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    want = load_mesh_reference(str(path))
    got = load_mesh(str(path))
    assert got.vertices.tobytes() == want.vertices.tobytes()
    np.testing.assert_array_equal(got.faces, want.faces)
    for body in (b"v 0 0 0\xe9\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", b"v 0 0 0\nv 1 0 0\nv\xa00 1 0\nf 1 2 3\n"):
        path.write_bytes(body)
        with pytest.raises(MeshLoadError) as want_err:
            load_mesh_reference(str(path))
        with pytest.raises(MeshLoadError) as got_err:
            load_mesh(str(path))
        assert str(got_err.value) == str(want_err.value)


@pytest.mark.parametrize(
    "body", ["v 1_0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n"]
)
def test_mesh_load_refuses_what_numpy_cannot_read(tmp_path, body):
    # Digit-group underscores and indices beyond int64 pass Python's int()
    # and float(), which the per-line reader used.
    path = tmp_path / "odd.obj"
    path.write_text(body)
    with pytest.raises(MeshLoadError, match="odd.obj: could not convert"):
        load_mesh(str(path))


def test_peanut_mesh_shape():
    mesh = make_peanut_mesh(level=2)
    assert is_closed(mesh)
    ext = mesh_half_extents(mesh)
    assert ext[0] > ext[1] > ext[2]  # elongated then flattened
    assert ext[0] == pytest.approx(267.0, rel=0.02)
    # Waist: radius near the y-z plane stays near waist_radius.
    near_waist = np.abs(mesh.vertices[:, 0]) < 20.0
    r = np.linalg.norm(mesh.vertices[near_waist], axis=1)
    assert r.max() < 160.0


def test_mesh_half_extents():
    mesh = TriMesh(
        vertices=np.array([[-2.0, 0.0, 1.0], [4.0, 2.0, -3.0], [0.0, -2.0, 0.0]]),
        faces=np.array([[0, 1, 2]]),
    )
    np.testing.assert_allclose(mesh_half_extents(mesh), [3.0, 2.0, 2.0])
