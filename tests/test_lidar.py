import math

import numpy as np
import pytest

from asterhover.dynamics import quat_from_axis_angle, quat_to_dcm
from asterhover.env import EpisodeConfig, sample_initial_conditions
from asterhover.errors import ConfigurationError
from asterhover.geometry import (
    AsteroidGenConfig,
    TriMesh,
    generate_icosphere,
    synthesize_asteroid,
)
from asterhover.lidar import (
    BALL_FRACTION,
    LidarFrame,
    PreparedMesh,
    LaneMeshes,
    SensorConfig,
    apply_sensor_noise,
    beam_cone,
    beam_directions,
    cast_rays,
    crossing_count,
    rotated_beams,
    scan,
)
from geometry_reference import make_peanut_mesh
from lidar_reference import (
    cast_ray,
    cast_rays_reference,
    prepared_mesh_reference,
    ray_triangle_intersect,
)

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def scan_at(mesh, position, q, cfg):
    """A scan of `mesh` with the platform at quaternion attitude `q`."""
    return scan(PreparedMesh(mesh), position, rotated_beams(cfg, quat_to_dcm(q)), cfg)


def lone_pairs(prep, origin, dirs):
    """The pairs a lone cast of `dirs` from `origin` runs the kernel on, as
    cast_rays builds them (a ball of radius 0): each one's ray, v0, edge1,
    edge2, pvec and det."""
    lanes = LaneMeshes([prep], dirs[None])
    lanes._build_pairs(0, origin, 0.0)
    return lanes._ball_pairs[0]


def paired_facets(pairs):
    """The number of distinct facets among `pairs`, told by their (v0,
    edge1) rows."""
    return np.unique(np.hstack(pairs[1:3]), axis=0).shape[0]


def paired_lanes(lanes):
    """Whether each lane of `lanes` holds any cached pair."""
    return [pairs[0].size > 0 for pairs in lanes._ball_pairs]


def plane_mesh(z0: float, half_size: float = 5000.0) -> TriMesh:
    """Two triangles spanning a square at height z0, normals +z."""
    L = half_size
    verts = np.array(
        [[-L, -L, z0], [L, -L, z0], [L, L, z0], [-L, L, z0]], dtype=np.float64
    )
    faces = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64)
    return TriMesh(verts, faces)


def sphere_mesh(radius: float, level: int = 4) -> TriMesh:
    mesh = generate_icosphere(level)
    mesh.vertices *= radius
    return mesh


# --------------------------------------------------------------------------
# Single-triangle intersection


def test_triangle_hit_distance():
    tri = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    t = ray_triangle_intersect(np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, -1.0]), tri)
    assert t == pytest.approx(5.0, rel=1e-14)


def test_triangle_miss_outside():
    tri = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    assert ray_triangle_intersect(np.array([5.0, 5.0, 5.0]), np.array([0.0, 0.0, -1.0]), tri) is None


def test_triangle_backface_culled():
    tri = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    # Approaching from below hits the back side (normal is +z).
    origin = np.array([0.0, 0.0, -5.0])
    direction = np.array([0.0, 0.0, 1.0])
    assert ray_triangle_intersect(origin, direction, tri) is None
    assert ray_triangle_intersect(origin, direction, tri, cull_backface=False) == pytest.approx(5.0)


def test_triangle_parallel_and_degenerate():
    tri = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    assert ray_triangle_intersect(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), tri) is None
    sliver = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    assert ray_triangle_intersect(np.array([0.5, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), sliver) is None


def test_triangle_behind_origin():
    tri = np.array([[-1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
    assert ray_triangle_intersect(np.array([0.0, 0.0, -5.0]), np.array([0.0, 0.0, -1.0]), tri) is None


# --------------------------------------------------------------------------
# Batch casting


def test_cast_rays_matches_scalar_path(rng):
    mesh = synthesize_asteroid(11).mesh
    origin = np.array([0.0, 0.0, 1200.0])
    dirs = rng.standard_normal((40, 3))
    dirs[:, 2] -= 2.0  # bias toward the body
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ranges, hit = cast_rays(PreparedMesh(mesh), origin, dirs)
    for k in range(40):
        best = np.inf
        for face in mesh.faces:
            t = ray_triangle_intersect(origin, dirs[k], mesh.vertices[face])
            if t is not None and t < best:
                best = t
        if best < 2000.0:
            assert hit[k]
            assert ranges[k] == pytest.approx(best, rel=1e-12)
        else:
            assert not hit[k]
            assert ranges[k] == 2000.0


def test_sphere_range_oracle():
    # A finely subdivided icosphere approximates the analytic sphere chord.
    R = 300.0
    prep = PreparedMesh(sphere_mesh(R, level=4))
    origin = np.array([0.0, 0.0, 1000.0])
    t = cast_ray(prep, origin, np.array([0.0, 0.0, -1.0]))
    assert t == pytest.approx(700.0, rel=2e-3)
    # Mesh hit can only be at or beyond the true sphere surface (faces are
    # chords, inside the sphere).
    assert t >= 700.0 - 1e-9


def test_inside_sphere_is_all_backface(rng):
    prep = PreparedMesh(sphere_mesh(200.0, level=2))
    for _ in range(25):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        t = cast_ray(prep, np.array([10.0, -5.0, 8.0]), d)
        assert t == 2000.0
    # But the surface is geometrically there: every ray crosses it.
    for _ in range(25):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        assert crossing_count(prep, np.array([10.0, -5.0, 8.0]), d) % 2 == 1


def test_outside_crossings_even(rng):
    # Generic offset keeps the ray away from exact vertices and edges, where
    # boundary-inclusive crossing counts would double-count.
    prep = PreparedMesh(sphere_mesh(200.0, level=2))
    origin = np.array([50.0, 30.0, 800.0])
    assert crossing_count(prep, origin, np.array([0.0, 0.0, -1.0])) == 2
    assert crossing_count(prep, origin, np.array([0.0, 0.0, 1.0])) == 0


def test_occlusion_monotone(rng):
    # Adding geometry can only shorten (or keep) the returned range.
    base = synthesize_asteroid(21).mesh
    origin = np.array([0.0, 0.0, 1100.0])
    dirs = rng.standard_normal((30, 3))
    dirs[:, 2] -= 1.5
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r0, _ = cast_rays(PreparedMesh(base), origin, dirs)

    blocker = plane_mesh(900.0, half_size=400.0)
    merged = TriMesh(
        np.vstack([base.vertices, blocker.vertices]),
        np.vstack([base.faces, blocker.faces + base.num_vertices]),
    )
    r1, _ = cast_rays(PreparedMesh(merged), origin, dirs)
    assert np.all(r1 <= r0 + 1e-12)


def test_miss_is_exactly_max_range():
    prep = PreparedMesh(sphere_mesh(100.0))
    ranges, hit = cast_rays(prep, np.array([0.0, 0.0, 500.0]), np.array([[0.0, 0.0, 1.0]]))
    assert not hit[0]
    assert ranges[0] == 2000.0


def test_surface_beyond_max_range_reads_miss():
    prep = PreparedMesh(plane_mesh(0.0))
    origin = np.array([0.0, 0.0, 2500.0])
    down = np.array([[0.0, 0.0, -1.0]])
    ranges, hit = cast_rays(prep, origin, down)
    assert not hit[0] and ranges[0] == 2000.0
    # Exactly at the boundary: a hit needs t strictly below max_range.
    origin = np.array([0.0, 0.0, 2000.0])
    ranges, hit = cast_rays(prep, origin, down)
    assert not hit[0] and ranges[0] == 2000.0
    origin = np.array([0.0, 0.0, 1999.9])
    ranges, hit = cast_rays(prep, origin, down)
    assert hit[0] and ranges[0] == pytest.approx(1999.9)


# --------------------------------------------------------------------------
# Candidate-facet pre-pass: bit-identical to the brute-force reference


def body_mesh(name):
    if name == "peanut":
        return make_peanut_mesh()
    if name == "sphere":  # criterion 2's sphere
        return sphere_mesh(300.0, level=4)
    level = int(name[-1])
    return synthesize_asteroid(100 + level, AsteroidGenConfig(subdivision_level=level)).mesh


@pytest.fixture(scope="module", params=["level2", "level3", "level5", "peanut", "sphere"])
def body(request):
    return PreparedMesh(body_mesh(request.param))


@pytest.mark.parametrize("name", ["level2", "level3", "level5", "peanut"])
def test_prepared_mesh_matches_reference(name):
    # Every field bit for bit: the kernel's rows stay C-contiguous (F, 3),
    # the facet test's centroid and normal are the reference's transposed,
    # and bound_radius, which sets surface_radius's cast origin, stays the
    # largest per-vertex np.linalg.norm.
    mesh = body_mesh(name)
    prep, want = PreparedMesh(mesh), prepared_mesh_reference(mesh)
    F = mesh.num_faces
    assert prep.num_faces == F
    assert type(prep.bound_radius) is float and prep.bound_radius == want["bound_radius"]
    layouts = {"v0": (F, 3), "edge1": (F, 3), "edge2": (F, 3), "centroid": (3, F),
               "normal": (3, F), "radius": (F,), "normal_len": (F,)}
    for field, shape in layouts.items():
        got, ref = getattr(prep, field), want[field]
        if shape == (3, F):
            ref = ref.T
        assert got.shape == shape and got.flags.c_contiguous, field
        assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), field


def assert_matches_reference(prep, origin, dirs, max_range=2000.0):
    ranges, hit = cast_rays(prep, origin, dirs, max_range)
    ref_ranges, ref_hit = cast_rays_reference(prep, origin, dirs, max_range)
    assert ranges.tobytes() == ref_ranges.tobytes()
    assert hit.tobytes() == ref_hit.tobytes()
    return ref_ranges, ref_hit


def random_beams(rng):
    """The 64 sensor beams at a random attitude, (64, 3)."""
    q = quat_from_axis_angle(rng.standard_normal(3), rng.uniform(0.0, 2.0 * math.pi))
    return beam_directions(SensorConfig()).reshape(-1, 3) @ quat_to_dcm(q).T


def scan_positions(prep, count, seed):
    """(position, beams) pairs from the environment's initial-condition draw."""
    rng = np.random.default_rng(seed)
    cfg = EpisodeConfig()
    beams = beam_directions(cfg.sensor).reshape(-1, 3)
    out = []
    for _ in range(10 * count):
        state = sample_initial_conditions(rng, cfg, prep)
        if state is not None:
            out.append((state.position, beams @ quat_to_dcm(state.attitude).T))
    assert len(out) >= count
    return out[:count]


def test_prepass_matches_reference_at_scan_positions(body):
    hits = 0
    for position, dirs in scan_positions(body, 6, seed=1):
        _, hit = assert_matches_reference(body, position, dirs)
        hits += int(hit.sum())
        for k in (0, 27, 63):  # single rays, as (1, 3)
            assert_matches_reference(body, position, dirs[k : k + 1])
        # The pre-pass must actually cull: a sensor cone sees a small share.
        assert paired_facets(lone_pairs(body, position, dirs)) < 0.5 * body.num_faces
    assert hits > 0


def test_prepass_matches_reference_inside_body(body, rng):
    inner = 0.1 * np.min(np.linalg.norm(body.v0, axis=1))
    # Level-5 synthesized bodies have folded facets that face the center.
    folded = bool(np.any(np.einsum("kf,kf->f", body.centroid, body.normal) < 0.0))
    for _ in range(4):
        u = rng.standard_normal(3)
        origin = inner * rng.uniform() * u / np.linalg.norm(u)
        _, hit = assert_matches_reference(body, origin, random_beams(rng))
        assert folded or not hit.any()  # every beam meets a back face
        d = rng.standard_normal(3)
        _, hit = assert_matches_reference(body, origin, (d / np.linalg.norm(d))[None])
        assert folded or not hit[0]


def test_prepass_matches_reference_far_single_rays(body, rng):
    # The surface_radius cast: inward from well outside, one ray.
    cast_from = 2.0 * body.bound_radius + 100.0
    hits = 0
    for _ in range(30):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        _, hit = assert_matches_reference(body, cast_from * u, -u[None, :], max_range=2.0 * cast_from)
        hits += int(hit[0])
    assert hits == 30


def test_prepass_matches_reference_near_facet_planes(body, rng):
    # Origins on a facet's plane (its centroid, or a point of the plane
    # beyond one of its corners) and just in front of or behind it, with
    # beams toward the body and rays skimming the plane.
    for f in rng.choice(body.num_faces, size=3, replace=False):
        c = body.centroid[:, f]
        n = body.normal[:, f] / body.normal_len[f]
        in_plane = body.edge1[f] / np.linalg.norm(body.edge1[f])
        beyond_corner = c + 2.0 * (body.v0[f] - c)
        for base in (c, beyond_corner):
            for h in (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3):
                origin = base + h * np.linalg.norm(c) * n
                assert_matches_reference(body, origin, random_beams(rng))
                skim = np.array([in_plane + eps * n for eps in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3)])
                skim = np.vstack([skim, -skim])
                assert_matches_reference(body, origin, skim / np.linalg.norm(skim, axis=1)[:, None])


@pytest.mark.parametrize("body", ["level5"], indirect=True)
def test_prepass_matches_reference_high_altitude(body, rng):
    # Boresight at the body centre from 60 m above the bounding sphere: the
    # cone keeps about a thousand facets, most of whose (ray, facet) pairs
    # the per-ray test and the det test then drop, leaving hundreds.
    beams = beam_directions(SensorConfig()).reshape(-1, 3)
    for _ in range(4):
        up = rng.standard_normal(3)
        up /= np.linalg.norm(up)
        side = np.cross(up, rng.standard_normal(3))
        side /= np.linalg.norm(side)
        dirs = beams @ np.column_stack([side, np.cross(up, side), up]).T
        origin = (body.bound_radius + 60.0) * up
        assert 500 <= lone_pairs(body, origin, dirs)[0].size <= 3000
        _, hit = assert_matches_reference(body, origin, dirs)
        assert hit.all()
        for k in (0, 27, 63):
            assert_matches_reference(body, origin, dirs[k : k + 1])


def test_prepass_matches_reference_at_max_range(body):
    position, dirs = scan_positions(body, 1, seed=2)[0]
    ranges, hit = cast_rays_reference(body, position, dirs)
    k = np.flatnonzero(hit)[hit.sum() // 2]  # a beam with a middling range
    edge = float(ranges[k])
    for max_range in (edge, np.nextafter(edge, np.inf), np.nextafter(edge, 0.0), 0.5 * edge):
        assert_matches_reference(body, position, dirs, max_range)
        assert_matches_reference(body, position, dirs[k : k + 1], max_range)
    # A beam whose surface sits exactly at max_range reads as a miss, one
    # ulp further out it is a hit.
    assert not assert_matches_reference(body, position, dirs[k : k + 1], edge)[1][0]
    assert assert_matches_reference(body, position, dirs[k : k + 1], np.nextafter(edge, np.inf))[1][0]


@pytest.fixture(scope="module")
def lane_bodies():
    """Four 320-facet bodies, one per lane."""
    return [PreparedMesh(synthesize_asteroid(200 + k).mesh) for k in range(4)]


def test_lane_cast_matches_per_lane_cast_rays(lane_bodies):
    # Lanes with their own bodies, positions and beams; lane 1 finished
    # (masked), lane 3 looking away from its body, so no facet is kept.
    live = np.array([True, False, True, True])
    views = [scan_positions(prep, 5, seed=k) for k, prep in enumerate(lane_bodies)]
    hits = 0
    for step in range(5):
        origins = np.array([view[step][0] for view in views])
        beams = np.array([view[step][1] for view in views])
        beams[3] = -beams[3]
        lanes = LaneMeshes(lane_bodies, beams)
        ranges, hit = lanes.cast(origins, live)
        assert paired_lanes(lanes) == [True, False, True, False]
        assert ranges.shape == hit.shape == (4, 64)
        for k in np.flatnonzero(live):
            want_ranges, want_hit = cast_rays(lane_bodies[k], origins[k], beams[k])
            assert ranges[k].tobytes() == want_ranges.tobytes()
            assert hit[k].tobytes() == want_hit.tobytes()
            ref_ranges, _ = cast_rays_reference(lane_bodies[k], origins[k], beams[k])
            assert ranges[k].tobytes() == ref_ranges.tobytes()
        hits += int(hit[[0, 2]].sum())
        assert not hit[[1, 3]].any()
        np.testing.assert_array_equal(ranges[[1, 3]], 2000.0)
    assert hits > 0


def sphere_gap(prep, origin):
    """Distance from `origin` to the nearest facet bounding sphere."""
    return float(np.min(np.linalg.norm(prep.centroid - origin[:, None], axis=0) - prep.radius))


def plane_crossing(prep, casts):
    """A path across the plane of one facet, from behind it to in front,
    with 64 rays that descend onto the facet from in front.

    The path lies on the facet's plane extended beyond a corner, where the
    origin keeps a positive gap to every bounding sphere, so the lane has a
    ball; it moves 0.3 of that gap in all, so the ball is rebuilt near the
    crossing and then serves casts from the far side of the plane.
    """
    for f in np.argsort(-prep.centroid[2]):
        c = prep.centroid[:, f]
        origin = c + 4.0 * (prep.v0[f] - c)
        gap = sphere_gap(prep, origin)
        if gap > 0.25 * np.linalg.norm(prep.v0[f] - c):
            break
    else:
        pytest.fail("no facet plane to cross outside the bounding spheres")
    n = prep.normal[:, f] / prep.normal_len[f]
    path = origin + np.linspace(-0.15, 0.15, casts)[:, None] * gap * n
    toward = (c - origin) / np.linalg.norm(c - origin)
    side = np.cross(n, toward)
    tilts = np.logspace(-4.0, -0.5, 16)
    beams = np.array([
        toward + lateral * side - tilt * n for tilt in tilts for lateral in (-0.1, -0.03, 0.0, 0.03)
    ])
    return path, beams / np.linalg.norm(beams, axis=1, keepdims=True)


def count_rebuilds(monkeypatch):
    """Record (LaneMeshes, lane) for every ball rebuilt from here on."""
    rebuilt = []
    build = LaneMeshes._build_pairs

    def counting_build(self, lane, origin, fraction):
        rebuilt.append((self, lane))
        return build(self, lane, origin, fraction)

    monkeypatch.setattr(LaneMeshes, "_build_pairs", counting_build)
    return rebuilt


def assert_lanes_match_reference(meshes, origins, beams, live, ranges, hit):
    for k in np.flatnonzero(live):
        ref_ranges, ref_hit = cast_rays_reference(meshes[k], origins[k], beams[k])
        assert ranges[k].tobytes() == ref_ranges.tobytes()
        assert hit[k].tobytes() == ref_hit.tobytes()
    np.testing.assert_array_equal(ranges[~live], 2000.0)
    assert not hit[~live].any()


@pytest.mark.parametrize("body", ["level2", "level3", "level5", "peanut"], indirect=True)
def test_candidate_balls_match_reference_along_paths(body, rng, monkeypatch):
    # Five lanes fly through one persistent LaneMeshes, as in a rollout:
    # 0 drifts at a constant velocity; 1 thrusts toward the facet nearest its
    # start and ends inside that facet's bounding sphere, where its ball
    # has radius 0; 2 drifts and finishes half way; 3 drifts looking away
    # from the body, so it keeps no facet; 4 crosses a facet's plane.
    casts = 20 if body.num_faces > 5000 else 40
    rebuilt = count_rebuilds(monkeypatch)
    starts = scan_positions(body, 4, seed=3)
    t = np.arange(casts)[:, None] / (casts - 1)
    paths, beams = [], []
    for k, (start, dirs) in enumerate(starts):
        if k == 1:
            f = np.argmin(np.linalg.norm(body.centroid - start[:, None], axis=0))
            inside = body.centroid[:, f] + 0.5 * body.radius[f] * body.normal[:, f] / body.normal_len[f]
            paths.append(start + t**2 * (inside - start))
        else:  # sideways to the beams, 0.03 of the gap per cast
            step = np.cross(beam_cone(dirs)[0], rng.standard_normal(3))
            step *= 0.03 * sphere_gap(body, start) / np.linalg.norm(step)
            paths.append(start + t * (casts - 1) * step)
        beams.append(-dirs if k == 3 else dirs)
    path, crossing_beams = plane_crossing(body, casts)
    paths.append(path)
    beams.append(crossing_beams)
    paths, beams = np.stack(paths, axis=1), np.array(beams)           # (casts, 5, 3), (5, 64, 3)
    assert sphere_gap(body, paths[-1, 1]) < 0.0

    lanes = LaneMeshes([body] * 5, beams)
    hits = np.zeros(5, dtype=int)
    for step, origins in enumerate(paths):
        live = np.array([True, True, step < casts // 2, True, True])
        ranges, hit = lanes.cast(origins, live)
        assert not paired_lanes(lanes)[3]
        for k in np.flatnonzero(live):
            want_ranges, want_hit = cast_rays(body, origins[k], beams[k])
            ref_ranges, ref_hit = cast_rays_reference(body, origins[k], beams[k])
            assert ranges[k].tobytes() == want_ranges.tobytes() == ref_ranges.tobytes()
            assert hit[k].tobytes() == want_hit.tobytes() == ref_hit.tobytes()
        np.testing.assert_array_equal(ranges[~live], 2000.0)
        hits += hit.sum(axis=1)
    assert hits[[0, 1, 2, 4]].all() and hits[3] == 0
    # The drift lane's ball is rebuilt, but not at every cast.
    assert 1 < rebuilt.count((lanes, 0)) < casts


@pytest.mark.parametrize("body", ["level2", "level5", "peanut"], indirect=True)
def test_cached_pairs_match_reference_at_the_ball_edge(body, rng, monkeypatch):
    # Casts from rho / 2 off a ball's centre, the farthest a lane flies on
    # its cached pairs, toward and away from the body, along the beams and
    # sideways.
    rebuilt = count_rebuilds(monkeypatch)
    live = np.ones(1, dtype=bool)
    for centre, dirs in scan_positions(body, 3, seed=4):
        up = centre / np.linalg.norm(centre)
        side = np.cross(up, rng.standard_normal(3))
        side /= np.linalg.norm(side)
        for u in (up, -up, side, -side, np.cross(up, side), beam_cone(dirs)[0]):
            lanes = LaneMeshes([body], dirs[None])
            lanes.cast(centre[None], live)
            reach = lanes._ball_reach[0]                    # (rho / 2)**2
            assert 0.0 < reach <= np.square(0.5 * BALL_FRACTION * sphere_gap(body, centre)) * (1 + 1e-12)
            # The farthest origin along u that the staleness test still
            # accepts, found ulp by ulp from rho / 2.
            half = step = math.sqrt(reach)
            while True:
                origin = centre + step * u
                offset = origin - centre
                if np.einsum("lk,lk->l", offset[None], offset[None])[0] <= reach:
                    break
                step = np.nextafter(step, 0.0)
            assert step > half * (1.0 - 1e-12)
            before = len(rebuilt)
            ranges, hit = lanes.cast(origin[None], live)
            assert len(rebuilt) == before                   # served from the cached pairs
            assert_lanes_match_reference([body], origin[None], dirs[None], live, ranges, hit)


def test_thirty_lane_drift_matches_reference(rng, monkeypatch):
    # A training batch's width: 30 lanes over their own 320-facet bodies,
    # each drifting sideways to its beams at its own share of its starting
    # gap per cast, and finishing after its own number of casts, some half
    # way.
    casts, L = 24, 30
    rebuilt = count_rebuilds(monkeypatch)
    bodies = [PreparedMesh(synthesize_asteroid(300 + k).mesh) for k in range(L)]
    starts = [scan_positions(body, 1, seed=k)[0] for k, body in enumerate(bodies)]
    beams = np.array([dirs for _, dirs in starts])
    steps = []
    for body, (start, dirs) in zip(bodies, starts):
        step = np.cross(beam_cone(dirs)[0], rng.standard_normal(3))
        share = rng.uniform(0.005, 0.03)
        steps.append(share * sphere_gap(body, start) * step / np.linalg.norm(step))
    finish = rng.integers(casts // 4, casts + 1, size=L)
    finish[:2] = casts // 2, casts
    lanes = LaneMeshes(bodies, beams)
    del rebuilt[:]  # the lone casts of scan_positions
    partial = 0
    for n in range(casts):
        origins = np.array([start + n * step for (start, _), step in zip(starts, steps)])
        live = n < finish
        before = len(rebuilt)
        ranges, hit = lanes.cast(origins, live)
        partial += 0 < len(rebuilt) - before < live.sum()
        assert_lanes_match_reference(bodies, origins, beams, live, ranges, hit)
    # Casts that rebuild some live lanes and serve the others from their
    # cached pairs.
    assert partial > 0
    assert len(rebuilt) < casts * L // 2


def test_lanes_with_different_facet_counts_match_reference(rng):
    # A 320-facet body, a 1280-facet body and the 1280-facet peanut in one
    # LaneMeshes, each lane drifting sideways to its beams, the middle one
    # finishing half way.
    casts = 12
    bodies = [
        PreparedMesh(synthesize_asteroid(400 + level, AsteroidGenConfig(subdivision_level=level)).mesh)
        for level in (2, 3)
    ] + [PreparedMesh(make_peanut_mesh())]
    assert [body.num_faces for body in bodies] == [320, 1280, 1280]
    starts = [scan_positions(body, 1, seed=k)[0] for k, body in enumerate(bodies)]
    beams = np.array([dirs for _, dirs in starts])
    steps = []
    for body, (start, dirs) in zip(bodies, starts):
        step = np.cross(beam_cone(dirs)[0], rng.standard_normal(3))
        steps.append(0.02 * sphere_gap(body, start) * step / np.linalg.norm(step))
    finish = np.array([casts, casts // 2, casts])
    lanes = LaneMeshes(bodies, beams)
    hits = np.zeros(3, dtype=int)
    for n in range(casts):
        origins = np.array([start + n * step for (start, _), step in zip(starts, steps)])
        live = n < finish
        ranges, hit = lanes.cast(origins, live)
        assert_lanes_match_reference(bodies, origins, beams, live, ranges, hit)
        hits += hit.sum(axis=1)
    assert hits.all()


# --------------------------------------------------------------------------
# Beam grid and scans


def test_beam_directions_layout():
    cfg = SensorConfig()
    dirs = beam_directions(cfg)
    assert dirs.shape == (8, 8, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-14)
    # All beams point into the -z hemisphere, inside the field of view.
    assert np.all(dirs[..., 2] < 0.0)
    off_axis = np.arccos(-dirs[..., 2])
    # Outermost cell centers sit at atan(sqrt(2) * tan(fov * 7/16)).
    corner = math.atan(math.sqrt(2.0) * math.tan(cfg.fov * 7.0 / 16.0))
    assert off_axis.max() == pytest.approx(corner, rel=1e-12)
    assert off_axis.max() < cfg.fov  # half-angle per axis is fov/2
    # Row index tilts toward +y, column index toward +x.
    assert dirs[7, 3, 1] > 0.0 > dirs[0, 3, 1]
    assert dirs[3, 7, 0] > 0.0 > dirs[3, 0, 0]
    # Cell centers are symmetric about the boresight.
    np.testing.assert_allclose(dirs[::-1, :, 1], -dirs[:, :, 1], atol=1e-15)
    np.testing.assert_allclose(dirs[:, ::-1, 0], -dirs[:, :, 0], atol=1e-15)


def test_sensor_config_validation():
    with pytest.raises(ConfigurationError):
        SensorConfig(fov=0.0).validate()
    with pytest.raises(ConfigurationError):
        SensorConfig(max_range=-1.0).validate()
    with pytest.raises(ConfigurationError):
        SensorConfig(fov=math.pi).validate()


def test_scan_flat_plane_altitude():
    # Hovering boresight-normal above a flat region: the four central beams
    # read the altitude to well within 0.1%, and the whole frame shows the
    # radially symmetric cos falloff.
    cfg = SensorConfig()
    h = 250.0
    frame = scan_at(plane_mesh(0.0), np.array([0.0, 0.0, h]), IDENTITY_Q, cfg)
    assert frame.hit.all()
    # Center cells sit 1.875 deg off axis per axis (2.65 deg compounded), so
    # the raw reading exceeds the altitude by 1/cos = 1.00107.
    center = frame.ranges[3:5, 3:5]
    np.testing.assert_allclose(center, h, rtol=1.1e-3)
    # Exact oracle: range = h / cos(off-axis angle).
    dirs = beam_directions(cfg)
    expected = h / (-dirs[..., 2])
    np.testing.assert_allclose(frame.ranges, expected, rtol=1e-12)
    # Four-fold symmetry of the pattern.
    np.testing.assert_allclose(frame.ranges, np.rot90(frame.ranges), atol=1e-9)


def test_scan_rot90_about_boresight():
    # Rotating the platform 90 degrees about the boresight rotates the image
    # by 90 degrees, for an arbitrary (asymmetric) scene.
    cfg = SensorConfig()
    mesh = synthesize_asteroid(33).mesh
    pos = np.array([420.0, -300.0, 1100.0])
    f0 = scan_at(mesh, pos, IDENTITY_Q, cfg)
    assert f0.hit.any() and not f0.hit.all()  # partial coverage, asymmetric
    q90 = quat_from_axis_angle([0.0, 0.0, 1.0], math.pi / 2.0)
    f1 = scan_at(mesh, pos, q90, cfg)
    np.testing.assert_allclose(f1.ranges, np.rot90(f0.ranges), atol=1e-9)
    np.testing.assert_array_equal(f1.hit, np.rot90(f0.hit))


def test_scan_deterministic():
    cfg = SensorConfig()
    mesh = synthesize_asteroid(8).mesh
    pos = np.array([0.0, 0.0, 900.0])
    a = scan_at(mesh, pos, IDENTITY_Q, cfg)
    b = scan_at(mesh, pos, IDENTITY_Q, cfg)
    np.testing.assert_array_equal(a.ranges, b.ranges)
    np.testing.assert_array_equal(a.hit, b.hit)


def test_rotated_beams_turn_as_the_quaternion():
    from dynamics_reference import quat_rotate

    cfg = SensorConfig()
    q = quat_from_axis_angle([0.3, -0.2, 0.9], 0.4)
    beams = rotated_beams(cfg, quat_to_dcm(q))
    # the rotation matrix turns each beam as the quaternion does
    expected = [quat_rotate(q, b) for b in beam_directions(cfg).reshape(-1, 3)]
    np.testing.assert_allclose(beams, expected, atol=1e-15)


# --------------------------------------------------------------------------
# Noise


def test_noise_applies_only_to_hits(rng):
    ranges = np.full((8, 8), 2000.0)
    hit = np.zeros((8, 8), dtype=bool)
    ranges[2:6, 2:6] = 300.0
    hit[2:6, 2:6] = True
    frame = LidarFrame(ranges, hit)
    noisy = apply_sensor_noise(frame, bias=4.0, sigma=2.0, rng=rng)
    np.testing.assert_array_equal(noisy.ranges[~hit], 2000.0)
    np.testing.assert_array_equal(noisy.hit, hit)
    diffs = noisy.ranges[hit] - 300.0
    assert diffs.mean() == pytest.approx(4.0, abs=1.5)
    assert np.all(noisy.ranges[hit] != 300.0)
    # Original frame untouched.
    assert frame.ranges[3, 3] == 300.0


def test_noise_clamps_to_valid_interval():
    ranges = np.array([[0.5, 1999.0], [2000.0, 2000.0]])
    hit = np.array([[True, True], [False, False]])
    rng = np.random.default_rng(0)
    noisy = apply_sensor_noise(LidarFrame(ranges, hit), bias=-50.0, sigma=0.0, rng=rng)
    assert noisy.ranges[0, 0] > 0.0
    noisy = apply_sensor_noise(LidarFrame(ranges, hit), bias=50.0, sigma=0.0, rng=rng)
    assert noisy.ranges[0, 1] <= 2000.0


def test_noise_deterministic_given_rng():
    ranges = np.full((8, 8), 500.0)
    hit = np.ones((8, 8), dtype=bool)
    a = apply_sensor_noise(LidarFrame(ranges, hit), 1.0, 2.0, np.random.default_rng(42))
    b = apply_sensor_noise(LidarFrame(ranges, hit), 1.0, 2.0, np.random.default_rng(42))
    np.testing.assert_array_equal(a.ranges, b.ranges)
