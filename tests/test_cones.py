import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import ConvexHull

import shocklab as sl
from shocklab import cones
from shocklab.cones import sector_cone
from shocklab.errors import DegenerateFlux, TrivialCone
from shocklab.hulls import hull_indices


def test_admissible_sector_symmetric_pair(pair11):
    cone = sl.admissible_cone(pair11, 1e-4)
    assert not cone.trivial
    assert abs(cone.sector[0] + np.pi / 4) <= 1e-4
    assert abs(cone.sector[1] - np.pi / 4) <= 1e-4


def test_a_linear_flux_is_degenerate():
    # every direction passes the chord test, which the paper's non-degeneracy
    # excludes
    pair = sl.make_shock_pair(sl.Flux(((0.0, 1.0), (0.0, 2.0))), 1.0, -1.0)
    with pytest.raises(DegenerateFlux, match="every sampled direction is admissible"):
        sl.admissible_cone(pair, 1e-4)


def test_admissible_sector_one_zero(burgers2):
    p = sl.make_shock_pair(burgers2, 1.0, 0.0)
    cone = sl.admissible_cone(p, 1e-6)
    # boundary rays solve xi1 + 2 xi2 = 0 and xi1 + xi2 = 0
    assert abs(cone.sector[0] - np.arctan2(-1.0, 2.0)) <= 1e-5
    assert abs(cone.sector[1] - 3 * np.pi / 4) <= 1e-5
    # direction (0, 1) is admissible here, (0, -1) is not
    assert sl.cone_contains(cone, [0.0, 1.0])
    assert not sl.cone_contains(cone, [0.0, -1.0])


def test_trivial_cone():
    f = sl.Flux(((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
    p = sl.make_shock_pair(f, 1.0, -1.0)
    cone = sl.admissible_cone(p, 1e-3)
    assert cone.trivial
    with pytest.raises(TrivialCone):
        sl.dual_cone(cone)


def test_admissible_cone_below_one_ulp_returns(pair11, monkeypatch):
    # the bisection stops at adjacent floats: from the scan's step of 2 pi /
    # 1024 that is about 45 halvings per boundary angle, BISECT_LEVELS of
    # them per chord-test call
    calls = []
    real = cones.oleinik_admissible_many

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= 200, "the bisection does not stop"
        return real(*args, **kwargs)

    monkeypatch.setattr(cones, "oleinik_admissible_many", counted)
    fine = sl.admissible_cone(pair11, 1e-300)
    monkeypatch.undo()
    coarse = sl.admissible_cone(pair11, 1e-8)
    assert np.allclose(fine.sector, coarse.sector, rtol=0.0, atol=1e-8)


def test_unit_of_an_array_keeps_the_bits_of_one_call_per_angle():
    # the 2-D cone builds its scan and each round's midpoints in one call,
    # and the scan's directions decide the cone's bits: a build whose array
    # loops round otherwise than its scalar calls fails here
    thetas = np.concatenate([np.linspace(-np.pi, np.pi, 1024, endpoint=False),
                             np.random.default_rng(0).uniform(-np.pi, np.pi, 4096)])
    want = np.array([[np.cos(t), np.sin(t)] for t in thetas])
    assert cones._unit(thetas).tobytes() == want.tobytes()
    assert cones._unit(thetas[5]).tobytes() == want[5].tobytes()


def test_dual_cone_self_dual(cone11, dual11):
    angles = np.sort(np.arctan2(dual11.generators[:, 1], dual11.generators[:, 0]))
    assert np.allclose(angles, [-np.pi / 4, np.pi / 4], atol=1e-6)
    assert np.allclose(dual11.W, [1.0, 0.0], atol=1e-7)
    assert np.allclose(dual11.lam, [1.0, 0.0], atol=1e-7)


def test_double_dual_identity():
    # sector of width pi/2 rotated by pi/6 is again self-dual after rotation
    cone = sector_cone(np.pi / 6 - np.pi / 4, np.pi / 6 + np.pi / 4)
    dual = sl.dual_cone(cone)
    angles = np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0]))
    assert np.allclose(angles, [np.pi / 6 - np.pi / 4, np.pi / 6 + np.pi / 4], atol=1e-12)


@pytest.mark.parametrize("theta1, theta2", [(0.3, 0.3), (0.0, -0.0), (0.3, 0.2)])
def test_a_sector_without_interior_is_refused(theta1, theta2):
    # every admissible cone has an interior: a single ray has none
    with pytest.raises(ValueError, match="has an interior"):
        sector_cone(theta1, theta2)


def test_dual_from_flux_symmetric(pair11):
    dual = sl.dual_cone_from_flux(pair11)
    angles = np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0]))
    assert np.allclose(angles, [-np.pi / 4, np.pi / 4], atol=1e-4)
    assert np.allclose(dual.W, [1.0, 0.0], atol=1e-5)


def test_dual_from_flux_one_zero(burgers2):
    p = sl.make_shock_pair(burgers2, 1.0, 0.0)
    dual = sl.dual_cone_from_flux(p)
    got = np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0]))
    want = np.sort([np.arctan2(1.0, 1.0), np.arctan2(2.0, 1.0)])
    assert np.allclose(got, want, atol=1e-4)


@pytest.mark.parametrize("states", [(1.0, -1.0), (1.0, 0.0), (0.5, -1.5), (2.0, 1.0)])
def test_dual_constructions_agree(burgers2, states):
    p = sl.make_shock_pair(burgers2, *states)
    via_cone = sl.dual_cone(sl.admissible_cone(p, 1e-6))
    via_flux = sl.dual_cone_from_flux(p)
    a = np.sort(np.arctan2(via_cone.generators[:, 1], via_cone.generators[:, 0]))
    b = np.sort(np.arctan2(via_flux.generators[:, 1], via_flux.generators[:, 0]))
    assert np.max(np.abs(a - b)) <= 2e-5


def test_gauge_absolute_value(dual11):
    ys = np.linspace(-4, 4, 100)
    assert np.max(np.abs(dual11.gauge(ys) - np.abs(ys))) <= 1e-6
    assert dual11.gauge(0.0) == 0.0


def test_gauge_homogeneity(dual11, rng):
    for _ in range(50):
        y = rng.uniform(-5, 5)
        c = rng.uniform(0.1, 10)
        assert abs(dual11.gauge(c * y) - c * dual11.gauge(y)) <= 1e-12 * max(1, abs(y) * c)


def test_gauge_subadditive(dual11, rng):
    ya, yb = rng.uniform(-5, 5, (2, 200))
    lhs = dual11.gauge(ya + yb)
    rhs = dual11.gauge(ya) + dual11.gauge(yb)
    assert np.all(lhs <= rhs + 1e-12)


def test_gauge_lipschitz_bound(dual11, rng):
    c = np.max(np.abs(dual11.facet_slopes))
    ys = rng.uniform(-10, 10, 500)
    assert np.all(dual11.gauge(ys) <= c * np.abs(ys) + 1e-12)


def _margin(cone, nu):
    """The angle of unit nu to the nearest facet plane of the cone."""
    return float(np.arcsin(min(np.min(cone.dual_generators @ nu), 1.0)))


def test_cone_contains_margins(cone11):
    assert sl.cone_contains(cone11, [1.0, 0.0])
    assert _margin(cone11, [1.0, 0.0]) >= 0.5
    # the edge pi/4, up to the sector's resolution: 0.1 rad is out of reach
    assert _margin(cone11, np.array([1.0, 1.0]) / np.sqrt(2)) < 0.1
    assert not sl.cone_contains(cone11, [0.0, 1.0])
    # a direction just inside the boundary is inside the closed cone
    assert sl.cone_contains(cone11, [np.cos(np.pi / 4 - 1e-6), np.sin(np.pi / 4 - 1e-6)])
    assert not sl.cone_contains(cone11, [np.nan, 0.0])


def _angle_to_nearer_edge(sector, nu):
    """cone_contains' former d = 2 rule: the wrapped angle rel of nu past the
    sector's first edge, and the angle to the nearer edge (None outside)."""
    t1, t2 = sector
    rel = float(cones._wrap(np.arctan2(nu[1], nu[0]) - t1))
    return (None if rel < 0 or rel > t2 - t1 else min(rel, t2 - t1 - rel)), rel


@settings(max_examples=500, deadline=None)
@given(st.floats(-np.pi, np.pi), st.floats(0.0, np.pi * (1 - 1e-12), exclude_min=True),
       st.floats(-1.0, 4.0), st.floats(0.0, np.pi / 2))
def test_cone_contains_reads_the_angle_to_the_nearer_edge(theta1, width, turn, margin):
    assume(theta1 + width > theta1)  # a sector of positive width
    cone = sector_cone(theta1, theta1 + width)
    nu = np.array([np.cos(theta1 + turn), np.sin(theta1 + turn)])
    dist, rel = _angle_to_nearer_edge(cone.sector, nu)
    # within rounding of an edge, or of the margin, either answer is right
    assume(min(abs(rel), abs(rel - width)) > 1e-9)
    assume(dist is None or abs(dist - margin) > 1e-9)
    assert sl.cone_contains(cone, nu) == (dist is not None)
    if dist is not None:
        assert (_margin(cone, nu) >= margin) == (dist >= margin)


def test_frame_soundness(pair11, dual11):
    s = np.linspace(pair11.u_plus, pair11.u_minus, 201)
    vecs = pair11.f_bar[None, :] - np.stack(
        [np.polynomial.polynomial.polyval(s, pair11.reduced.component(i)) for i in range(2)],
        axis=1,
    )
    proj = vecs @ dual11.W
    assert np.all(proj >= -1e-12)
    interior = (s > pair11.u_plus + 0.05) & (s < pair11.u_minus - 0.05)
    assert np.all(proj[interior] > 0)


def test_dual_generators_support_primal(burgers2, rng):
    for states in [(1.0, -1.0), (1.5, 0.2)]:
        p = sl.make_shock_pair(burgers2, *states)
        cone = sl.admissible_cone(p, 1e-6)
        dual = sl.dual_cone(cone)
        for n in dual.generators:
            for xi in cone.generators:
                assert float(n @ xi) >= -1e-9


def test_three_dimensional_cone():
    f3 = sl.burgers_flux(3)
    p = sl.make_shock_pair(f3, 1.0, -1.0)
    cone = sl.admissible_cone(p, 0.12)
    assert not cone.trivial
    assert cone.directions is not None and len(cone.directions) > 10
    dual = sl.dual_cone(cone)
    # frame axis is interior to the dual cone
    assert np.all(cone.generators @ dual.W > 0)
    # e1 is strictly admissible for this pair
    assert sl.cone_contains(cone, [1.0, 0.0, 0.0])
    assert _margin(cone, [1.0, 0.0, 0.0]) >= 0.05
    # gauge positive homogeneity and subadditivity on the 2-plane H
    rng = np.random.default_rng(3)
    ys = rng.uniform(-2, 2, (40, 2))
    g1 = dual.gauge(ys)
    assert np.allclose(dual.gauge(2.0 * ys), 2.0 * g1, atol=1e-10)
    g_sum = dual.gauge(ys[:20] + ys[20:])
    assert np.all(g_sum <= dual.gauge(ys[:20]) + dual.gauge(ys[20:]) + 1e-10)


def test_three_dimensional_dual_routes_agree():
    f3 = sl.burgers_flux(3)
    p = sl.make_shock_pair(f3, 1.0, -1.0)
    d1 = sl.dual_cone(sl.admissible_cone(p, 0.12))
    d2 = sl.dual_cone_from_flux(p)
    assert np.linalg.norm(d1.W - d2.W) <= 0.1
    # every flux chord lies in the sampled dual cone (support check, loose)
    for v in d2.generators:
        assert np.all(d1.primal_generators @ v >= -0.05)


def _slice(units, rows=None):
    """The central projection of `cones._cone_rays`: v -> v / (v.m) in the
    coordinates of the complement of m, the mean of the unit rows; of `rows`
    if given, else of the units themselves."""
    rows = units if rows is None else rows
    m = units.mean(axis=0)
    m = m / np.linalg.norm(m)
    return (rows @ cones._complement_basis(m)) / (rows @ m)[:, None]


def _boundary_distance(poly, pts):
    """The distance of each point to the boundary of a polygon (qhull's may
    repeat a point given twice)."""
    e = np.roll(poly, -1, axis=0) - poly
    rel = pts[:, None, :] - poly[None, :, :]
    t = np.clip(np.sum(rel * e, axis=2) / np.maximum(np.sum(e * e, axis=1), 1e-300), 0.0, 1.0)
    return np.min(np.linalg.norm(rel - t[..., None] * e, axis=2), axis=1)


def _assert_cone_of(vectors):
    """_cone_rays against qhull on the same slice, and its dual against every
    direction; returns the number of extreme rays."""
    units = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    rays, normals = cones._cone_rays(vectors)
    # the extreme rays are input rows, and every input lies in their dual's dual
    assert all(np.any(np.all(units == r, axis=1)) for r in rays)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert float(np.min(units @ normals.T)) >= -1e-12
    # each normal is the facet of two consecutive rays
    assert np.max(np.abs(np.sum(normals * rays, axis=1))) <= 1e-12
    assert np.max(np.abs(np.sum(normals * np.roll(rays, -1, axis=0), axis=1))) <= 1e-12
    # the same hull as qhull's on the slice: each vertex of either lies on the
    # other's boundary, to 1e-12 of the slice's size (either may merge a
    # vertex that is a rounding off the line of its neighbours)
    pts = _slice(units)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(pts))))
    got, want = _slice(units, rays), pts[ConvexHull(pts).vertices]
    assert np.max(_boundary_distance(want, got)) <= tol
    assert np.max(_boundary_distance(got, want)) <= tol
    return len(rays)


@st.composite
def pointed_clouds(draw):
    """Unit directions within a half-angle below pi/2 of a drawn axis: spread
    over the cap, bunched at its rim, or with repeated rows."""
    axis = np.array(draw(st.tuples(*[st.floats(-1, 1)] * 3)))
    if np.linalg.norm(axis) < 1e-3:
        axis = np.array([0.0, 0.0, 1.0])
    axis = axis / np.linalg.norm(axis)
    frame = np.linalg.qr(np.column_stack([axis, np.eye(3)[:, :2]]))[0]
    frame[:, 0] = axis
    half = draw(st.floats(0.05, 1.45))
    n = draw(st.integers(3, 60))
    kind = draw(st.sampled_from(["cap", "rim", "repeats"]))
    polar = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    if kind == "rim":
        polar = 1.0 - 1e-3 * polar
    theta = half * polar
    phi = np.array(draw(st.lists(st.floats(0, 2 * np.pi), min_size=n, max_size=n)))
    local = np.stack([np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)])
    dirs = (frame @ local).T
    if kind == "repeats":
        dirs = dirs[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=2 * n))]
    return dirs


@settings(max_examples=300, deadline=None)
@given(pointed_clouds())
def test_cone_rays_match_qhull(dirs):
    try:
        _assert_cone_of(dirs)
    except TrivialCone:
        # the mean is no slice axis (repeated rows can pull it within pi/2 of
        # the rim), or the cloud is too thin to have an interior
        units = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        m = units.mean(axis=0)
        if np.all(units @ m > 0):
            pts = _slice(units)
            span = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            assert span[1] <= 1e-9 * max(1.0, span[0])


def test_cone_rays_of_the_admissible_directions():
    # the 1,405 admitted directions of the 3-D Burgers pair (1, -1) at
    # resolution 0.05 span a cone of 17 extreme rays
    pair = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
    cone = sl.admissible_cone(pair, 0.05)
    assert len(cone.directions) == 1405
    assert _assert_cone_of(cone.directions) == 17
    assert cone.generators.shape == cone.dual_generators.shape == (17, 3)


@st.composite
def flat_clouds(draw):
    """Directions in a wedge of a plane through the origin, each lifted off
    the plane by at most 10^-k, k in 12..18, or not at all; and that bound."""
    a, b = (np.array(draw(st.tuples(*[st.floats(-1, 1)] * 3))) for _ in range(2))
    if np.linalg.norm(np.cross(a, b)) < 1e-3:
        a, b = np.eye(3)[0], np.eye(3)[1]
    n = draw(st.integers(2, 40))
    s, t = (np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))) for _ in range(2))
    dirs = np.outer(s + 1e-3, a) + np.outer(t + 1e-3, b)
    lift = draw(st.sampled_from([0.0] + [10.0**-k for k in range(12, 19)]))
    up = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    return dirs + lift * np.outer(up, np.cross(a, b) / np.linalg.norm(np.cross(a, b))), lift


@settings(max_examples=300, deadline=None)
@given(flat_clouds())
def test_cone_rays_of_a_flat_cloud(cloud):
    # a planar cloud, whose slice is a segment to within rounding, is a
    # TrivialCone, in the chain's two-point branch or past it; a lifted one
    # may span a thin cone, which then holds every direction in its dual's
    # dual, and no other exception escapes
    dirs, lift = cloud
    units = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    try:
        rays, normals = cones._cone_rays(dirs)
    except TrivialCone:
        return
    assert lift > 0.0
    assert len(hull_indices(_slice(units))) >= 3
    assert float(np.min(units @ normals.T)) >= -1e-12
