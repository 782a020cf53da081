from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shocklab as sl
from shocklab import cones
from shocklab.errors import (
    EmptyInterior,
    FrameMismatch,
    GaugeZero,
    InadmissibleNormal,
    NoCrossing,
    NotLipschitzInGauge,
    NotUNC,
)
from shocklab.profiles import _gauge_ball, _slope_ratio, front_normals
from shocklab.solver import sample_function, sample_profile


def test_make_planar_axis(planar11, pair11):
    assert planar11.rho == 0.0
    assert planar11.unc
    assert planar11.eval(np.array([-3.0, 7.0])) == pair11.u_minus
    assert planar11.eval(np.array([0.0, 7.0])) == pair11.u_plus  # on the front


def test_make_planar_tilted(pair11, dual11):
    nu = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
    prof = sl.make_planar(pair11, dual11, nu)
    assert abs(prof.rho - np.tan(np.pi / 8)) <= 1e-6
    assert prof.unc


def test_make_planar_characteristic_boundary(pair11, dual11):
    nu = np.array([1.0, 1.0]) / np.sqrt(2)
    prof = sl.make_planar(pair11, dual11, nu)
    assert abs(prof.rho - 1.0) <= 1e-5
    assert not prof.unc


def test_make_planar_rejects_inadmissible(pair11, dual11):
    with pytest.raises(InadmissibleNormal):
        sl.make_planar(pair11, dual11, [0.0, 1.0])


def test_scaled_gauge_profile(pair11, dual11):
    prof = sl.make_scaled_gauge(pair11, dual11, 0.5)
    assert abs(prof.rho - 0.5) <= 1e-6
    assert prof.unc
    # r = 1 > psi = 0.5 at y = 1: the plus state
    assert prof.eval(np.array([1.0, 1.0])) == pair11.u_plus
    boundary = sl.make_scaled_gauge(pair11, dual11, 1.0)
    assert not boundary.unc
    with pytest.raises(NotLipschitzInGauge):
        sl.make_scaled_gauge(pair11, dual11, 2.0)


def test_front_ratio_closed_forms(pair11, dual11):
    flat = sl.make_graph(pair11, dual11, lambda y: np.full_like(y, 0.3))
    assert flat.rho == 0.0
    sine = sl.make_graph(pair11, dual11, lambda y: 0.9 * np.sin(y))
    assert abs(sine.rho - 0.9) <= 1e-3


def _flat_frame():
    """A hand-built 3-D frame whose summed axis W = (0, 1, 1)/sqrt(2) is
    orthogonal to its first dual generator e1 (1 - 0.5 - 0.5 = 0 exactly):
    the gauge vanishes along H^T e1, so its unit ball is unbounded there.
    The primal rays are the cross products of pairs of dual generators."""
    h = np.sqrt(0.75)
    gens = np.array([[1.0, 0.0, 0.0], [-0.5, h, 0.0], [-0.5, 0.0, h]])
    primal = np.cross(gens[[1, 2, 0]], gens[[2, 0, 1]])
    primal /= np.linalg.norm(primal, axis=1, keepdims=True)
    lam = primal.sum(axis=0)
    return cones._frame(gens, primal, lam / np.linalg.norm(lam))


def test_front_ratio_gauge_zero(pair3):
    dual = _flat_frame()
    assert dual.generators[0] @ dual.W == 0.0
    # a falling gauge front rises along H^T e1, where the gauge is 0
    with pytest.raises(GaugeZero):
        sl.make_scaled_gauge(pair3, dual, -0.5)


def test_eval_two_valued(planar11, pair11, rng):
    pts = rng.uniform(-5, 5, (300, 2))
    vals = planar11.eval(pts)
    assert set(np.unique(vals)) <= {pair11.u_minus, pair11.u_plus}


def test_front_normals_in_cone(pair11, dual11, cone11):
    wedge = sl.make_scaled_gauge(pair11, dual11, 0.5)
    for nu in front_normals(wedge):
        assert sl.cone_contains(cone11, nu)
        # at least 0.1 rad from the nearest edge
        assert np.arcsin(np.min(cone11.dual_generators @ nu)) >= 0.1


def test_sandwich_orders_after_perturbation(planar11, pair11, dual11, rng):
    box = (np.array([0.5, -1.0]), np.array([2.5, 1.0]))
    lower, upper = sl.sandwich_bounds(planar11, box, pad=0.1)
    xs = np.linspace(-4, 4, 100)
    ys = np.linspace(-4, 4, 100)
    mesh = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    u = planar11.eval(mesh)
    lo = lower.eval(mesh)
    hi = upper.eval(mesh)
    for _ in range(5):
        target = rng.uniform(pair11.u_plus, pair11.u_minus)
        weight = sl.PerturbationSpec("bump", (1.5, 0.0), 0.9, 1.0)(mesh)
        a = u + weight * (target - u)
        assert np.all(lo <= a + 1e-12)
        assert np.all(a <= hi + 1e-12)
    # both bounds coincide with the base profile away from a bounded set
    far = np.abs(mesh[..., 1]) > 3.5
    assert np.all(lo[far] == u[far]) or np.all(lo[far] <= u[far])
    outside = (np.abs(mesh[..., 0]) > 3.8) & far
    assert np.array_equal(lo[outside], u[outside])
    assert np.array_equal(hi[outside], u[outside])


def test_front_surgery_constants(pair11, dual11, planar11):
    h = sl.make_graph(pair11, dual11, lambda y: np.full_like(y, -1.0))
    k = sl.make_graph(pair11, dual11, lambda y: np.full_like(y, 1.0))
    lo, hi = sl.front_surgery(planar11, h, k)
    assert lo.front.value(np.array(0.3)) == -1.0
    assert hi.front.value(np.array(0.3)) == 1.0


def test_front_surgery_identity_random(pair11, dual11, planar11, rng):
    nodes = np.linspace(-5, 5, 101)
    for _ in range(60):
        fronts = []
        for _ in range(3):
            slopes = rng.uniform(-0.85, 0.85, 100)
            vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(nodes))])
            vals += rng.uniform(-1, 1)
            fronts.append(sl.make_graph(pair11, dual11, (nodes, vals)))
        b, h, k = fronts
        lo, hi = sl.front_surgery(b, h, k)
        gap = hi.front.value(nodes) - lo.front.value(nodes)
        want = np.maximum(k.front.value(nodes) - h.front.value(nodes), 0.0)
        assert np.array_equal(gap, want)
        assert max(lo.rho, hi.rho) <= max(b.rho, h.rho, k.rho) + 1e-9


def test_front_surgery_equal_inputs(pair11, dual11, planar11):
    h = sl.make_graph(pair11, dual11, lambda y: 0.2 * np.sin(y))
    lo, hi = sl.front_surgery(planar11, h, h)
    ys = np.linspace(-4, 4, 33)
    assert np.array_equal(lo.front.value(ys), hi.front.value(ys))


def test_front_surgery_frame_mismatch(pair11, dual11, planar11, burgers2):
    other_pair = sl.make_shock_pair(burgers2, 1.5, -1.0)
    other_dual = sl.dual_cone(sl.admissible_cone(other_pair, 1e-4))
    other = sl.make_planar(other_pair, other_dual, other_dual.W)
    with pytest.raises(FrameMismatch):
        sl.front_surgery(planar11, other, other)


def test_bounded_intersection_examples(planar11, dual11):
    box = sl.bounded_intersection(planar11, dual11.W)
    assert box.empty
    box = sl.bounded_intersection(planar11, -dual11.W)
    assert not box.empty
    assert np.allclose([box.y_lo[0], box.y_hi[0]], [-1.0, 1.0], atol=1e-6)
    assert abs(box.r_lo + 1.0) <= 1e-12 and abs(box.r_hi) <= 1e-12
    # doubling the apex distance doubles every extent for a planar front
    box2 = sl.bounded_intersection(planar11, -2.0 * dual11.W)
    assert np.allclose([box2.y_lo[0], box2.y_hi[0], box2.r_lo, box2.r_hi],
                       [2 * box.y_lo[0], 2 * box.y_hi[0], 2 * box.r_lo, 2 * box.r_hi],
                       atol=1e-6)


def test_bounded_intersection_requires_unc(pair11, dual11):
    boundary = sl.make_scaled_gauge(pair11, dual11, 1.0)
    with pytest.raises(NotUNC):
        sl.bounded_intersection(boundary, np.zeros(2))


def test_bounded_intersection_membership_sweep(pair11, dual11):
    wedge = sl.make_scaled_gauge(pair11, dual11, 0.5)
    xs = np.linspace(-6, 6, 200)
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    for x0 in (np.array([-2.0, 0.0]), np.array([-1.0, 1.5]), np.array([-3.0, -2.0])):
        box = sl.bounded_intersection(wedge, x0)
        in_dminus = wedge.eval(mesh) == pair11.u_minus
        rel = mesh - x0
        r = rel @ dual11.W
        y = (rel @ dual11.H)[:, 0]
        in_cone = r >= dual11.gauge(y)
        pts = mesh[in_dminus & in_cone]
        if len(pts):
            assert not box.empty
            assert np.all(box.contains(dual11, pts, slack=1e-9))


@pytest.fixture(scope="module")
def pair3():
    return sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)


@pytest.fixture(scope="module")
def dual3(pair3):
    # the cone of the 3-D digest cases
    return sl.dual_cone(sl.admissible_cone(pair3, 0.05))


X0_3D = [np.array(x) for x in ((-2.0, 0.0, 0.0), (-1.0, 1.5, 0.5), (-3.0, -2.0, 1.0),
                              (0.0, -2.0, -2.0))]


def test_bounded_intersection_membership_sweep_3d(pair3, dual3):
    wedge = sl.make_scaled_gauge(pair3, dual3, 0.975)  # so the boxes reach far along the gauge
    assert all(sl.bounded_intersection(wedge, x0).gauge_bound > 200 for x0 in X0_3D)
    xs = np.linspace(-5, 5, 21)
    mesh = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    in_dminus = wedge.eval(mesh) == pair3.u_minus
    for x0 in X0_3D:
        box = sl.bounded_intersection(wedge, x0)
        rel = mesh - x0
        in_cone = rel @ dual3.W >= dual3.gauge(rel @ dual3.H)
        pts = mesh[in_dminus & in_cone]
        assert len(pts) > 20 and not box.empty
        assert np.all(box.contains(dual3, pts, slack=1e-9)), x0


def test_bounded_intersection_box_solves_its_linear_programs(pair3, dual3):
    # the box of {y : gauge(y) <= bound} along each axis, from a linear
    # program over the facets as an independent oracle
    from scipy.optimize import linprog

    wedge = sl.make_scaled_gauge(pair3, dual3, 0.5)
    a = dual3.facet_slopes
    for x0 in X0_3D:
        box = sl.bounded_intersection(wedge, x0)
        b = np.full(len(a), box.gauge_bound)
        for j, c in enumerate(np.eye(2)):
            lo = linprog(c, A_ub=a, b_ub=b, bounds=[(None, None)] * 2, method="highs")
            hi = linprog(-c, A_ub=a, b_ub=b, bounds=[(None, None)] * 2, method="highs")
            assert lo.success and hi.success
            assert abs(box.y_lo[j] - lo.fun) <= 1e-9 * abs(lo.fun)
            assert abs(box.y_hi[j] + hi.fun) <= 1e-9 * abs(hi.fun)


def _gauge_rows(dual, deltas):
    """The gauge of each row of deltas, shape (n, d - 1)."""
    return dual.gauge(deltas[:, 0] if dual.d == 2 else deltas)


def _sampled_ratio(dual, slopes, deltas):
    """max over the rows s and the directions delta of s . delta / gauge(delta)."""
    return float(np.max(np.max(deltas @ slopes.T, axis=1) / _gauge_rows(dual, deltas)))


def _directions(n):
    """n evenly spaced unit directions of the plane, shape (n, 2)."""
    ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def test_slope_ratio_is_its_max_over_the_gauge_ball(pair3, dual3, dual11, rng):
    for dual in (dual11, dual3):
        verts, finite = _gauge_ball(dual)
        assert finite.all()
        y = verts[:, 0] if dual.d == 2 else verts
        assert np.max(np.abs(dual.gauge(y) - 1.0)) <= 1e-12
    # every direction of a dense sample reads at most the exact ratio
    tilted = sl.make_planar(pair3, dual3, dual3.W + 0.3 * dual3.H[:, 0])
    for slopes in (0.5 * dual3.facet_slopes, tilted.front.slopes, rng.normal(0, 0.2, (5, 2))):
        exact = _slope_ratio(dual3, slopes)
        sampled = _sampled_ratio(dual3, slopes, _directions(4096))
        assert sampled <= exact * (1 + 1e-12)
        assert exact <= sampled * (1 + 1e-3)


def test_a_front_normal_is_admitted_when_its_ratio_is_at_most_one(cone11, dual11, pair3, rng):
    # the normal W - H s meets every dual generator g with g . W - s . H^T g,
    # which is >= 0 exactly when s . H^T g / (g . W) <= 1 (g . W > 0 here)
    cone3 = sl.admissible_cone(pair3, 0.05)
    for cone, dual in ((cone11, dual11), (cone3, sl.dual_cone(cone3))):
        dirs = rng.normal(size=(1000, dual.d - 1))
        scale = rng.uniform(0.0, 2.0, 1000) / [_slope_ratio(dual, s[None, :]) for s in dirs]
        seen = set()
        for s in dirs * scale[:, None]:
            rho = _slope_ratio(dual, s[None, :])
            if abs(rho - 1.0) > 1e-9:
                admitted = sl.cone_contains(cone, dual.W - dual.H @ s)
                assert admitted == (rho <= 1.0), (s, rho)
                seen.add(admitted)
        assert seen == {True, False}


@lru_cache(maxsize=None)
def _ratio_case(name):
    """(pair, dual) of the pair (1, -1) on the Burgers cones of the CLI's digest
    cases, d = 2 and d = 3, and on the chord cone of (s^2, s^3, s^5)."""
    if name == "chord-3d":
        flux = sl.Flux(((0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
        pair = sl.make_shock_pair(flux, 1.0, -1.0)
        return pair, sl.dual_cone_from_flux(pair)
    d = 2 if name == "burgers-2d" else 3
    pair = sl.make_shock_pair(sl.burgers_flux(d), 1.0, -1.0)
    return pair, sl.dual_cone(sl.admissible_cone(pair, 1e-6 if d == 2 else 0.05))


@lru_cache(maxsize=None)
def _dense_directions(name):
    """Unit directions on H, dense enough to come within 1e-3 of the sharpest
    vertex of these balls (the chord cone's has facet slopes up to 8), and
    their gauges, taken in chunks (the chord cone has 342 facets)."""
    dual = _ratio_case(name)[1]
    deltas = np.array([[-1.0], [1.0]]) if dual.d == 2 else _directions(2**16)
    return deltas, np.concatenate([_gauge_rows(dual, c) for c in np.array_split(deltas, 16)])


@st.composite
def slopes_and_pairs(draw):
    name = draw(st.sampled_from(["burgers-2d", "burgers-3d", "chord-3d"]))
    k, m = _ratio_case(name)[1].d - 1, draw(st.integers(1, 6))
    slopes = np.array(draw(st.lists(st.floats(-2, 2), min_size=m * k, max_size=m * k)))
    n = draw(st.integers(1, 40))
    y, delta = (np.array(draw(st.lists(st.floats(-5, 5), min_size=n * k, max_size=n * k)))
                .reshape(n, k) for _ in range(2))
    return name, slopes.reshape(m, k), y, delta


@settings(max_examples=300, deadline=None)
@given(slopes_and_pairs())
# subnormal slopes: the exact ratio 1.5e-323 against a dense reach of 1e-323
@example(("chord-3d", np.array([[5e-324, 5e-324]]), np.zeros((1, 2)), np.zeros((1, 2))))
def test_slope_ratio_bounds_every_pair_and_is_reached(case):
    # sampled pairs as the oracle: no pair (y, delta) reads more than the
    # exact ratio, for the slope rows and for the front psi(y) = max_i s_i . y + b_i
    # that they make, and a dense sample of directions comes within 1e-3 of it
    name, slopes, y, delta = case
    dual = _ratio_case(name)[1]
    exact = _slope_ratio(dual, slopes)
    delta = delta[np.linalg.norm(delta, axis=1) > 1e-100]  # no subnormal gauges
    if len(delta):
        # the ratio does not depend on the length of delta; on unit directions
        # s . delta cannot underflow into subnormals that lose the bits the
        # comparison needs (s = 1.1e-308 with delta = 1e-6 read 1.4e-10 high)
        unit = delta / np.linalg.norm(delta, axis=1, keepdims=True)
        assert _sampled_ratio(dual, slopes, unit) <= exact * (1 + 1e-12)
    psi = lambda z: np.max(z @ slopes.T + np.arange(len(slopes)), axis=1)
    rise = psi(y[: len(delta)] + delta) - psi(y[: len(delta)])
    bound = exact * _gauge_rows(dual, delta)
    assert np.all(rise <= bound * (1 + 1e-12) + 1e-12 * (1 + np.abs(rise))), (rise, bound)
    dense, gauges = _dense_directions(name)
    # subnormal slopes round on an absolute grid of 4.9e-324 that no relative
    # bound can follow; the ratio is homogeneous, so the reach is checked on
    # the slopes scaled up by an exact power of two into the normal range
    up = -min(int(np.frexp(np.max(np.abs(slopes)))[1]), 0)
    scaled = np.ldexp(slopes, up)
    reach = np.max(np.max(dense @ scaled.T, axis=1) / gauges)
    assert _slope_ratio(dual, scaled) <= reach * (1 + 1e-3)


@pytest.mark.parametrize("states", [(1.0, -1.0), (1.0, 0.0), (0.5, -1.5), (2.0, 1.0)])
def test_every_2d_gauge_ball_is_centrally_symmetric(burgers2, states):
    # the frame axis bisects the two unit dual generators, so the one-sided
    # ratio is the two-sided one in 2-D
    pair = sl.make_shock_pair(burgers2, *states)
    for dual in (sl.dual_cone(sl.admissible_cone(pair, 1e-6)), sl.dual_cone_from_flux(pair)):
        verts, finite = _gauge_ball(dual)
        assert finite.all() and abs(verts[0, 0] + verts[1, 0]) <= 1e-12 * abs(verts[0, 0])


@pytest.mark.parametrize("slope", [0.1, 0.5, 0.975, 1.0])
def test_a_3d_scaled_gauge_front_has_its_slope_as_ratio(pair3, dual3, slope):
    assert abs(sl.make_scaled_gauge(pair3, dual3, slope).rho - slope) <= 1e-12


def test_an_unbounded_gauge_ball_is_reported(pair3):
    dual = _flat_frame()
    verts, finite = _gauge_ball(dual)
    assert finite.tolist() == [False, True, True]
    assert _slope_ratio(dual, np.zeros((1, 2))) == 0.0
    with pytest.raises(GaugeZero):
        _slope_ratio(dual, 0.1 * verts[:1])
    prof = sl.make_planar(pair3, dual, dual.W)
    assert prof.rho <= 1e-15  # a flat front, up to the rounding of W and H
    with pytest.raises(EmptyInterior):
        sl.bounded_intersection(prof, -dual.W)


def test_sandwich_orders_in_3d(rng):
    # the chords of (s^2, s^3, s^5) between 1 and -1 are symmetric under
    # s -> -s, so that gauge ball is centrally symmetric; the Burgers ball of
    # the simulate-3d cone is not, and the cone fronts' one-sided ratio is 1 on
    # both
    xs = np.linspace(-1.5, 1.5, 25)
    mesh = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1)
    # a box across the front, and data that takes any value in range on all of it
    lo_box, hi_box = np.array([-0.5, -0.4, -0.3]), np.array([0.5, 0.4, 0.3])
    in_box = np.all((mesh >= lo_box - 1e-12) & (mesh <= hi_box + 1e-12), axis=-1)
    for cone in ("chord-3d", "burgers-3d"):
        pair, dual = _ratio_case(cone)
        base = sl.make_planar(pair, dual, dual.W)
        lower, upper = sl.sandwich_bounds(base, (lo_box, hi_box), pad=0.1)
        assert max(lower.rho, upper.rho) <= 1.0 + 1e-6, cone
        u = base.eval(mesh)
        lo = lower.eval(mesh)
        hi = upper.eval(mesh)
        for _ in range(5):
            a = np.where(in_box, rng.uniform(pair.u_plus, pair.u_minus, u.shape), u)
            assert np.all(lo <= a) and np.all(a <= hi), cone
        assert np.any(lo < u) and np.any(hi > u), cone


def test_extract_front_planar(planar11, pair11, dual11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (64, 64))
    field = sample_profile(planar11, g)
    nodes, psi, prof = sl.extract_front(field, pair11, dual11)
    assert np.max(np.abs(psi)) <= g.dx
    assert prof.rho <= 0.2


def test_extract_front_wedge(pair11, dual11):
    wedge = sl.make_scaled_gauge(pair11, dual11, 0.5, y_extent=(-2, 2))
    g = sl.Grid.from_box((-2, 2, -2, 2), (64, 64))
    field = sample_profile(wedge, g)
    nodes, psi, _ = sl.extract_front(field, pair11, dual11)
    assert np.max(np.abs(psi - 0.5 * np.abs(nodes))) <= g.dx


def test_extract_front_no_crossing(pair11, dual11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    const = sl.Field(g, np.full(g.counts, pair11.u_minus))
    with pytest.raises(NoCrossing):
        sl.extract_front(const, pair11, dual11)


def test_shifted_domains_nested(pair11, dual11, rng):
    # the u_minus region translated along the frame axis is ordered by inclusion
    wedge = sl.make_scaled_gauge(pair11, dual11, 0.5)
    pts = rng.uniform(-5, 5, (500, 2))
    w = dual11.W
    shifts = [0.0, 0.5, 1.0, 2.0]
    masks = [wedge.eval(pts - s * w) == pair11.u_minus for s in shifts]
    for a, b in zip(masks, masks[1:]):
        assert np.all(b | ~a)  # mask(s) implies mask(s')


def test_plus_state_invariant_on_forward_cone(pair11, dual11, rng):
    wedge = sl.make_scaled_gauge(pair11, dual11, 0.5)
    for _ in range(50):
        x = rng.uniform(-4, 4, 2)
        if wedge.eval(x) != pair11.u_plus:
            continue
        r = rng.uniform(0, 3, 20)
        y = rng.uniform(-3, 3, 20)
        r = np.maximum(r, dual11.gauge(y))  # points of the forward cone
        probe = x + r[:, None] * dual11.W + y[:, None] * dual11.H[:, 0]
        assert np.all(wedge.eval(probe) == pair11.u_plus)


def test_perturbation_spec(rng):
    bump = sl.PerturbationSpec("bump", (1.0, 2.0), 0.5, 3.0)
    lo, hi = bump.bounding_box
    assert np.allclose(lo, [0.5, 1.5]) and np.allclose(hi, [1.5, 2.5])
    pts = rng.uniform(-3, 3, (200, 2))
    vals = bump(pts)
    outside = np.linalg.norm(pts - np.array([1.0, 2.0]), axis=1) >= 0.5
    assert np.all(vals[outside] == 0.0)
    assert bump(np.array([[1.0, 2.0]]))[0] == pytest.approx(3.0)

    ind = sl.PerturbationSpec("indicator", (0.0, 0.0), 1.0, 2.0)
    assert ind(np.array([[0.5, 0.0]]))[0] == 2.0
    assert ind(np.array([[1.5, 0.0]]))[0] == 0.0

    total = sl.PerturbationSpec("sum", terms=(bump, ind))
    assert total(np.array([[0.5, 0.0]]))[0] == 2.0
    lo2, hi2 = total.bounding_box
    assert np.allclose(lo2, [-1.0, -1.0]) and np.allclose(hi2, [1.5, 2.5])

    with pytest.raises(ValueError):
        sl.PerturbationSpec("blob")
    with pytest.raises(ValueError):
        sl.PerturbationSpec("bump", radius=0.0)
