import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError

import shocklab as sl
from shocklab import experiments as xp
from shocklab import solver
from shocklab.errors import (
    BoundaryContact,
    CFLViolation,
    Characteristic,
    EtaTooLarge,
    GridMismatch,
    RangeViolation,
)
from shocklab.experiments import (
    default_comparison_profiles,
    dispersion_exponents,
    normalization_residual_study,
    settle,
    smooth_burgers_solution,
)
from shocklab.fluxes import component_abs_max
from shocklab.hulls import hull_indices
from shocklab.solver import sample_function, sample_profile


def test_support_hull_single_point(burgers2):
    h = sl.support_hull(burgers2, (0.5, 0.5))
    assert h.vertices.shape == (1, 2)
    assert np.allclose(h.vertices[0], [1.0, 0.75])


def test_support_hull_burgers_interval(burgers2):
    h = sl.support_hull(burgers2, (-1.0, 1.0))
    # extreme chord velocities (+-2, 3) are attained at coincident end states
    for target in ([2.0, 3.0], [-2.0, 3.0]):
        assert np.min(np.linalg.norm(h.vertices - np.array(target), axis=1)) <= 1e-9
    # lower boundary of the hull follows b = 3 a^2 / 4
    a = h.vertices[:, 0]
    b = h.vertices[:, 1]
    assert np.all(b >= 3.0 * a**2 / 4.0 - 1e-3)
    # the hull always contains f'(mid) and the endpoint chord
    assert np.min(np.linalg.norm(h.vertices - burgers2.value(0.0, 1), axis=1)) <= 0.05
    chord = (burgers2.value(1.0) - burgers2.value(-1.0)) / 2.0
    from shocklab.experiments import _polygon_distance

    assert _polygon_distance(h.vertices, chord[None, :])[0] <= 1e-9


def test_support_hull_taylor_ball(burgers2):
    eta = 0.1
    h = sl.support_hull(burgers2, (1.0, 1.0 + eta))
    # every chord velocity lies within eta * max |f''| over J of f'(1)
    c_f = float(np.linalg.norm(component_abs_max(burgers2, 2, 1.0, 1.0 + eta)))
    dist = np.linalg.norm(h.vertices - burgers2.value(1.0, 1), axis=1)
    assert np.all(dist <= c_f * eta + 1e-12)


def _qhull_vertices(pts):
    """The hull's vertices as the support hull once took them, from qhull: the
    oracle for the monotone chain."""
    spread = np.max(pts, axis=0) - np.min(pts, axis=0)
    if np.min(spread) <= 1e-12 * max(1.0, np.max(spread)):
        ax = int(np.argmax(spread))
        order = np.argsort(pts[:, ax])
        return pts[[order[0], order[-1]]]
    return pts[ConvexHull(pts).vertices]


def _directed_edges(verts):
    v = [tuple(p) for p in verts.tolist()]
    return sorted((v[k], v[(k + 1) % len(v)]) for k in range(len(v)))


@st.composite
def hull_clouds(draw):
    """Point clouds for the hull: random, with duplicates, with collinear runs
    on an edge, or in a thin band along a line on either side of the
    degenerate limit.  The coordinates are integers scaled by a power of two
    from 2^-44 to 2^44 (past e^-30 and e^30), so every cross product is
    exact: a point is on an edge or clear of it by far more than qhull's
    roundoff, but in the thinnest bands."""
    kind = draw(st.sampled_from(["random", "duplicates", "collinear", "line"]))
    n = draw(st.integers(3, 60))
    span = 6 if kind == "collinear" else 2**20  # few lattice points: many on each edge
    ints = st.integers(-span, span)
    ij = np.array(draw(st.lists(st.tuples(ints, ints), min_size=n, max_size=n)), dtype=float)
    ij += draw(st.tuples(ints, ints))
    if kind == "duplicates":
        ij = ij[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=2 * n))]
    exp = draw(st.integers(-44, 44))
    pts = np.ldexp(ij, exp)
    if kind == "line":
        # y spread / x spread from about 2^-21 down to 2^-61
        pts[:, 1] = np.ldexp(np.round(ij[:, 1] / 2**16), exp - draw(st.integers(5, 45)))
    return pts


@settings(max_examples=400, deadline=None)
@given(hull_clouds())
def test_hull_vertices_match_qhull(pts):
    got = pts[hull_indices(pts)]
    if len(got) > 2:
        # the hull, exactly (every cross product here is exact): a strictly
        # convex counter-clockwise polygon from the lowest of the leftmost
        # points, with every point on or to the left of every edge
        assert tuple(got[0]) == min(map(tuple, pts.tolist()))
        e = np.roll(got, -1, axis=0) - got
        assert np.all(e[:, 0] * np.roll(e, -1, axis=0)[:, 1]
                      - e[:, 1] * np.roll(e, -1, axis=0)[:, 0] > 0)
        rel = pts[None, :, :] - got[:, None, :]
        assert np.all(e[:, None, 0] * rel[..., 1] - e[:, None, 1] * rel[..., 0] >= 0)
    spread = np.max(pts, axis=0) - np.min(pts, axis=0)
    if (1e-12 * max(1.0, np.max(spread)) < np.min(spread)
            <= 1e-9 * np.max(np.abs(pts))):
        return  # thinner than qhull resolves: it merges points or gives up
    try:
        want = _qhull_vertices(pts)
    except QhullError:
        # collinear, but not along an axis: the chain gives the segment
        # where qhull gave up
        want = pts[np.lexsort(pts.T[::-1])[[0, -1]]]
    assert _directed_edges(got) == _directed_edges(want)



def test_hull_keeps_no_vertex_twice():
    # points of an ellipse on the slice of a 3-D cone, the first two a
    # rounding apart; in exact arithmetic all six are vertices, in this order.
    # The turn (q - o) x (p - o) kept the second point twice: [0, 1, ..., 5, 1]
    pts = np.array([[-0.42693422363868627, 0.21775024037137114],
                    [-0.4269342236386862, 0.21775024037137108],
                    [-0.19113162599562564, 0.08017975659494224],
                    [0.028308668045241635, -0.03204329356864763],
                    [0.14026247460278385, -0.08344106692345885],
                    [0.5295277287749887, -0.23636952080408882]])
    assert hull_indices(pts).tolist() == list(range(6))

def test_support_experiment_identical_fields(burgers2):
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    b = sl.Field(g, np.ones(g.counts))
    rep = sl.support_experiment(burgers2, b, b.copy(), sl.SchemeConfig(), 1.0)
    assert rep.passed


def test_support_experiment_containment(burgers2):
    g = sl.Grid.from_box((-3, 9, -3, 9), (96, 96))
    b1 = sl.Field(g, np.full(g.counts, 1.0))
    phi = sl.PerturbationSpec("bump", (0.0, 0.0), 0.8, 0.1)
    b2 = sl.Field(g, b1.values + sample_function(phi, g).values)
    rep = sl.support_experiment(burgers2, b1, b2, sl.SchemeConfig(), 1.2)
    assert rep.passed
    # the largest excess itself: its distance below zero is the margin
    assert rep.checks[0].measured < 0.0


def test_support_experiment_without_support_at_any_check(burgers2):
    g = sl.Grid.from_box((-3, 9, -3, 9), (48, 48))
    b1 = sl.Field(g, np.full(g.counts, 1.0))
    b2 = sl.Field(g, b1.values + sample_function(
        sl.PerturbationSpec("bump", (0.0, 0.0), 0.8, 0.1), g).values)
    # only the peak cells pass the threshold at t = 0, and the peak decays
    rep = sl.support_experiment(burgers2, b1, b2, sl.SchemeConfig(), 1.0, threshold=0.99)
    assert rep.passed
    assert rep.checks[0].measured == 0.0 and "no support" in rep.checks[0].note


def test_support_experiment_boundary_contact(burgers2):
    g = sl.Grid.from_box((-1, 2, -1, 2), (48, 48))
    b1 = sl.Field(g, np.full(g.counts, 1.0))
    phi = sl.PerturbationSpec("bump", (0.5, 0.5), 0.45, 0.1)
    b2 = sl.Field(g, b1.values + sample_function(phi, g).values)
    with pytest.raises(BoundaryContact):
        sl.support_experiment(burgers2, b1, b2, sl.SchemeConfig(), 3.0)


def test_support_rejects_a_flux_of_another_dimension(monkeypatch):
    g = sl.Grid.from_box((-3, 9, -3, 9), (24, 24))
    b1 = sl.Field(g, np.full(g.counts, 1.0))
    b2 = sl.Field(g, b1.values + sample_function(
        sl.PerturbationSpec("bump", (0.0, 0.0), 0.8, 0.1), g).values)
    monkeypatch.setattr(solver, "step", None)  # it fails before the first step
    with pytest.raises(ValueError, match="3 components for a 2-D grid"):
        sl.support_experiment(sl.burgers_flux(3), b1, b2, sl.SchemeConfig(), 0.5)


def test_support_rejects_fields_on_different_grids(burgers2, monkeypatch):
    g = sl.Grid.from_box((-3, 9, -3, 9), (24, 24))
    h = sl.Grid.from_box((-3, 9, -3, 11), (24, 28))
    monkeypatch.setattr(solver, "step", None)  # it fails before the first step
    with pytest.raises(GridMismatch):
        sl.support_experiment(burgers2, sl.Field(g, np.ones(g.counts)),
                              sl.Field(h, np.ones(h.counts)), sl.SchemeConfig(), 0.5)


def test_support_range_guard_catches_a_broken_update(burgers2, monkeypatch):
    g = sl.Grid.from_box((-3, 9, -3, 9), (48, 48))
    b1 = sl.Field(g, np.full(g.counts, 1.0))
    b2 = sl.Field(g, b1.values + sample_function(
        sl.PerturbationSpec("bump", (0.0, 0.0), 0.8, 0.1), g).values)
    assert sl.support_experiment(burgers2, b1, b2, sl.SchemeConfig(), 0.5).passed

    real_step = solver.step

    def overshooting_step(*args, **kwargs):
        nxt, stats = real_step(*args, **kwargs)
        return sl.Field(nxt.grid, nxt.values + 1e-6), stats

    # both fields overshoot alike, so their difference and its support are
    # unchanged: only each field's own range check can catch the update
    monkeypatch.setattr(solver, "step", overshooting_step)
    with pytest.raises(CFLViolation):
        sl.support_experiment(burgers2, b1, b2, sl.SchemeConfig(), 0.5)


@pytest.mark.slow
def test_stability_experiment_small(pair11, dual11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-5, 5))
    g = sl.Grid.from_box((-2.5, 2.5, -5, 5), (80, 160))
    phi = sl.PerturbationSpec("bump", (1.2, 0.0), 0.9, 1.5)
    rep = sl.stability_experiment(prof, phi, g, sl.SchemeConfig(), horizon=18.0,
                                  settle_steps=1200)
    failed = [c.name for c in rep.checks if not c.passed]
    assert not failed, failed
    assert rep.extras["worst_lyapunov_increase"] <= 1e-10 * g.ncells


def test_stability_rejects_out_of_range(pair11, dual11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-2, 2))
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    phi = sl.PerturbationSpec("bump", (1.0, 0.0), 0.7, 3.0)  # exceeds u_minus
    with pytest.raises(RangeViolation):
        sl.stability_experiment(prof, phi, g, sl.SchemeConfig(), horizon=1.0, settle_steps=50)


def test_stability_requires_reduced_frame(planar11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    phi = sl.PerturbationSpec("bump", (1.0, 0.0), 0.5, 0.5)
    with pytest.raises(ValueError):
        sl.stability_experiment(planar11, phi, g, sl.SchemeConfig(frame="original"), 1.0)


def test_default_comparisons_are_admissible(planar11):
    comps = default_comparison_profiles(planar11)
    assert len(comps) == 5
    for c in comps:
        assert c.rho <= 1.0
        # coincide with the base front near the extent edges
        for y in (-7.6, 7.6):
            assert c.front.value(np.array(y)) == planar11.front.value(np.array(y))


def test_overhead_experiment_small(pair11, dual11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-4, 4))
    g = sl.Grid.from_box((-3, 2, -4, 4), (80, 128))
    phi = sl.PerturbationSpec("bump", (-1.5, -1.0), 0.8, 0.5)
    rep = sl.overhead_experiment(prof, phi, g, sl.SchemeConfig(), horizon=6.0,
                                 settle_steps=800)
    failed = [c.name for c in rep.checks if not c.passed]
    assert not failed, failed
    assert rep.extras["t_ext"] < 6.0
    assert "t_star" in rep.extras


def test_overhead_trivial_when_in_range(pair11, dual11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-2, 2))
    g = sl.Grid.from_box((-2, 2, -2, 2), (48, 48))
    phi = sl.PerturbationSpec("bump", (1.0, 0.0), 0.6, 0.5)  # stays within range
    rep = sl.overhead_experiment(prof, phi, g, sl.SchemeConfig(), horizon=0.5,
                                 settle_steps=400)
    assert np.all(rep.extras["over_plus"] == 0.0)
    assert rep.extras["t_ext"] == 0.0


def test_overhead_requires_burgers(dual11):
    f = sl.Flux(((0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 2.0)))
    p = sl.make_shock_pair(f, 1.0, -1.0)
    dual = sl.dual_cone(sl.admissible_cone(p, 1e-4))
    prof = sl.make_planar(p, dual, dual.W)
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    phi = sl.PerturbationSpec("bump", (0.0, 0.0), 0.5, 0.5)
    with pytest.raises(ValueError):
        sl.overhead_experiment(prof, phi, g, sl.SchemeConfig(), 1.0)


def test_absorption_estimate_values(pair11, dual11):
    prof = sl.make_graph(pair11, dual11, lambda y: 0.1 * np.abs(y))
    box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    est0 = sl.predicted_absorption_time(prof, box, 0.0)
    assert est0.alpha == pytest.approx(1.8, abs=1e-6)
    assert est0.t_star == pytest.approx(1.1 / 1.8, abs=1e-6)
    # exact ball minimization lies between the loose and tight facet bounds
    est = sl.predicted_absorption_time(prof, box, 0.05)
    r = est.ball_radius
    assert 1.8 - r * (1 + 0.1) - 1e-9 <= est.alpha <= 1.8 - r + 1e-9
    # antitone: larger overhead allowance means later absorption
    ts = [sl.predicted_absorption_time(prof, box, e).t_star for e in (0.0, 0.02, 0.04)]
    assert np.all(np.diff(ts) > 0)


def test_absorption_estimate_errors(pair11, dual11):
    box = (np.zeros(2), np.ones(2))
    characteristic = sl.make_planar(pair11, dual11, np.array([1.0, 1.0]) / np.sqrt(2))
    with pytest.raises(Characteristic):
        sl.predicted_absorption_time(characteristic, box, 0.01)
    prof = sl.make_graph(pair11, dual11, lambda y: 0.1 * np.abs(y))
    with pytest.raises(EtaTooLarge):
        sl.predicted_absorption_time(prof, box, 10.0)


def test_dispersion_exponents():
    assert dispersion_exponents(2) == (0.25, 0.5)
    a3, b3 = dispersion_exponents(3)
    assert a3 == pytest.approx(1.0 / 7.0)
    assert b3 == pytest.approx(3.0 / 7.0)


def test_dispersion_zero_data():
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    rep = sl.dispersion_experiment(sl.Field(g, np.zeros(g.counts)), sl.SchemeConfig(),
                                   horizon=3.0, t0=1.0)
    assert rep.passed
    assert rep.extras["c_fit"] == 0.0


def test_dispersion_short_window(burgers2):
    g = sl.Grid.from_box((-4, 8, -5, 5), (96, 80))
    phi = sl.PerturbationSpec("bump", (0.0, 0.0), 1.0, 0.2)
    rep = sl.dispersion_experiment(sample_function(phi, g), sl.SchemeConfig(),
                                   horizon=10.0, t0=2.0)
    assert rep.passed
    assert rep.extras["beta"] == 0.5


def test_dispersion_shifted_reference():
    # nonzero reference state: the packet also advects at f'(u_ref)
    g = sl.Grid.from_box((-4, 10, -4, 8), (112, 96))
    phi = sl.PerturbationSpec("bump", (0.0, 0.0), 1.0, 0.2)
    u_ref = 0.4
    data = sl.Field(g, u_ref + sample_function(phi, g).values)
    rep = sl.dispersion_experiment(data, sl.SchemeConfig(), horizon=6.0, u_ref=u_ref,
                                   t0=1.5)
    assert rep.passed


def test_smooth_solution_solves_equation():
    u = smooth_burgers_solution(2)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (30, 2))
    t0, h = 0.1, 1e-5
    r = (u(t0 + h, pts) - u(t0 - h, pts)) / (2 * h)
    for ax in range(2):
        e = np.zeros(2)
        e[ax] = h
        r = r + ((u(t0, pts + e) ** (ax + 2)) - (u(t0, pts - e) ** (ax + 2))) / (2 * h)
    assert np.max(np.abs(r)) <= 1e-5


def test_normalization_residual_refinement():
    res = normalization_residual_study(0.7, 2)
    assert len(res) == 4
    assert all(res[k] / res[k + 1] >= 1.7 for k in range(3))


def test_settle_reaches_steady_state(pair11, planar11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (48, 48))
    bg = sl.profile_background(planar11)
    us = settle([(sample_profile(planar11, g), bg)], sl.SchemeConfig(), pair11.reduced,
                2500).fields[0]
    nxt, _ = sl.step(us, sl.SchemeConfig(), pair11.reduced, bg)
    assert np.abs(nxt.values - us.values).sum() * g.cell_volume <= 1e-11


def test_settle_rejects_fields_on_different_grids(pair11, planar11, monkeypatch):
    bg = sl.profile_background(planar11)
    fields = [(sample_profile(planar11, sl.Grid.from_box((-2, hi, -2, 2), (n, 16))), bg)
              for hi, n in ((2, 16), (2, 16), (3, 20))]
    monkeypatch.setattr(solver, "step", None)  # it fails before the first step
    with pytest.raises(GridMismatch):
        settle(fields, sl.SchemeConfig(), pair11.reduced, 10)


@pytest.fixture(scope="module")
def curved_settle(pair11, dual11):
    """A curved front and its sandwich bounds settled together under a 2000-step cap."""
    prof = sl.make_scaled_gauge(pair11, dual11, 0.5, y_extent=(-4.0, 4.0))
    box = (np.array([0.8, -0.6]), np.array([1.6, 0.6]))
    lower, upper = sl.sandwich_bounds(prof, box, 0.1)
    g = sl.Grid.from_box((-2, 3, -3, 3), (40, 48))
    pairs = [(sample_profile(p, g), sl.profile_background(p)) for p in (lower, prof, upper)]
    return pairs, settle(pairs, sl.SchemeConfig(), pair11.reduced, max_steps=2000)


def test_curved_settle_stops_on_its_plateau(curved_settle):
    _, settled = curved_settle
    # well before the cap, without any field reaching tol
    assert xp.PLATEAU_WINDOW < settled.steps <= 200
    assert not any(settled.converged)
    assert settled.summary(["lower", "base", "upper"])["steps"] == settled.steps


def test_joint_settle_keeps_the_sandwich_ordered(curved_settle):
    pairs, settled = curved_settle
    (lo0, _), (u0, _), (hi0, _) = pairs
    assert np.all(lo0.values <= u0.values) and np.all(u0.values <= hi0.values)
    lo, u, hi = (f.values for f in settled.fields)
    assert np.all(lo <= u) and np.all(u <= hi)


def test_joint_settle_runs_a_planar_front_to_tol(pair11, planar11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (48, 48))
    curved = sl.make_scaled_gauge(pair11, planar11.dual, 0.5, y_extent=(-4.0, 4.0))
    pairs = [(sample_profile(p, g), sl.profile_background(p)) for p in (planar11, curved)]
    settled = settle(pairs, sl.SchemeConfig(), pair11.reduced, max_steps=2000)
    # the curved field plateaus first; the planar one sets the step count
    assert settled.converged == [True, False]
    alone = settle(pairs[:1], sl.SchemeConfig(), pair11.reduced, 2000).fields[0]
    assert settled.fields[0].values.tobytes() == alone.values.tobytes()
    assert settled.changes[0] <= 1e-13 * g.ncells * g.cell_volume


def test_settle_honours_its_cap(pair11, curved_settle):
    pairs, _ = curved_settle
    for cap in (0, 1, xp.PLATEAU_WINDOW + 3):
        settled = settle(pairs, sl.SchemeConfig(), pair11.reduced, max_steps=cap)
        assert settled.steps == cap


def test_sandwich_fields_nearly_steady(pair11, dual11):
    # sandwich bounds are fixed points of the step map up to the front layer:
    # the per-step residual is small and confined to cells near the front
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-2, 2))
    lower, upper = sl.sandwich_bounds(prof, (np.array([0.5, -0.5]), np.array([1.5, 0.5])), 0.1)
    g = sl.Grid.from_box((-2, 2, -2, 2), (64, 64))
    mesh = g.center_mesh()
    for p in (lower, upper):
        bg = sl.profile_background(p)
        f = settle([(sample_profile(p, g), bg)], sl.SchemeConfig(), pair11.reduced, 1000).fields[0]
        nxt, _ = sl.step(f, sl.SchemeConfig(), pair11.reduced, bg)
        resid = np.abs(nxt.values - f.values)
        assert resid.sum() * g.cell_volume <= 5e-3
        moved = resid > 1e-9
        if np.any(moved):
            y = mesh[..., 1]
            front_r = p.front.value(y)
            dist = np.abs(mesh[..., 0] - front_r)
            # slope-one cone faces are characteristic and carry a wide layer
            assert np.max(dist[moved]) <= 1.0


def test_settle_range_guard_catches_a_broken_update(pair11, planar11, monkeypatch):
    g = sl.Grid.from_box((-2, 2, -2, 2), (16, 16))
    u0 = sample_profile(planar11, g)
    bg = sl.profile_background(planar11)
    settled = settle([(u0, bg)], sl.SchemeConfig(), pair11.reduced, 20).fields[0]
    assert settled.values.max() <= pair11.u_minus and settled.values.min() >= pair11.u_plus

    real_step = solver.step

    def overshooting_step(*args, **kwargs):
        nxt, stats = real_step(*args, **kwargs)
        return sl.Field(nxt.grid, nxt.values + 1e-6), stats

    monkeypatch.setattr(solver, "step", overshooting_step)
    with pytest.raises(CFLViolation):
        settle([(u0, bg)], sl.SchemeConfig(), pair11.reduced, 20)


def test_run_shared_guard_catches_a_broken_update(monkeypatch):
    # run hands evolve one guard for every field, and evolve holds each field
    # to it: a replaced step that leaves it raises, also on a run's only step,
    # where no later step sees the field
    g = sl.Grid.from_box((-2, 2, -2, 2), (16, 16))
    values = np.zeros(g.counts)
    values[6:10, 6:10] = 0.5
    u0 = sl.Field(g, values)
    bg = sl.constant_background(0.0, 2)
    scheme, flux = sl.SchemeConfig(), sl.burgers_flux(2)
    horizon = solver.stable_dt(flux, g, scheme, 0.0, 0.5)   # one step
    assert sl.run(u0, scheme, flux, horizon, bg).sup[-1] <= 0.5
    real_step = solver.step

    def overshooting_step(*args, **kwargs):
        nxt, stats = real_step(*args, **kwargs)
        return sl.Field(nxt.grid, nxt.values + 1e-3), stats

    monkeypatch.setattr(solver, "step", overshooting_step)
    with pytest.raises(CFLViolation):
        sl.run(u0, scheme, flux, horizon, bg)


def test_joint_settle_guards_each_field_by_its_own_range(pair11, planar11, monkeypatch):
    # a constant field at rest next to a shock: its update may not leave its own
    # range, although it stays inside the range of the pair
    g = sl.Grid.from_box((-2, 2, -2, 2), (16, 16))
    pairs = [(sample_profile(planar11, g), sl.profile_background(planar11)),
             (sl.Field(g, np.zeros(g.counts)), sl.constant_background(0.0, 2))]
    settled = settle(pairs, sl.SchemeConfig(), pair11.reduced, max_steps=20)
    assert np.all(settled.fields[1].values == 0.0)

    real_step = solver.step

    def drifting_step(field, *args, **kwargs):
        nxt, stats = real_step(field, *args, **kwargs)
        if np.all(np.abs(field.values) < 0.5):
            return sl.Field(nxt.grid, nxt.values + 1e-6), stats
        return nxt, stats

    monkeypatch.setattr(solver, "step", drifting_step)
    with pytest.raises(CFLViolation):
        settle(pairs, sl.SchemeConfig(), pair11.reduced, max_steps=20)
