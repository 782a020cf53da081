import numpy as np
import pytest

import shocklab as sl
import shocklab.experiments as xp
from shocklab.errors import (
    BoundaryContact,
    CFLViolation,
    Characteristic,
    EtaTooLarge,
    RangeViolation,
)
from shocklab.experiments import (
    default_comparison_profiles,
    dispersion_exponents,
    normalization_residual_study,
    settle,
    smooth_burgers_solution,
)
from shocklab.solver import sample_function, sample_profile


def test_support_hull_single_point(burgers2):
    h = sl.support_hull(burgers2, (0.5, 0.5))
    assert h.vertices.shape == (1, 2)
    assert np.allclose(h.vertices[0], [1.0, 0.75])
    assert h.radius == 0.0


def test_support_hull_burgers_interval(burgers2):
    h = sl.support_hull(burgers2, (-1.0, 1.0), n_samples=96)
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
    h = sl.support_hull(burgers2, (1.0, 1.0 + eta), n_samples=64)
    dist = np.linalg.norm(h.vertices - h.center, axis=1)
    assert np.all(dist <= h.radius + 1e-12)
    assert h.radius == pytest.approx(h.c_f * eta)


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
    assert rep.checks[0].measured <= 0.0


def test_support_experiment_boundary_contact(burgers2):
    g = sl.Grid.from_box((-1, 2, -1, 2), (48, 48))
    b1 = sl.Field(g, np.full(g.counts, 1.0))
    phi = sl.PerturbationSpec("bump", (0.5, 0.5), 0.45, 0.1)
    b2 = sl.Field(g, b1.values + sample_function(phi, g).values)
    with pytest.raises(BoundaryContact):
        sl.support_experiment(burgers2, b1, b2, sl.SchemeConfig(), 3.0)


def test_stability_experiment_small(pair11, dual11, cone11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, cone=cone11, y_extent=(-5, 5))
    g = sl.Grid.from_box((-2.5, 2.5, -5, 5), (80, 160))
    phi = sl.PerturbationSpec("bump", (1.2, 0.0), 0.9, 1.5)
    rep = sl.stability_experiment(prof, phi, g, sl.SchemeConfig(), horizon=18.0,
                                  settle_steps=1200, conv_frac=0.1, mass_frac=0.1)
    failed = [c.name for c in rep.checks if not c.passed]
    assert not failed, failed
    assert rep.extras["worst_lyapunov_increase"] <= 1e-10 * g.ncells


def test_stability_rejects_out_of_range(pair11, dual11, cone11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, cone=cone11, y_extent=(-2, 2))
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


def test_overhead_experiment_small(pair11, dual11, cone11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, cone=cone11, y_extent=(-4, 4))
    g = sl.Grid.from_box((-3, 2, -4, 4), (80, 128))
    phi = sl.PerturbationSpec("bump", (-1.5, -1.0), 0.8, 0.5)
    rep = sl.overhead_experiment(prof, phi, g, sl.SchemeConfig(), horizon=6.0,
                                 settle_steps=800)
    failed = [c.name for c in rep.checks if not c.passed]
    assert not failed, failed
    assert rep.extras["t_ext"] < 6.0
    assert "t_star" in rep.extras


def test_overhead_trivial_when_in_range(pair11, dual11, cone11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, cone=cone11, y_extent=(-2, 2))
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
                                   t0=1.5, mass_scaling=False)
    assert rep.passed


def test_smooth_solution_solves_equation():
    u = smooth_burgers_solution(2, amplitude=0.25)
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
    res = normalization_residual_study(0.7, 2, levels=3)
    assert res[0] / res[1] >= 1.7
    assert res[1] / res[2] >= 1.7


def test_settle_reaches_steady_state(pair11, planar11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (48, 48))
    bg = sl.profile_background(planar11)
    us = settle(sample_profile(planar11, g), sl.SchemeConfig(), pair11.reduced, bg, 2500)
    nxt, _ = sl.step(us, sl.SchemeConfig(), pair11.reduced, bg)
    assert np.abs(nxt.values - us.values).sum() * g.cell_volume <= 1e-11


def test_sandwich_fields_nearly_steady(pair11, dual11, cone11):
    # sandwich bounds are fixed points of the step map up to the front layer:
    # the per-step residual is small and confined to cells near the front
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, cone=cone11, y_extent=(-2, 2))
    lower, upper = sl.sandwich_bounds(prof, (np.array([0.5, -0.5]), np.array([1.5, 0.5])), 0.1)
    g = sl.Grid.from_box((-2, 2, -2, 2), (64, 64))
    mesh = g.center_mesh()
    for p in (lower, upper):
        bg = sl.profile_background(p)
        f = settle(sample_profile(p, g), sl.SchemeConfig(), pair11.reduced, bg, 1000)
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
    settled = settle(u0, sl.SchemeConfig(), pair11.reduced, bg, 20)
    assert settled.values.max() <= pair11.u_minus and settled.values.min() >= pair11.u_plus

    real_step = xp.step

    def overshooting_step(*args, **kwargs):
        nxt, stats = real_step(*args, **kwargs)
        return sl.Field(nxt.grid, nxt.values + 1e-6), stats

    monkeypatch.setattr(xp, "step", overshooting_step)
    with pytest.raises(CFLViolation):
        settle(u0, sl.SchemeConfig(), pair11.reduced, bg, 20)
