import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shocklab as sl
from shocklab import solver
from shocklab.errors import GridMismatch
from shocklab.solver import (Background, Companion, numerical_flux, sample_function,
                             sample_profile, stable_dt)

VALUES = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
POLYS = st.sampled_from([(0.0, 0.0, 1.0), (0.0, -1.0, 0.0, 1.0), (0.0, 2.0, 0.5, -0.25)])
KINDS = st.sampled_from(["rusanov", "engquist-osher"])


def test_numerical_flux_reference_values():
    assert numerical_flux((0, 0, 1), 1.0, -1.0) == 3.0
    assert numerical_flux((0, 0, 1), 2.0, 2.0) == 4.0
    assert numerical_flux((0, 0, 1), -1.0, 1.0, "engquist-osher") == 0.0
    for kind in ("rusanov", "engquist-osher"):  # no states, no interfaces
        assert numerical_flux((0, 0, 1), np.empty(0), np.empty(0), kind).shape == (0,)


@settings(deadline=None, max_examples=60)
@given(POLYS, VALUES, KINDS)
def test_numerical_flux_consistency(coeffs, s, kind):
    g = float(np.polynomial.polynomial.polyval(s, np.asarray(coeffs)))
    assert numerical_flux(coeffs, s, s, kind) == pytest.approx(g, abs=1e-12)


@settings(deadline=None, max_examples=80)
@given(POLYS, VALUES, VALUES, st.floats(min_value=0.0, max_value=1.0), KINDS)
def test_numerical_flux_monotone(coeffs, a, b, d, kind):
    up_a = numerical_flux(coeffs, a + d, b, kind)
    base = numerical_flux(coeffs, a, b, kind)
    assert up_a >= base - 1e-12
    up_b = numerical_flux(coeffs, a, b + d, kind)
    assert up_b <= base + 1e-12


def test_numerical_flux_unknown_kind():
    with pytest.raises(ValueError):
        numerical_flux((0, 1), 0.0, 0.0, "roe")


def test_grid_validation():
    with pytest.raises(ValueError):
        sl.Grid((2, 8), (0.0, 0.0), 0.1)
    with pytest.raises(ValueError):
        sl.Grid.from_box((0, 1, 0, 2), (8, 8))  # unequal dx
    g = sl.Grid.from_box((0, 1, 0, 2), (8, 16))
    assert g.dx == pytest.approx(0.125)
    assert g.hi == (1.0, 2.0)
    assert g.ncells == 128


def test_field_validation():
    g = sl.Grid.from_box((0, 1, 0, 1), (8, 8))
    with pytest.raises(ValueError):
        sl.Field(g, np.zeros((8, 4)))
    with pytest.raises(ValueError):
        sl.Field(g, np.full((8, 8), np.nan))


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        sl.SchemeConfig(numerical_flux="weno")
    with pytest.raises(ValueError):
        sl.SchemeConfig(cfl=0.5)
    with pytest.raises(ValueError):
        sl.SchemeConfig(boundary="periodic")
    assert sl.SchemeConfig().cfl_for(2) == 0.45
    assert sl.SchemeConfig().cfl_for(3) == 0.3


def test_constant_field_is_fixed_point(pair11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (16, 16))
    f = sl.Field(g, np.full(g.counts, 0.7))
    for kind in ("rusanov", "engquist-osher"):
        nxt, _ = sl.step(f, sl.SchemeConfig(numerical_flux=kind), pair11.reduced,
                         sl.constant_background(0.7, 2))
        assert np.array_equal(nxt.values, f.values)


def test_planar_steady_shock_settles(pair11, dual11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-2, 2))
    g = sl.Grid.from_box((-2, 2, -2, 2), (64, 64))
    from shocklab.experiments import settle

    bg = sl.profile_background(prof)
    u0 = sample_profile(prof, g)
    us = settle([(u0, bg)], sl.SchemeConfig(), pair11.reduced, 3000).fields[0]
    nxt, _ = sl.step(us, sl.SchemeConfig(), pair11.reduced, bg)
    assert np.abs(nxt.values - us.values).sum() * g.cell_volume <= 1e-10
    # changes against the sharp profile stay confined to a thin front layer
    moved = np.where(np.abs(us.values - u0.values).max(axis=1) > 1e-9)[0]
    assert len(moved) <= 10


@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
def test_semigroup_contracts(pair11, kind, rng):
    g = sl.Grid.from_box((-1, 1, -1, 1), (24, 24))
    scheme = sl.SchemeConfig(numerical_flux=kind)
    bg = sl.constant_background(0.0, 2)
    guard = (-1.0, 1.0)
    dt = stable_dt(pair11.reduced, g, scheme, *guard)
    for _ in range(4):
        a = sl.Field(g, rng.uniform(-1, 1, g.counts))
        b = sl.Field(g, np.minimum(a.values + np.abs(rng.normal(0, 0.4, g.counts)), 1.0))
        l1_prev = sl.l1_distance(a, b)
        lo0, hi0 = a.values.min(), a.values.max()
        for _ in range(40):
            a, _ = sl.step(a, scheme, pair11.reduced, bg, 0.0, dt, guard)
            b, _ = sl.step(b, scheme, pair11.reduced, bg, 0.0, dt, guard)
            assert float(np.max(a.values - b.values)) <= 1e-14
            l1 = sl.l1_distance(a, b)
            assert l1 <= l1_prev + 1e-12 * g.ncells
            l1_prev = l1
            # max principle: the range never expands (ghosts are 0 here)
            assert a.values.max() <= max(hi0, 0.0) + 1e-14
            assert a.values.min() >= min(lo0, 0.0) - 1e-14


@pytest.mark.parametrize("boundary", ["dirichlet-profile", "outflow"])
def test_mass_bookkeeping(pair11, planar11, boundary, rng):
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    scheme = sl.SchemeConfig(boundary=boundary)
    bg = sl.profile_background(planar11)
    f = sl.Field(g, np.clip(sample_profile(planar11, g).values
                            + rng.normal(0, 0.1, g.counts), -1, 1))
    total = 0.0
    m0 = f.mass
    for _ in range(25):
        f, stats = sl.step(f, scheme, pair11.reduced, bg, range_guard=(-1.2, 1.2))
        total += stats.boundary_inflow
    assert abs(f.mass - m0 - total) <= 1e-10 * max(1.0, abs(m0))


def test_l1_distance_basics(pair11, planar11, rng):
    g = sl.Grid.from_box((-2, 2, -2, 2), (8, 8))
    a = sl.Field(g, np.zeros(g.counts))
    assert sl.l1_distance(a, a.copy()) == 0.0
    b = a.copy()
    b.values[3, 4] = 1.0
    assert sl.l1_distance(a, b) == pytest.approx(0.25)  # dx = 0.5, d = 2
    for _ in range(20):
        x = sl.Field(g, rng.normal(size=g.counts))
        y = sl.Field(g, rng.normal(size=g.counts))
        z = sl.Field(g, rng.normal(size=g.counts))
        assert sl.l1_distance(x, z) <= sl.l1_distance(x, y) + sl.l1_distance(y, z) + 1e-12
    other = sl.Field(sl.Grid.from_box((0, 4, 0, 4), (8, 8)), np.zeros((8, 8)))
    with pytest.raises(GridMismatch):
        sl.l1_distance(a, other)


def test_run_probes_and_snapshots(pair11, planar11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    bg = sl.profile_background(planar11)
    u0 = sample_profile(planar11, g)
    rep = sl.run(u0, sl.SchemeConfig(), pair11.reduced, 0.5, bg,
                 companions=[Companion("self", u0.copy(), bg)],
                 snapshot_times=[0.25, 0.5])
    assert len(rep.snapshots) == 2
    assert np.allclose(np.diff(rep.times), rep.dt)
    assert rep.times[-1] == pytest.approx(0.5)
    drift = np.max(np.abs(rep.mass - rep.mass[0] - rep.boundary_inflow))
    assert drift <= 1e-10
    header, rows = rep.series_rows()
    assert header == ["t", "sup", "inf", "mass", "l1_to_self"]
    assert rows.shape[1] == 5


def test_zero_perturbation_l1_probe_is_flat(pair11, planar11):
    from shocklab.experiments import settle

    g = sl.Grid.from_box((-2, 2, -2, 2), (48, 48))
    bg = sl.profile_background(planar11)
    us = settle([(sample_profile(planar11, g), bg)], sl.SchemeConfig(), pair11.reduced,
                2500).fields[0]
    rep = sl.run(us.copy(), sl.SchemeConfig(), pair11.reduced, 1.0, bg,
                 companions=[Companion("steady", us.copy(), bg)])
    assert np.max(rep.l1["steady"]) <= 1e-10


def test_sample_profile_mass_accuracy(pair11, dual11):
    # front between cell boundaries: the area-weighted sampler keeps the
    # displaced mass exact to rounding
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    offset = 0.3 * g.dx
    prof = sl.make_planar(pair11, dual11, [1, 0], offset)
    f = sample_profile(prof, g)
    base = sample_profile(sl.make_planar(pair11, dual11, [1, 0], 0.0), g)
    got = (f.values - base.values).sum() * g.cell_volume
    want = offset * 4.0 * (pair11.u_minus - pair11.u_plus)  # area * jump
    assert got == pytest.approx(want, rel=1e-12)


def test_frame_equivalence_under_refinement(burgers2):
    # evolving with f and sampling in the co-moving window converges to the
    # reduced-frame evolution as the grid refines
    p = sl.make_shock_pair(burgers2, 1.0, 0.0)  # velocity (1, 1)
    bump = sl.PerturbationSpec("bump", (0.0, 0.0), 0.6, 0.3)
    horizon = 0.4
    errs = []
    for n in (48, 96):
        g = sl.Grid.from_box((-2, 2, -2, 2), (n, n))
        base = 0.2
        data = sl.Field(g, base + sample_function(bump, g).values)
        bg = sl.constant_background(base, 2)
        rep_f = sl.run(data.copy(), sl.SchemeConfig(frame="original"), p.flux, horizon, bg)
        rep_r = sl.run(data.copy(), sl.SchemeConfig(frame="reduced"), p.reduced, horizon, bg)
        mesh = g.center_mesh()
        comoving = rep_f.final.sample(mesh + horizon * p.velocity)
        inner = (np.abs(mesh[..., 0]) < 1.0) & (np.abs(mesh[..., 1]) < 1.0)
        err = np.abs(comoving - rep_r.final.values)[inner].sum() * g.cell_volume
        errs.append(err)
    assert errs[1] <= errs[0] / 1.4


def test_step_stats_lambda(pair11):
    g = sl.Grid.from_box((-1, 1, -1, 1), (8, 8))
    f = sl.Field(g, np.zeros(g.counts))
    _, stats = sl.step(f, sl.SchemeConfig(), pair11.reduced, sl.constant_background(0.0, 2),
                       range_guard=(-1.0, 1.0))
    assert stats.lambda_max == pytest.approx(2.0)  # max |F'| on [-1, 1]
    assert stats.dt == pytest.approx(0.45 * g.dx / (2 * 2.0))


# -- the four discrete guarantees in d = 3 ------------------------------------------

GRID3 = sl.Grid.from_box((-1, 1, -1, 1, -1, 1), (10, 10, 10))
PAIR3 = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
FLUX3 = PAIR3.reduced
GUARD3 = (-1.0, 1.0)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _steps3(f, scheme, bg, n=3):
    dt = stable_dt(FLUX3, GRID3, scheme, *GUARD3)
    inflow = 0.0
    for _ in range(n):
        f, stats = sl.step(f, scheme, FLUX3, bg, 0.0, dt, GUARD3)
        inflow += stats.boundary_inflow
    return f, inflow


@settings(deadline=None, max_examples=6)
@given(SEEDS, KINDS, st.floats(min_value=-1.0, max_value=1.0))
def test_max_principle_3d(seed, kind, ghost):
    # two-valued data: jumps everywhere, where a non-monotone update overshoots
    jumps = np.random.default_rng(seed).random(GRID3.counts) < 0.5
    a = sl.Field(GRID3, np.where(jumps, -0.8, 0.8))
    out, _ = _steps3(a, sl.SchemeConfig(numerical_flux=kind), sl.constant_background(ghost, 3))
    assert out.values.max() <= max(a.values.max(), ghost) + 1e-14
    assert out.values.min() >= min(a.values.min(), ghost) - 1e-14


@settings(deadline=None, max_examples=6)
@given(SEEDS, KINDS)
def test_comparison_and_contraction_3d(seed, kind):
    rng = np.random.default_rng(seed)
    a = sl.Field(GRID3, rng.uniform(-1, 1, GRID3.counts))
    b = sl.Field(GRID3, np.minimum(a.values + np.abs(rng.normal(0, 0.4, GRID3.counts)), 1.0))
    c = sl.Field(GRID3, rng.uniform(-1, 1, GRID3.counts))
    scheme = sl.SchemeConfig(numerical_flux=kind)
    bg = sl.constant_background(0.25, 3)
    a1, _ = _steps3(a, scheme, bg)
    b1, _ = _steps3(b, scheme, bg)
    c1, _ = _steps3(c, scheme, bg)
    assert float(np.max(a1.values - b1.values)) <= 1e-14
    assert sl.l1_distance(a1, c1) <= sl.l1_distance(a, c) + 1e-12 * GRID3.ncells


@settings(deadline=None, max_examples=6)
@given(SEEDS, KINDS, st.sampled_from(["dirichlet-profile", "outflow"]))
def test_mass_balance_3d(seed, kind, boundary):
    a = sl.Field(GRID3, np.random.default_rng(seed).uniform(-1, 1, GRID3.counts))
    bg = Background(lambda p: np.tanh(2.0 * p[..., 0] - p[..., 2]), np.zeros(3))
    out, inflow = _steps3(a, sl.SchemeConfig(numerical_flux=kind, boundary=boundary), bg)
    assert abs(out.mass - a.mass - inflow) <= 1e-12 * max(1.0, abs(a.mass))


PLANAR3 = sl.make_planar(PAIR3, sl.dual_cone(sl.admissible_cone(PAIR3, 0.05)), [0.58, 0.0, 0.81])


@settings(deadline=None, max_examples=6)
@given(SEEDS, KINDS, st.floats(min_value=0.5, max_value=3.0), st.sampled_from([-1.0, 1.0]))
def test_mass_balance_3d_moving_background(seed, kind, speed, sign):
    # the planar front moves across its normal, so its ghost layers are
    # evaluated again as ghost cells cross it, and the ghosts' bits change
    nu = np.asarray(PLANAR3.front.params["nu"])
    bg = Background(PLANAR3.eval, sign * speed * nu)
    a = sl.Field(GRID3, np.random.default_rng(seed).uniform(-1, 1, GRID3.counts))
    scheme = sl.SchemeConfig(numerical_flux=kind)
    dt = stable_dt(FLUX3, GRID3, scheme, *GUARD3)
    inflow = 0.0
    for _, _, fields, stats in solver.evolve([(a, bg)], scheme, FLUX3, dt, 12, GUARD3):
        inflow += stats[0].boundary_inflow
    assert bg._layers[GRID3].t > 0.0  # evaluated again after t = 0
    out = fields[0]
    assert abs(out.mass - a.mass - inflow) <= 1e-12 * max(1.0, abs(a.mass))
