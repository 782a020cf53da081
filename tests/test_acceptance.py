"""Acceptance suite: one test per top-level criterion, at full desk scale.

Each test prints a `criterion-N: PASS/FAIL` line with the measured numbers so
a log scrape can gate on the suite.  Tolerances are fixed here, not tuned at
runtime.
"""

import time

import numpy as np
import pytest

import shocklab as sl
from shocklab.experiments import (
    dispersion_exponents,
    normalization_residual_study,
)
from shocklab.solver import sample_function, stable_dt

JUMP_PAIR = (1.0, -1.0)


def _verdict(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def lab():
    flux = sl.burgers_flux(2)
    pair = sl.make_shock_pair(flux, *JUMP_PAIR)
    cone = sl.admissible_cone(pair, 1e-8)
    dual = sl.dual_cone(cone)
    return flux, pair, cone, dual


def test_criterion_1_cone_oracle(lab):
    flux, pair, cone, dual = lab
    t0 = time.time()
    cone = sl.admissible_cone(pair, 1e-8)
    dual = sl.dual_cone(cone)
    flux_dual = sl.dual_cone_from_flux(pair)
    angle_err = max(abs(cone.sector[0] + np.pi / 4), abs(cone.sector[1] - np.pi / 4))
    a = np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0]))
    b = np.sort(np.arctan2(flux_dual.generators[:, 1], flux_dual.generators[:, 0]))
    hausdorff = float(np.max(np.abs(a - b)))
    ys = np.linspace(-4, 4, 100)
    gauge_err = float(np.max(np.abs(dual.gauge(ys) - np.abs(ys))))
    elapsed = time.time() - t0
    ok = angle_err <= 1e-3 and hausdorff <= 1e-3 and gauge_err <= 1e-6 and elapsed < 1.0
    _verdict("criterion-1 cone-oracle", ok,
             f"angle_err={angle_err:.2e} (tol 1e-3), dual_hausdorff={hausdorff:.2e} (tol 1e-3), "
             f"gauge_err={gauge_err:.2e} (tol 1e-6), runtime={elapsed:.2f}s (<1s)")


def test_criterion_2_semigroup_contracts(lab):
    flux, pair, cone, dual = lab
    t0 = time.time()
    g = sl.Grid.from_box((-2, 2, -2, 2), (128, 128))
    scheme = sl.SchemeConfig()
    guard = (-1.0, 1.0)
    dt = stable_dt(pair.reduced, g, scheme, *guard)
    bg = sl.constant_background(0.0, 2)
    rng = np.random.default_rng(7)
    worst_contr = worst_comp = worst_mass = 0.0
    for _ in range(50):
        a = sl.Field(g, rng.uniform(-1, 1, g.counts))
        b = sl.Field(g, np.clip(a.values + rng.normal(0, 0.3, g.counts), -1, 1))
        lo = sl.Field(g, np.minimum(a.values, b.values))
        hi = sl.Field(g, np.maximum(a.values, b.values))
        l1_prev = sl.l1_distance(a, b)
        mass = a.mass
        inflow = 0.0
        for _ in range(100):
            a, stats = sl.step(a, scheme, pair.reduced, bg, 0.0, dt, guard)
            b, _ = sl.step(b, scheme, pair.reduced, bg, 0.0, dt, guard)
            lo, _ = sl.step(lo, scheme, pair.reduced, bg, 0.0, dt, guard)
            hi, _ = sl.step(hi, scheme, pair.reduced, bg, 0.0, dt, guard)
            inflow += stats.boundary_inflow
            l1 = sl.l1_distance(a, b)
            worst_contr = max(worst_contr, l1 - l1_prev)
            l1_prev = l1
            worst_comp = max(worst_comp, float(np.max(lo.values - hi.values)))
            scale = max(1.0, abs(a.mass))
            worst_mass = max(worst_mass, abs(a.mass - mass - inflow) / scale)
    elapsed = time.time() - t0
    ok = (worst_contr <= 1e-12 * g.ncells and worst_comp <= 1e-14
          and worst_mass <= 1e-10 and elapsed < 60.0)
    _verdict("criterion-2 semigroup-contracts", ok,
             f"contraction={worst_contr:.2e} (tol {1e-12 * g.ncells:.2e}), "
             f"comparison={worst_comp:.2e} (tol 1e-14), mass_balance={worst_mass:.2e} "
             f"(tol 1e-10), runtime={elapsed:.1f}s (<60s)")


def _stability_case(lab, profile, phi, label):
    flux, pair, cone, dual = lab
    t0 = time.time()
    g = sl.Grid.from_box((-3, 5, -8, 8), (128, 256))
    rep = sl.stability_experiment(profile, phi, g, sl.SchemeConfig(), horizon=40.0,
                                  settle_steps=2000)
    elapsed = time.time() - t0
    lyap = {c.name: c for c in rep.checks if c.name.startswith("lyapunov")}
    conv = next(c for c in rep.checks if c.name == "convergence")
    mass = next(c for c in rep.checks if c.name == "mass_identity")
    ok = (len(lyap) == 5 and all(c.passed for c in lyap.values())
          and conv.passed and mass.passed and elapsed < 300.0)
    worst_l = max(c.measured for c in lyap.values())
    _verdict(f"criterion-3 stability-{label}", ok,
             f"lyapunov_worst_increase={worst_l:.2e} (tol {1e-10 * g.ncells:.2e}), "
             f"conv={conv.measured:.3f} (tol {conv.tol:.3f}), "
             f"mass_err={mass.measured:.3f} (tol {mass.tol:.3f}), "
             f"runtime={elapsed:.0f}s (<300s)")


@pytest.mark.slow
def test_criterion_3_stability_planar(lab):
    flux, pair, cone, dual = lab
    profile = sl.make_planar(pair, dual, [1.0, 0.0], 0.0, y_extent=(-8, 8))
    phi = sl.PerturbationSpec("bump", (1.5, 0.0), 1.2, 1.9)
    _stability_case(lab, profile, phi, "planar")


@pytest.mark.slow
def test_criterion_3_stability_nonplanar(lab):
    flux, pair, cone, dual = lab
    profile = sl.make_scaled_gauge(pair, dual, 0.5, y_extent=(-8, 8))
    phi = sl.PerturbationSpec("bump", (2.7, 0.0), 1.6, 1.9)
    _stability_case(lab, profile, phi, "nonplanar")


def test_criterion_4_overhead_extinction(lab):
    flux, pair, cone, dual = lab
    t0 = time.time()
    profile = sl.make_planar(pair, dual, [1.0, 0.0], 0.0, y_extent=(-8, 8))
    g = sl.Grid.from_box((-3, 5, -8, 8), (128, 256))
    phi = sl.PerturbationSpec("bump", (-2.0, 0.0), 1.2, 0.5)  # peaks at u_minus + 0.5
    rep = sl.overhead_experiment(profile, phi, g, sl.SchemeConfig(), horizon=10.0)
    elapsed = time.time() - t0
    by_name = {c.name: c for c in rep.checks}
    ok = (by_name["overhead_plus_monotone"].measured <= 1e-12
          and by_name["overhead_minus_monotone"].measured <= 1e-12
          and by_name["extinction"].passed
          and by_name["domination"].measured <= 1e-14
          and elapsed < 300.0)
    _verdict("criterion-4 overhead-extinction", ok,
             f"monotone_slack={by_name['overhead_plus_monotone'].measured:.2e} (tol 1e-12), "
             f"T_ext={rep.extras['t_ext']:.2f} (<10), "
             f"domination={by_name['domination'].measured:.2e} (tol 1e-14), "
             f"runtime={elapsed:.0f}s (<300s)")


def test_criterion_5_support_propagation(lab):
    flux, pair, cone, dual = lab
    t0 = time.time()
    g = sl.Grid.from_box((-5, 15, -5, 15), (256, 256))
    b1 = sl.Field(g, np.full(g.counts, 1.0))
    phi = sl.PerturbationSpec("bump", (0.0, 0.0), 1.0, 0.1)
    b2 = sl.Field(g, b1.values + sample_function(phi, g).values)
    rep = sl.support_experiment(flux, b1, b2, sl.SchemeConfig(), horizon=2.5,
                                threshold=1e-3)
    elapsed = time.time() - t0
    excess = rep.checks[0].measured
    ok = rep.passed and elapsed < 120.0
    _verdict("criterion-5 support-propagation", ok,
             f"worst_excess={excess:.3g} (tol 0), runtime={elapsed:.0f}s (<120s)")


def test_criterion_6_dispersion(lab):
    t0 = time.time()
    alpha, beta = dispersion_exponents(2)
    assert alpha == 0.25 and beta == 0.5
    g = sl.Grid.from_box((-12, 20, -13, 13), (256, 208))
    phi = sl.PerturbationSpec("bump", (0.0, 0.0), 1.5, 0.25)
    data = sample_function(phi, g)
    rep = sl.dispersion_experiment(data, sl.SchemeConfig(), horizon=100.0, t0=10.0)
    elapsed = time.time() - t0
    by_name = {c.name: c for c in rep.checks}
    ratio = by_name["bounded_decay"].measured
    mass_ratio = by_name["mass_scaling"].measured
    hi = 2.0 * 2.0**alpha
    ok = (ratio <= 2.0 and 1.0 - 1e-9 <= mass_ratio <= hi and elapsed < 600.0)
    _verdict("criterion-6 dispersion", ok,
             f"t^(1/2)*sup growth={ratio:.3f} (tol 2), mass_const_ratio={mass_ratio:.3f} "
             f"(range [1, {hi:.3f}]), runtime={elapsed:.0f}s (<600s)")


def test_criterion_7_normalization_residual():
    residuals = normalization_residual_study(1.0, 2)
    ratios = [residuals[k] / residuals[k + 1] for k in range(3)]
    ok = all(r >= 1.7 for r in ratios)
    _verdict("criterion-7 normalization-residual", ok,
             "shrink factors per halving: " + ", ".join(f"{r:.2f}" for r in ratios)
             + " (each >= 1.7)")


def test_criterion_8_profile_algebra(lab):
    flux, pair, cone, dual = lab
    rng = np.random.default_rng(11)
    base = sl.make_planar(pair, dual, [1.0, 0.0], 0.0, y_extent=(-5, 5))

    # (a) surgery identity, exact on 1000 random piecewise-linear triples
    nodes = np.linspace(-5, 5, 101)
    exact = 0
    for _ in range(1000):
        fronts = []
        for _ in range(3):
            slopes = rng.uniform(-0.85, 0.85, 100)
            vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(nodes))])
            vals += rng.uniform(-1.5, 1.5)
            fronts.append(sl.make_graph(pair, dual, (nodes, vals)))
        b, h, k = fronts
        lo, hi = sl.front_surgery(b, h, k)
        gap = hi.front.value(nodes) - lo.front.value(nodes)
        want = np.maximum(k.front.value(nodes) - h.front.value(nodes), 0.0)
        exact += int(np.array_equal(gap, want))
    surgery_ok = exact == 1000

    # (b) sandwich ordering on a 10^4-point grid for 20 random compact phi
    xs = np.linspace(-4, 4, 100)
    mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    u = base.eval(mesh)
    order_ok = True
    for _ in range(20):
        center = rng.uniform(-2, 2, 2)
        radius = rng.uniform(0.3, 1.2)
        box = (center - radius, center + radius)
        lower, upper = sl.sandwich_bounds(base, box, pad=0.05)
        weight = sl.PerturbationSpec("bump", tuple(center), radius, 1.0)(mesh)
        target = rng.uniform(pair.u_plus, pair.u_minus)
        a = u + weight * (target - u)
        lo_v = lower.eval(mesh)
        hi_v = upper.eval(mesh)
        order_ok &= bool(np.all(lo_v <= a + 1e-12) and np.all(a <= hi_v + 1e-12))

    # (c) bounded intersection boxes swallow every grid point of the sweep
    wedge = sl.make_scaled_gauge(pair, dual, 0.5, y_extent=(-5, 5))
    pts = np.stack(np.meshgrid(np.linspace(-6, 6, 220), np.linspace(-6, 6, 220),
                               indexing="ij"), axis=-1).reshape(-1, 2)
    sweep_ok = True
    for _ in range(20):
        x0 = rng.uniform(-3, 3, 2)
        boxi = sl.bounded_intersection(wedge, x0)
        rel = pts - x0
        in_cone = rel @ dual.W >= dual.gauge((rel @ dual.H)[:, 0])
        members = pts[(wedge.eval(pts) == pair.u_minus) & in_cone]
        if len(members):
            sweep_ok &= (not boxi.empty) and bool(np.all(boxi.contains(dual, members)))

    ok = surgery_ok and order_ok and sweep_ok
    _verdict("criterion-8 profile-algebra", ok,
             f"surgery_exact={exact}/1000, sandwich_ordering={'ok' if order_ok else 'violated'}, "
             f"intersection_sweeps={'ok' if sweep_ok else 'violated'}")
