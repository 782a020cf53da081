"""Batched cone tests and streamed cell sampling against copies of the originals.

The references below are the straightforward forms: one chord-admissibility
test per direction with its own `P.polyval` and `np.dot` calls, cell
averages from one subsample mesh over the whole grid, and a 2-D dual cone
whose rays are rebuilt from the sector's angles.  The batched
`oleinik_admissible_many`, the slab-wise `sample_function` and `dual_cone`,
which reads the rays stored in the cone, must reproduce their bytes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

import shocklab as sl
from shocklab import cones, solver
from shocklab.errors import TrivialCone
from shocklab.fluxes import OleinikResult

# -0.0 coefficients, a constant term, a component that loses its top degree
GENERAL3 = sl.Flux(((0.0, 0.3, 1.0), (-0.0, -0.5, 0.0, 1.0), (0.2, 0.0, -0.7, 0.0, 0.4)))
CUBIC2 = sl.Flux(((0.0, -1.0, 0.0, 1.0), (0.0, 0.5, -0.25, 0.0, 0.1)))


def _ref_oleinik(pair, xi, n_samples=1024, tol=None, exact=False):
    xi = np.asarray(xi, dtype=float)
    sigma = float(np.dot(xi, pair.velocity))
    n = max(len(c) for c in pair.flux.coeffs)
    e = np.zeros(max(n, 2))
    for i in range(pair.d):
        c = pair.flux.coeffs[i]
        e[: len(c)] += xi[i] * np.asarray(c)
    e[1] -= sigma
    ref = float(P.polyval(pair.u_minus, e))
    mid = 0.5 * (pair.u_minus + pair.u_plus)
    half = 0.5 * (pair.u_minus - pair.u_plus)
    if exact:
        crit = P.polyroots(P.polyder(e))
        crit = crit[np.abs(crit.imag) < 1e-10].real
        crit = crit[(crit > pair.u_plus) & (crit < pair.u_minus)]
        pts = np.concatenate([crit, [pair.u_plus, pair.u_minus]])
    else:
        k = np.arange(n_samples)
        pts = mid + half * np.cos((2 * k + 1) * np.pi / (2 * n_samples))
    excess = P.polyval(pts, e) - ref
    worst = float(max(np.max(excess), 0.0))
    if tol is None:
        scale = max(1.0, abs(ref), float(np.max(np.abs(P.polyval(pts, e)))))
        tol = (1e-14 if exact else 1e-12) * scale
    sigma = float(np.dot(xi, pair.velocity))
    lax = (
        float(sigma - np.dot(xi, pair.flux.value(pair.u_plus, 1))),
        float(np.dot(xi, pair.flux.value(pair.u_minus, 1)) - sigma),
    )
    return OleinikResult(bool(worst <= tol), worst, lax)


def _ref_many(pair, xis, **kw):
    res = [_ref_oleinik(pair, xi, **kw) for xi in xis]
    return sl.OleinikBatch(np.array([r.admissible for r in res]),
                           np.array([r.worst_violation for r in res]),
                           np.array([r.lax_margins for r in res]).reshape(-1, 2))


def _assert_same(got, want):
    for name in ("admissible", "worst", "lax"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _with_axes(dirs):
    """dirs plus the coordinate axes (zero components) and the zero vector."""
    d = dirs.shape[1]
    return np.vstack([dirs, np.eye(d), -np.eye(d), np.zeros(d), -np.zeros(d)])


@pytest.mark.parametrize("flux, states, n_dirs", [
    (sl.burgers_flux(3), (1.0, -1.0), 4096),
    (GENERAL3, (0.8, -1.3), 1024),
])
def test_many_sampled_matches_reference_3d(flux, states, n_dirs):
    pair = sl.make_shock_pair(flux, *states)
    dirs = _with_axes(cones._fibonacci_sphere(n_dirs))
    got = sl.oleinik_admissible_many(pair, dirs)
    _assert_same(got, _ref_many(pair, dirs))
    assert 0 < got.admissible.sum() < len(dirs)


@pytest.mark.parametrize("flux, states", [
    (sl.burgers_flux(2), (1.0, -1.0)),
    (CUBIC2, (0.7, -1.1)),
])
def test_many_exact_matches_reference_on_the_2d_scan(flux, states):
    pair = sl.make_shock_pair(flux, *states)
    thetas = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
    # theta = 0 drops the top degree of the Burgers excess polynomial
    dirs = _with_axes(np.stack([cones._unit(t) for t in thetas]))
    got = sl.oleinik_admissible_many(pair, dirs, exact=True)
    _assert_same(got, _ref_many(pair, dirs, exact=True))
    assert 0 < got.admissible.sum() < len(dirs)


def test_many_matches_reference_with_tol_samples_and_exact_3d():
    pair = sl.make_shock_pair(GENERAL3, 0.8, -1.3)
    dirs = _with_axes(cones._fibonacci_sphere(200))
    _assert_same(sl.oleinik_admissible_many(pair, dirs), _ref_many(pair, dirs))
    _assert_same(sl.oleinik_admissible_many(pair, dirs, exact=True),
                 _ref_many(pair, dirs, exact=True))


def test_single_direction_wrapper_matches_reference(pair11):
    for xi in ([1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.3, -0.8], [-0.0, 1.0]):
        for kw in ({}, {"exact": True}):
            got = sl.oleinik_admissible(pair11, xi, **kw)
            want = _ref_oleinik(pair11, xi, **kw)
            assert type(got.worst_violation) is float
            assert np.array([got.worst_violation, *got.lax_margins]).tobytes() == \
                np.array([want.worst_violation, *want.lax_margins]).tobytes()
            assert got.admissible is want.admissible


def test_many_rejects_bad_shapes(pair11):
    with pytest.raises(ValueError):
        sl.oleinik_admissible_many(pair11, [1.0, 0.0])
    with pytest.raises(ValueError):
        sl.oleinik_admissible_many(pair11, np.zeros((3, 3)))
    assert sl.oleinik_admissible_many(pair11, np.zeros((0, 2))).worst.shape == (0,)


@pytest.mark.parametrize("flux, resolution", [(sl.burgers_flux(2), 1e-8),
                                              (sl.burgers_flux(3), 0.05)])
def test_admissible_cone_matches_per_direction_cone(monkeypatch, flux, resolution):
    pair = sl.make_shock_pair(flux, 1.0, -1.0)
    got = sl.admissible_cone(pair, resolution)
    monkeypatch.setattr(cones, "oleinik_admissible_many",
                        lambda pair, xis, **kw: _ref_many(pair, np.asarray(xis), **kw))
    want = sl.admissible_cone(pair, resolution)
    assert got.sector == want.sector
    for name in ("directions", "generators", "dual_generators"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes(), name


def _ref_sample_function(fn, grid, subsamples=4):
    offs = (np.arange(subsamples) + 0.5) / subsamples * grid.dx
    axes = [grid.lo[i] + np.add.outer(np.arange(grid.counts[i]) * grid.dx, offs).ravel()
            for i in range(grid.d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.asarray(fn(mesh), dtype=float)
    for ax in range(grid.d):
        shape = list(vals.shape)
        n = grid.counts[ax]
        vals = vals.reshape(shape[:ax] + [n, subsamples] + shape[ax + 1:]).mean(axis=ax + 1)
    return vals


def _profile_3d():
    pair = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
    cone = sl.admissible_cone(pair, 0.05)
    return sl.make_planar(pair, sl.dual_cone(cone), [0.58, 0.0, 0.81], 0.0)


# a negative amplitude makes -0.0 outside the support
BUMP3 = sl.PerturbationSpec("bump", (0.1, -0.2, 0.0), 0.6, -0.5)
BUMP2 = sl.PerturbationSpec("bump", (0.1, -0.2), 0.9, -0.5)


def test_sample_function_slabs_match_whole_mesh_3d(monkeypatch):
    prof = _profile_3d()
    grid = sl.Grid.from_box((-1.5, 1.25, -1.0, 1.0, -1.0, 0.75), (11, 8, 7))
    layer = 4 * 3 * 8 * 4 * 7 * 4                  # coordinates per cell along axis 0
    for cells in (3, 1):                            # slabs of 3, 3, 3, 2 cells; of 1 cell
        monkeypatch.setattr(solver, "SAMPLE_BLOCK", cells * layer + layer - 1)
        shapes = []

        def fn(p, f):
            shapes.append(p.shape)
            return f(p)

        for f, sub in ((prof.eval, 4), (BUMP3, 4), (BUMP3, 3)):
            shapes.clear()
            monkeypatch.setattr(solver, "SUBSAMPLES", sub)
            got = solver.sample_function(lambda p: fn(p, f), grid)
            want = _ref_sample_function(f, grid, subsamples=sub)
            assert got.values.tobytes() == want.tobytes()
            assert got.values.flags.c_contiguous
            if sub == 4:
                assert [s[0] for s in shapes] == [4 * c for c in
                                                  ([3, 3, 3, 2] if cells == 3 else [1] * 11)]
    assert np.signbit(got.values).any()


def test_sample_function_matches_whole_mesh_2d(pair11, dual11):
    prof = sl.make_scaled_gauge(pair11, dual11, 0.5, 0.0)
    grid = sl.Grid.from_box((-3.0, 5.0, -8.0, 8.0), (32, 64))
    for f in (prof.eval, BUMP2):
        calls = []
        got = solver.sample_function(lambda p: calls.append(p.shape) or f(p), grid)
        assert calls == [(128, 256, 2)]             # one slab
        assert got.values.tobytes() == _ref_sample_function(f, grid).tobytes()


def test_sample_function_memory_is_bounded_on_48_cubed():
    prof = _profile_3d()
    grid = sl.Grid.from_box((-1.5, 1.5) * 3, (48, 48, 48))
    tracemalloc.start()
    try:
        field = solver.sample_function(prof.eval, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert {float(prof.pair.u_minus), float(prof.pair.u_plus)} <= set(np.unique(field.values))


def _ref_dual_cone_2d(cone):
    """The 2-D branch of `dual_cone` that rebuilt the rays from the sector."""
    t1, t2 = cone.sector
    if cone.degenerate_ray:
        lam = cones._unit(t1)
        gens = np.stack([cones._unit(t1 - np.pi / 2), cones._unit(t1 + np.pi / 2)])
        return cones._frame(gens, lam[None, :], lam, degenerate=True, w=lam)
    gens = np.stack([cones._unit(t2 - np.pi / 2), cones._unit(t1 + np.pi / 2)])
    lam = cones._unit(0.5 * (t1 + t2))
    primal = np.stack([cones._unit(t1), cones._unit(t2)])
    return cones._frame(gens, primal, lam)


def _assert_same_dual(cone):
    try:
        want = _ref_dual_cone_2d(cone)
    except TrivialCone:
        with pytest.raises(TrivialCone):
            sl.dual_cone(cone)
        return
    got = sl.dual_cone(cone)
    assert got.degenerate is want.degenerate
    for name in ("generators", "W", "lam", "H", "facet_slopes", "primal_generators"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


ANGLES = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False))
WIDTHS = st.one_of(st.sampled_from([0.0, -0.0, np.pi / 2]),
                   st.floats(0.0, 3.14, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(t1=ANGLES, width=WIDTHS, as_numpy=st.booleans())
@example(t1=0.0, width=0.0, as_numpy=False)
@example(t1=-0.0, width=0.0, as_numpy=False)
@example(t1=-0.0, width=0.5, as_numpy=True)
def test_dual_cone_2d_matches_rays_rebuilt_from_the_sector(t1, width, as_numpy):
    t2 = t1 + width
    if as_numpy:
        t1, t2 = np.float64(t1), np.float64(t2)
    _assert_same_dual(sl.sector_cone(t1, t2))


@pytest.mark.parametrize("flux, states", [(sl.burgers_flux(2), (1.0, -1.0)),
                                          (sl.burgers_flux(2), (1.5, 0.5)),
                                          (CUBIC2, (0.8, -1.3))])
def test_dual_cone_2d_of_computed_cones_matches_rays_rebuilt_from_the_sector(flux, states):
    _assert_same_dual(sl.admissible_cone(sl.make_shock_pair(flux, *states), 1e-8))
