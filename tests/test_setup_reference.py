"""Batched cone tests and streamed cell sampling against copies of the originals.

The references below are the straightforward forms: one chord-admissibility
test per direction with its own `P.polyval` and `np.dot` calls, cell
averages from one subsample mesh over the whole grid, and a 2-D dual cone
whose rays are rebuilt from the sector's angles.  The batched
`oleinik_admissible_many`, the slab-wise `sample_function` and `dual_cone`,
which reads the rays stored in the cone, must reproduce their bytes.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
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


@functools.lru_cache(maxsize=None)
def _dual(d):
    pair = sl.make_shock_pair(sl.burgers_flux(d), 1.0, -1.0)
    return pair, sl.dual_cone(sl.admissible_cone(pair, 1e-8 if d == 2 else 0.05))


def _profile_3d():
    pair, dual = _dual(3)
    return sl.make_planar(pair, dual, [0.58, 0.0, 0.81], 0.0)


# a negative amplitude makes -0.0 outside the support
BUMP3 = sl.PerturbationSpec("bump", (0.1, -0.2, 0.0), 0.6, -0.5)
BUMP2 = sl.PerturbationSpec("bump", (0.1, -0.2), 0.9, -0.5)


def test_sample_function_slabs_match_whole_mesh_3d(monkeypatch):
    prof = _profile_3d()
    grid = sl.Grid.from_box((-1.5, 1.25, -1.0, 1.0, -1.0, 0.75), (11, 8, 7))
    per_cell = 4**3 * 3                             # coordinates per cell
    for cells in (200, 1):                          # blocks of 200, 200, 200, 16 cells; of 1
        monkeypatch.setattr(solver, "SETUP_BLOCK", cells * per_cell + per_cell - 1)
        shapes = []

        def fn(p, f):
            shapes.append(p.shape)
            return f(p)

        for f, sub in ((prof.eval, 4), (BUMP3, 4), (BUMP3, 3)):
            shapes.clear()
            monkeypatch.setattr(solver, "SUBSAMPLES", sub)
            # a lambda has no proof: every cell is evaluated
            got = solver.sample_function(lambda p: fn(p, f), grid)
            want = _ref_sample_function(f, grid, subsamples=sub)
            assert got.values.tobytes() == want.tobytes()
            assert got.values.flags.c_contiguous
            if sub == 4:
                assert shapes == [(c, 4, 4, 4, 3) for c in
                                  ([200] * 3 + [16] if cells == 200 else [1] * 616)]
    assert np.signbit(got.values).any()


def test_sample_function_matches_whole_mesh_2d(pair11, dual11):
    prof = sl.make_scaled_gauge(pair11, dual11, 0.5, 0.0)
    grid = sl.Grid.from_box((-3.0, 5.0, -8.0, 8.0), (32, 64))
    for f in (prof.eval, BUMP2):
        calls = []
        got = solver.sample_function(lambda p: calls.append(p.shape) or f(p), grid)
        assert calls == [(2048, 4, 4, 2)]           # one block of every cell
        assert got.values.tobytes() == _ref_sample_function(f, grid).tobytes()


def test_sample_function_memory_is_bounded_on_48_cubed():
    prof = _profile_3d()
    grid = sl.Grid.from_box((-1.5, 1.5) * 3, (48, 48, 48))
    # the proved paths and, through a lambda, the blocks of every cell
    for f in (prof.eval, BUMP3, lambda p: BUMP3(p)):
        tracemalloc.start()
        try:
            field = solver.sample_function(f, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20                    # 37 MiB with whole slabs of cells
        if f == prof.eval:
            assert {float(prof.pair.u_minus), float(prof.pair.u_plus)} <= \
                set(np.unique(field.values))


@pytest.mark.parametrize("counts, box", [
    ((11, 8, 7), (-1.5, 1.25, -1.0, 1.0, -1.0, 0.75)),
    ((48, 48, 48), (-1.5, 1.5) * 3),
    ((32, 64), (-3.0, 5.0, -8.0, 8.0)),
])
def test_sample_function_proved_cells_match_whole_mesh(counts, box):
    grid = sl.Grid.from_box(box, counts)
    pair, dual = _dual(grid.d)
    fns = [sl.make_scaled_gauge(pair, dual, 0.5, 0.1).eval, BUMP3 if grid.d == 3 else BUMP2,
           sl.PerturbationSpec("sum", terms=(BUMP3 if grid.d == 3 else BUMP2,
                                             sl.PerturbationSpec("indicator", (0.3,) * grid.d,
                                                                 0.25, -0.75)))]
    if grid.d == 3:
        fns.append(_profile_3d().eval)
    for f in fns:
        got = solver.sample_function(f, grid)
        assert got.values.tobytes() == _ref_sample_function(f, grid).tobytes()
        assert 0 < _constant(f, grid).mean() < 1


def _constant(f, grid):
    offs = (np.arange(solver.SUBSAMPLES) + 0.5) / solver.SUBSAMPLES * grid.dx
    axes = [grid.lo[i] + np.add.outer(np.arange(grid.counts[i]) * grid.dx, offs)
            for i in range(grid.d)]
    return solver._constant_cells(f, grid, axes)


def _subsample_values(f, grid):
    """fn at every subsample, (cells..., S^d), from the whole mesh."""
    s = solver.SUBSAMPLES
    offs = (np.arange(s) + 0.5) / s * grid.dx
    axes = [grid.lo[i] + np.add.outer(np.arange(grid.counts[i]) * grid.dx, offs).ravel()
            for i in range(grid.d)]
    vals = np.asarray(f(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)), dtype=float)
    shape = [k for n in grid.counts for k in (n, s)]
    order = list(range(0, 2 * grid.d, 2)) + list(range(1, 2 * grid.d, 2))
    return vals.reshape(shape).transpose(order).reshape(grid.counts + (-1,))


@st.composite
def sampled(draw, d):
    """A grid and a front or a perturbation to sample on it.

    Fronts (and the sandwiches of gauge fronts) pass through a subsample
    point, a cell centre, a face or a random point, and bumps have negative
    amplitudes; some bumps are smaller than a cell and
    sit on a cell centre, between its subsamples.  A perturbation may sit on
    a constant state (`solver.Shifted`)."""
    n = draw(st.lists(st.integers(4, 9 if d == 2 else 6), min_size=d, max_size=d))
    dx = draw(st.sampled_from([0.1, 0.25, 0.3, 1 / 3]))
    lo = draw(st.lists(st.floats(-2.0, 0.0).map(lambda x: round(x, 2)), min_size=d,
                       max_size=d))
    grid = sl.Grid(tuple(n), tuple(lo), dx)
    cell = np.array([draw(st.integers(0, k - 1)) for k in n])
    where = draw(st.sampled_from(["centre", "subsample", "face", "random"]))
    frac = {"centre": [0.5] * d, "face": [0.0] * d,
            "subsample": [draw(st.sampled_from([0.125, 0.375, 0.625, 0.875]))
                          for _ in range(d)],
            "random": [draw(st.floats(0.0, 1.0)) for _ in range(d)]}[where]
    p = np.array(lo) + (cell + np.array(frac)) * dx
    pair, dual = _dual(d)
    kind = draw(st.sampled_from(["planar", "abs_scaled", "pwl", "sandwich", "bump",
                                 "indicator", "sum", "tiny"] if d == 2 else
                                ["planar", "abs_scaled", "sandwich", "bump", "indicator", "sum",
                                 "tiny"]))
    if kind == "planar":
        nu = dual.W if d == 2 or draw(st.booleans()) else np.array([0.58, 0.0, 0.81])
        return grid, sl.make_planar(pair, dual, nu, float(nu @ p)).eval
    r, y = dual.frame(p)
    if kind in ("abs_scaled", "sandwich"):
        slope = draw(st.sampled_from([0.0, 0.25, 0.5, 0.9]))
        prof = sl.make_scaled_gauge(pair, dual, slope, r - slope * dual.gauge(y))
        if kind == "sandwich":  # min and max with cone fronts
            prof = sl.sandwich_bounds(prof, (p - 2 * dx, p + dx))[draw(st.integers(0, 1))]
        return grid, prof.eval
    if kind == "pwl":
        # nodes inside the grid, so that the front clamps on it
        nodes = np.sort(draw(st.lists(st.floats(-2.0, 1.0), min_size=2, max_size=5,
                                      unique=True)))
        assume(np.all(np.diff(nodes) > 1e-3))
        values = np.cumsum([0.0] + [draw(st.floats(-0.9, 0.9)) * h for h in np.diff(nodes)])
        shift = r - np.interp(y, nodes, values)
        return grid, sl.make_graph(pair, dual, (nodes, values + shift)).eval
    amp = draw(st.sampled_from([-0.5, -1.0, 0.75]))
    if kind == "tiny":
        centre = np.array(lo) + (cell + 0.5) * dx
        spec = sl.PerturbationSpec("bump", tuple(centre), dx / 10, amp)
    else:
        radius = draw(st.sampled_from([dx / 3, 0.5, 1.0]))
        spec = sl.PerturbationSpec("bump" if kind == "sum" else kind, tuple(p), radius, amp)
        if kind == "sum":
            other = sl.PerturbationSpec("indicator", tuple(p + 2 * dx), radius, amp)
            spec = sl.PerturbationSpec("sum", terms=(spec, other))
    # on a constant state, as `dispersion` samples it: -0.0 plus a bump's
    # -0.0 outside its ball is -0.0, plus +0.0 it is +0.0
    base = draw(st.sampled_from([None, 0.0, -0.0, 0.8, 5e-324]))
    return grid, spec if base is None else solver.Shifted(base, spec)


@settings(max_examples=150, deadline=None)
@given(case=st.integers(2, 3).flatmap(sampled))
def test_sample_function_matches_whole_mesh_on_proved_cells(case):
    grid, f = case
    got = solver.sample_function(f, grid).values
    assert got.tobytes() == _ref_sample_function(f, grid).tobytes()


@settings(max_examples=150, deadline=None)
@given(case=st.integers(2, 3).flatmap(sampled))
def test_a_cell_proved_constant_has_equal_subsample_values(case):
    grid, f = case
    constant = _constant(f, grid)
    vals = _subsample_values(f, grid)[constant].view(np.int64)
    assert (vals == vals[:, :1]).all()


def test_a_bump_between_subsamples_is_zero_on_its_cell():
    grid = sl.Grid((4, 4, 4), (0.0, 0.0, 0.0), 1.0)
    spec = sl.PerturbationSpec("bump", (1.5, 2.5, 0.5), 0.1, -1.0)
    assert spec(np.array([1.5, 2.5, 0.5])) < 0           # its centre is not zero
    assert _constant(spec, grid).all()
    got = solver.sample_function(spec, grid).values
    assert got.tobytes() == _ref_sample_function(spec, grid).tobytes()
    assert not got.any()                                # its centre would give -1.0


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
