"""Batched cone tests and streamed cell sampling against copies of the originals.

The references below are the straightforward forms: one chord-admissibility
test per direction with its own `P.polyval` and `np.dot` calls, cell
averages from one subsample mesh over the whole grid, and a 2-D dual cone
whose rays are rebuilt from the sector's angles.  The batched
`oleinik_admissible_many`, the slab-wise `sample_function` and `dual_cone`,
which reads the rays stored in the cone, must reproduce their bytes.  So
must the stacked derivative roots against one `P.polyroots` per row, the
2-D cone's bisection trees against one midpoint per chord test, and the
2-D `sample_profile`, which computes fractions only in the cells the front
can cut, against the fractions of every cell.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

import shocklab as sl
from shocklab import cones, experiments, fluxes, solver
from shocklab.errors import DegenerateFlux, TrivialCone
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
    _assert_same(got, _ref_many(pair, dirs, exact=True))
    # the 3-D cone admits the directions that a test at 1,024 Chebyshev
    # points, with its slack of 1e-12, admitted
    assert got.admissible.tobytes() == _ref_many(pair, dirs).admissible.tobytes()
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
    got = sl.oleinik_admissible_many(pair, dirs)
    _assert_same(got, _ref_many(pair, dirs, exact=True))
    assert 0 < got.admissible.sum() < len(dirs)


def test_many_matches_reference_with_tol_samples_and_exact_3d():
    pair = sl.make_shock_pair(GENERAL3, 0.8, -1.3)
    dirs = _with_axes(cones._fibonacci_sphere(200))
    _assert_same(sl.oleinik_admissible_many(pair, dirs), _ref_many(pair, dirs, exact=True))


def test_single_direction_wrapper_matches_reference(pair11):
    for xi in ([1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.3, -0.8], [-0.0, 1.0]):
        got = sl.oleinik_admissible(pair11, xi)
        want = _ref_oleinik(pair11, xi, exact=True)
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
    # the predicate each cone had before it took the exact test in 3-D too
    monkeypatch.setattr(cones, "oleinik_admissible_many",
                        lambda pair, xis: _ref_many(pair, np.asarray(xis), exact=pair.d == 2))
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
    assert t2 > t1, "a sector of zero width has no interior"
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
    if not t2 > t1:  # zero width, or a width that rounds away
        with pytest.raises(ValueError):
            sl.sector_cone(t1, t2)
        return
    _assert_same_dual(sl.sector_cone(t1, t2))


@pytest.mark.parametrize("flux, states", [(sl.burgers_flux(2), (1.0, -1.0)),
                                          (sl.burgers_flux(2), (1.5, 0.5)),
                                          (CUBIC2, (0.8, -1.3))])
def test_dual_cone_2d_of_computed_cones_matches_rays_rebuilt_from_the_sector(flux, states):
    _assert_same_dual(sl.admissible_cone(sl.make_shock_pair(flux, *states), 1e-8))


# -- stacked derivative roots, bisection trees and cut-cell sampling ---------------

def _ref_critical_points(coeffs):
    """`critical_points` with one `P.polyroots` call per row."""
    dc = P.polyder(np.asarray(coeffs, dtype=float))
    if not np.isfinite(dc).all():
        raise DegenerateFlux(f"the derivative {dc.tolist()} overflows: a coefficient is too large")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            r = P.polyroots(dc)
    except np.linalg.LinAlgError as e:
        raise DegenerateFlux(f"the roots of the derivative {dc.tolist()} overflow: "
                             "its leading coefficient is too small") from e
    return np.sort(r[np.abs(r.imag) < 1e-9].real)


def _ref_extremal_values(rows, lo, hi):
    """`_extremal_values`: one `critical_points` call and one P.polyval call
    per row, at its critical points inside (lo, hi), hi as padding, lo, hi."""
    crits = [c[(c > lo) & (c < hi)] for c in map(_ref_critical_points, rows)]
    width = max(map(len, crits), default=0) + 2
    out = np.empty((len(rows), width))
    for k, (row, crit) in enumerate(zip(rows, crits)):
        pts = np.full(width, hi)
        pts[: len(crit)] = crit
        pts[-2] = lo
        out[k] = P.polyval(pts, row)
    return out


def _excess_rows(pair, xis):
    """The coefficients of xi . f(s) - sigma s, one row per direction."""
    sigma = np.vecdot(xis, pair.velocity)
    e = np.zeros((len(xis), max(max(len(c) for c in pair.flux.coeffs), 2)))
    for i, c in enumerate(pair.flux.coeffs):
        e[:, : len(c)] += xis[:, i : i + 1] * np.asarray(c)
    e[:, 1] -= sigma
    return e


def _assert_same_roots(rows):
    """`_derivative_roots` of the rows against one reference call per row:
    the same roots, or the same error for the same first row."""
    want, error = [], None
    for row in rows:
        try:
            want.append(_ref_critical_points(row))
        except DegenerateFlux as e:
            error = str(e)
            break
    if error is not None:
        with pytest.raises(DegenerateFlux) as got:
            fluxes._derivative_roots(rows)
        assert str(got.value) == error
        return
    roots, counts = fluxes._derivative_roots(rows)
    assert counts.tolist() == [len(w) for w in want]
    for r, n, w in zip(roots, counts, want):
        assert r[:n].tobytes() == w.tobytes()
        assert np.isnan(r[n:]).all()


COEFFS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]),
                   st.floats(-3.0, 3.0).map(lambda x: round(x, 3)))


@st.composite
def polynomial_fluxes(draw):
    """A 2-D flux with polynomial components of degree 2 to 5, non-degenerate,
    and a shock pair of it."""
    comps = []
    for _ in range(2):
        degree = draw(st.integers(2, 5))
        c = draw(st.lists(COEFFS, min_size=degree, max_size=degree))
        comps.append(tuple(c) + (draw(st.sampled_from([1.0, -1.0, 0.25, 2.0])),))
    flux = sl.Flux(tuple(comps))
    assume(sl.check_nondegeneracy(flux).passed)
    u_plus = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.3]))
    return sl.make_shock_pair(flux, u_plus + draw(st.sampled_from([0.4, 1.0, 2.0])), u_plus)


def _scan_directions():
    thetas = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
    # theta = 0 and +-pi/2 zero a component, which may drop the top degree
    return _with_axes(np.stack([cones._unit(t) for t in thetas]))


@settings(max_examples=25, deadline=None)
@given(pair=polynomial_fluxes())
def test_stacked_roots_and_points_match_one_polyroots_per_row(pair):
    e = _excess_rows(pair, _scan_directions())
    _assert_same_roots(e)
    got = fluxes._extremal_values(e, pair.u_plus, pair.u_minus)
    want = _ref_extremal_values(e, pair.u_plus, pair.u_minus)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_stacked_roots_keep_complex_and_repeated_roots():
    # p' = 1 + s^2 (complex), s^2 (a double root at 0), (s - 1)^2 (s + 2),
    # a constant, a linear one and rows of trailing zeros
    rows = np.array([[0.0, 1.0, 0.0, 1 / 3, 0.0], [0.0, 0.0, 0.0, 1 / 3, 0.0],
                     [0.0, 2.0, -1.5, 0.0, 0.25], [0.0, 0.0, 0.0, 0.0, 0.0],
                     [3.0, 1.0, 0.0, 0.0, 0.0], [0.0, -2.0, 1.0, 0.0, 0.0],
                     [0.0, -0.0, -0.0, 0.0, -0.0], [0.0, 0.5, -0.5, 0.3, -0.1]])
    _assert_same_roots(rows)
    _assert_same_roots(rows[[2, 0, 7, 1]])
    _assert_same_roots(rows[:0])


ROWS = st.sampled_from([
    (0.0, 1.0, -1.0, 0.5, 0.2), (0.0, 1.0, 0.0, 1 / 3, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, -1.0, 0.0, 1.0, 0.0), (0.0, 0.3, 1.0, 0.0, 0.0),
    # the derivative overflows; its companion matrix overflows
    (0.0, 0.0, 0.0, 1e308, 0.0), (0.0, -1e308, 0.0, 1e308, 0.0),
    (0.0, 0.0, 1.0, 1e-310, 0.0), (0.0, 0.0, 1e10, 0.0, 1e-300),
])


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ROWS, min_size=1, max_size=8))
def test_stacked_roots_raise_for_the_first_row_that_overflows(rows):
    with np.errstate(over="ignore"):
        _assert_same_roots(np.array(rows))


def _ref_cone_2d(pair, resolution):
    """`cones._admissible_cone_2d` with one chord test per bisection midpoint."""
    n_scan = 1024

    def adm(theta):
        return sl.oleinik_admissible(pair, cones._unit(theta)).admissible

    thetas = np.linspace(-np.pi, np.pi, n_scan, endpoint=False)
    mask = sl.oleinik_admissible_many(pair, [cones._unit(t) for t in thetas]).admissible
    if not mask.any():
        return sl.AdmissibleCone(2, trivial=True)
    if mask.all():
        raise DegenerateFlux("every sampled direction is admissible; flux violates non-degeneracy")
    idx = np.arange(n_scan)
    runs = []
    in_run = False
    for i in np.concatenate([idx, idx]):
        if mask[i] and not in_run:
            start = i
            in_run = True
        elif not mask[i] and in_run:
            runs.append((start, i))
            in_run = False
    start, end = max(runs, key=lambda r: (r[1] - r[0]) % n_scan)

    def bisect(theta_in, theta_out):
        while abs(theta_out - theta_in) > resolution:
            mid = 0.5 * (theta_in + theta_out)
            if mid == theta_in or mid == theta_out:
                break
            if adm(mid):
                theta_in = mid
            else:
                theta_out = mid
        return 0.5 * (theta_in + theta_out)

    step = cones.TWO_PI / n_scan
    lo_in = thetas[start % n_scan]
    hi_in = lo_in + step * ((end - 1 - start) % n_scan)
    theta1 = bisect(lo_in, lo_in - step)
    theta2 = bisect(hi_in, hi_in + step)
    if theta2 < theta1:
        theta2 += cones.TWO_PI
    theta2 = theta1 + min(theta2 - theta1, np.pi * (1 - 1e-12))
    if theta2 == theta1:
        raise TrivialCone("the admitted directions close on one ray; the cone has no interior")
    return sl.sector_cone(theta1, theta2)


# the first two end on adjacent floats
RESOLUTIONS = [5e-324, 1e-300, 1e-12, 1e-8, 1e-4, 1e-2, 0.5]


def _cone_or_error(build, pair, resolution):
    try:
        return build(pair, resolution)
    except (DegenerateFlux, TrivialCone) as e:
        return f"{type(e).__name__}: {e}"


def _assert_same_cone(pair, resolution):
    want = _cone_or_error(_ref_cone_2d, pair, resolution)
    calls = []
    inner = cones.oleinik_admissible_many

    def counted(*args, **kwargs):
        calls.append(1)
        # a bisection that never stops trips this
        assert len(calls) <= 40
        return inner(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "oleinik_admissible_many", counted)
        got = _cone_or_error(cones._admissible_cone_2d, pair, resolution)
    if isinstance(want, str):
        assert got == want
        return
    assert got.trivial == want.trivial
    if not want.trivial:
        assert np.array(got.sector).tobytes() == np.array(want.sector).tobytes()
        assert got.generators.tobytes() == want.generators.tobytes()
        assert got.dual_generators.tobytes() == want.dual_generators.tobytes()


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("flux, states", [(sl.burgers_flux(2), (1.0, -1.0)),
                                          (sl.burgers_flux(2), (1.5, 0.5)),
                                          (CUBIC2, (0.7, -1.1)), (CUBIC2, (0.8, -1.3))])
def test_bisection_trees_match_one_midpoint_per_chord_test(flux, states, resolution):
    _assert_same_cone(sl.make_shock_pair(flux, *states), resolution)


@settings(max_examples=40, deadline=None)
@given(pair=polynomial_fluxes(), resolution=st.sampled_from(RESOLUTIONS))
def test_bisection_trees_match_on_polynomial_fluxes(pair, resolution):
    _assert_same_cone(pair, resolution)


@settings(max_examples=60, deadline=None)
@given(pair=polynomial_fluxes(),
       resolution=st.one_of(st.sampled_from(RESOLUTIONS), st.floats(5e-324, 0.5)))
def test_a_2d_cone_is_trivial_or_has_an_interior(pair, resolution):
    try:
        cone = sl.admissible_cone(pair, resolution)
    except DegenerateFlux:
        assume(False)
    if not cone.trivial:
        t1, t2 = cone.sector
        assert 0 < t2 - t1 < np.pi
        # so its dual has an interior axis that every primal ray meets inside
        dual = sl.dual_cone(cone)
        assert (dual.primal_generators @ dual.W).min() > 0


def _ref_sample_profile(profile, grid):
    """The 2-D exact branch of `sample_profile`, with the fractions of every cell."""
    dual = profile.dual
    axis, sgn = dual.grid_axis
    other = 1 - axis
    h_col = dual.H[other, 0]
    offs = (np.arange(16) + 0.5) / 16 * grid.dx
    y_world = grid.lo[other] + np.add.outer(np.arange(grid.counts[other]) * grid.dx, offs)
    psi = profile.front.value(y_world * h_col)
    r_at = psi * sgn
    r_lo = grid.lo[axis] + np.arange(grid.counts[axis]) * grid.dx
    frac = np.subtract(r_at[None, :, :], r_lo[:, None, None])
    frac /= grid.dx
    np.clip(frac, 0.0, 1.0, out=frac)
    if sgn < 0:
        np.subtract(1.0, frac, out=frac)
    frac = frac.mean(axis=2)
    vals = profile.pair.u_plus + (profile.pair.u_minus - profile.pair.u_plus) * frac
    if axis == 1:
        vals = vals.T
    return vals


def _r_at(profile, grid):
    """The front's world coordinate at `sample_profile`'s ordinates."""
    dual = profile.dual
    axis, sgn = dual.grid_axis
    other = 1 - axis
    offs = (np.arange(16) + 0.5) / 16 * grid.dx
    y_world = grid.lo[other] + np.add.outer(np.arange(grid.counts[other]) * grid.dx, offs)
    return profile.front.value(y_world * dual.H[other, 0]) * sgn


@functools.lru_cache(maxsize=None)
def _frame(phi):
    """The Burgers pair (1, -1) with the dual of a right-angled sector about
    phi: its frame axis is a grid axis for phi a multiple of pi/2; None is the
    pair's own computed cone."""
    pair, dual = _dual(2)
    if phi is None:
        return pair, dual
    return pair, sl.dual_cone(sl.sector_cone(phi - np.pi / 4, phi + np.pi / 4))


FRAMES = [None, 0.0, np.pi / 2, np.pi, -np.pi / 2]


@st.composite
def profiles_on_grids(draw):
    """A grid-aligned 2-D profile and a grid on which its front may lie on a
    cell face: then r_at - r_lo is exactly 0 or dx at some ordinate."""
    pair, dual = _frame(draw(st.sampled_from(FRAMES)))
    axis, sgn = dual.grid_axis
    kind = draw(st.sampled_from(["planar", "tilted", "abs_scaled", "pwl", "lower", "upper",
                                 "tent"]))
    offset = draw(st.sampled_from([0.0, 0.5, -0.75, 0.3]))
    if kind == "planar":
        prof = sl.make_planar(pair, dual, dual.W, offset)
    elif kind == "tilted":
        prof = sl.make_planar(pair, dual, dual.W + draw(st.sampled_from([0.3, -0.5])) * dual.H[:, 0],
                              offset)
    elif kind == "pwl":
        nodes = np.sort(draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5, unique=True)))
        assume(np.all(np.diff(nodes) > 1e-3))
        values = np.cumsum([offset] + [draw(st.floats(-0.9, 0.9)) * h for h in np.diff(nodes)])
        prof = sl.make_graph(pair, dual, (nodes, values))
    else:
        prof = sl.make_scaled_gauge(pair, dual, draw(st.sampled_from([0.0, 0.25, 0.5, 0.9])),
                                    offset)
        if kind in ("lower", "upper"):
            box = (np.array([-0.5, -0.7]), np.array([0.4, 0.6]))
            prof = sl.sandwich_bounds(prof, box, pad=0.1)[kind == "upper"]
        elif kind == "tent":
            prof = experiments.default_comparison_profiles(prof)[draw(st.integers(0, 4))]
    dx = draw(st.sampled_from([0.1, 0.25, 0.3, 0.5]))
    counts = [draw(st.integers(4, 12)) for _ in range(2)]
    lo = [draw(st.floats(-3.0, 0.0).map(lambda x: round(x, 2))) for _ in range(2)]
    grid = sl.Grid(tuple(counts), tuple(lo), dx)
    # a face through the front at one of its ordinates, or one cell below it
    where = draw(st.sampled_from(["random", "face", "face below"]))
    if where != "random":
        r = _r_at(prof, grid)
        v = float(r[draw(st.integers(0, r.shape[0] - 1)), draw(st.integers(0, 15))])
        lo[axis] = v if where == "face" else v - dx
        grid = sl.Grid(tuple(counts), tuple(lo), dx)
    return prof, grid


@settings(max_examples=300, deadline=None)
@given(case=profiles_on_grids())
@example(case=(sl.make_planar(*_frame(None), [1.0, 0.0], 0.5), sl.Grid((8, 5), (-1.0, -1.0), 0.25)))
def test_sample_profile_matches_every_cells_fractions(case):
    prof, grid = case
    got = solver.sample_profile(prof, grid).values
    assert got.tobytes() == _ref_sample_profile(prof, grid).tobytes()


@pytest.mark.parametrize("phi", FRAMES)
def test_a_front_on_a_cell_face_cuts_one_cell_per_column(phi):
    # the cell below the face holds the front's ordinates at exactly dx above
    # its lower face: proved full; the one above, at exactly 0, is computed
    pair, dual = _frame(phi)
    axis, sgn = dual.grid_axis
    prof = sl.make_planar(pair, dual, dual.W, 0.5)
    grid = sl.Grid((6, 7), (0.0, 0.0), 0.25)
    r_at = _r_at(prof, grid)
    v = float(r_at[0, 0])
    assert (r_at == v).all()                        # h_dot = W . H is exactly 0
    lo = [0.0, 0.0]
    lo[axis] = v - 3 * 0.25
    grid = sl.Grid((6, 7), tuple(lo), 0.25)
    r_lo = grid.lo[axis] + np.arange(grid.counts[axis]) * grid.dx
    assert (v - r_lo[2], v - r_lo[3]) == (0.25, 0.0)
    cut, full = solver._cut_cells(r_at, r_lo, grid.dx)
    assert cut.sum() == grid.counts[1 - axis] and cut[3].all()
    assert full[:3].all() and not full[3:].any()
    got = solver.sample_profile(prof, grid).values
    assert got.tobytes() == _ref_sample_profile(prof, grid).tobytes()
    assert len(np.unique(got)) == 2
