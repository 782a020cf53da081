"""`step` against a plain copy of the original update, bit for bit.

The reference below is the straightforward form of the scheme: interface
states taken with np.take, the flux polynomial evaluated twice per interface
by P.polyval, ghost layers re-evaluated every step, and the result built by
the checking Field constructor.  The optimized step must reproduce its bytes.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import shocklab as sl
from shocklab import solver
from shocklab.errors import CFLViolation
from shocklab.solver import Background, StepStats, stable_dt

CUBIC = sl.Flux(((0.0, -1.0, 0.0, 1.0), (0.0, 0.5, -0.25, 0.0, 0.1)))  # g' changes sign twice
# equal to SIGNED under ==; run first, it must not answer for SIGNED from a cache
UNSIGNED = sl.Flux(((0.0, -1.0), (0.0, 0.5, 0.0)))
SIGNED = sl.Flux(((-0.0, -1.0), (-0.0, 0.5, -0.0)))  # -0.0 coefficients make g(0) = -0.0


def _real_roots(p):
    p = np.trim_zeros(p, "b")
    if len(p) <= 1:
        return np.empty(0)
    r = P.polyroots(p)
    return np.sort(r[np.abs(r.imag) < 1e-9].real)


def _ref_lambda_max(c, lo, hi):
    dc = P.polyder(c)
    cand = np.maximum(np.abs(P.polyval(lo, dc)), np.abs(P.polyval(hi, dc)))
    for r in _real_roots(P.polyder(dc)):
        inside = (lo <= r) & (r <= hi)
        if np.any(inside):
            cand = np.where(inside, np.maximum(cand, abs(float(P.polyval(r, dc)))), cand)
    return cand


def _ref_eo_split(c, x, positive):
    dc = P.polyder(c)
    edges = np.concatenate([[-np.inf], _real_roots(dc), [np.inf]])
    mids = []
    for l, r in zip(edges[:-1], edges[1:]):
        if np.isinf(l) and np.isinf(r):
            mids.append(0.0)
        else:
            mids.append(r - 1.0 if np.isinf(l) else l + 1.0 if np.isinf(r) else 0.5 * (l + r))
    signs = P.polyval(np.array(mids), dc)
    total = np.zeros_like(np.asarray(x, dtype=float))
    for k in range(len(edges) - 1):
        if (signs[k] > 0) if positive else (signs[k] < 0):
            cx = np.clip(x, edges[k], edges[k + 1])
            c0 = float(np.clip(0.0, edges[k], edges[k + 1]))
            total = total + (P.polyval(cx, c) - P.polyval(c0, c))
    return total


def _ref_flux(coeffs, a, b, kind, lam=None):
    c = np.asarray(coeffs, dtype=float)
    if kind == "rusanov":
        if lam is None:
            lam = _ref_lambda_max(c, np.minimum(a, b), np.maximum(a, b))
        return 0.5 * (P.polyval(a, c) + P.polyval(b, c)) - 0.5 * lam * (b - a)
    g0 = float(P.polyval(0.0, c))
    return g0 + _ref_eo_split(c, a, True) + _ref_eo_split(c, b, False)


def _ref_step(field, scheme, flux, background=None, t=0.0, dt=None, range_guard=None):
    g = field.grid
    ghosts = {}
    for ax in range(g.d):
        for side in (0, 1):
            if scheme.boundary == "outflow" or background is None:
                sl_ = [slice(None)] * g.d
                sl_[ax] = 0 if side == 0 else g.counts[ax] - 1
                ghosts[(ax, side)] = field.values[tuple(sl_)]
            else:
                face = g.lo[ax] - 0.5 * g.dx if side == 0 else g.hi[ax] + 0.5 * g.dx
                axes = [np.array([face]) if i == ax else g.centers(i) for i in range(g.d)]
                mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
                ghosts[(ax, side)] = background.eval(np.squeeze(mesh, axis=ax), t)
    lo = min([float(field.values.min())] + [float(np.min(v)) for v in ghosts.values()])
    hi = max([float(field.values.max())] + [float(np.max(v)) for v in ghosts.values()])
    if range_guard is not None:
        lo, hi = min(lo, range_guard[0]), max(hi, range_guard[1])
    if dt is None:
        lam = max(float(np.max(_ref_lambda_max(np.asarray(flux.coeffs[ax]), np.array(lo),
                                               np.array(hi)))) for ax in range(g.d))
        dt = scheme.cfl_for(g.d) * g.dx / (g.d * max(lam, 1e-30))
    lam_used = 0.0
    div = np.zeros_like(field.values)
    inflow = 0.0
    area = g.dx ** (g.d - 1)
    for ax in range(g.d):
        ext = np.concatenate([np.expand_dims(ghosts[(ax, 0)], ax), field.values,
                              np.expand_dims(ghosts[(ax, 1)], ax)], axis=ax)
        n = g.counts[ax]
        a = np.take(ext, np.arange(0, n + 1), axis=ax)
        b = np.take(ext, np.arange(1, n + 2), axis=ax)
        lam_ax = float(np.max(_ref_lambda_max(np.asarray(flux.coeffs[ax]), lo, hi)))
        f = _ref_flux(flux.coeffs[ax], a, b, scheme.numerical_flux, lam=lam_ax)
        f_hi = np.take(f, np.arange(1, n + 1), axis=ax)
        f_lo = np.take(f, np.arange(0, n), axis=ax)
        div += (f_hi - f_lo) / g.dx
        inflow += (float(np.take(f, 0, axis=ax).sum()) - float(np.take(f, n, axis=ax).sum())) * area
        lam_used = max(lam_used, lam_ax)
    new_values = field.values - dt * div
    if range_guard is not None:
        glo, ghi = range_guard
        slack = 1e-12 * max(1.0, abs(glo), abs(ghi))
        if new_values.min() < glo - slack or new_values.max() > ghi + slack:
            raise CFLViolation("update left the range")
    return sl.Field(g, new_values), StepStats(dt, inflow * dt, lam_used)


def _bits(stats: StepStats) -> bytes:
    return np.array([stats.dt, stats.boundary_inflow, stats.lambda_max]).tobytes()


def _data(rng, shape):
    """Uniform values with exact signed zeros and repeated levels mixed in."""
    v = rng.uniform(-1.0, 1.0, shape)
    levels = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    pick = rng.random(shape) < 0.3
    v[pick] = levels[rng.integers(0, len(levels), pick.sum())]
    return v


def _backgrounds(d, planar):
    tilt = (lambda p: np.tanh(3.0 * p[..., 0] - p[..., 1])) if d == 2 else \
        (lambda p: np.tanh(3.0 * p[..., 0] - p[..., 1] + 0.5 * p[..., 2]))
    steady = sl.profile_background(planar) if d == 2 else Background(tilt, np.zeros(3))
    moving = Background(tilt, np.array([0.4, -0.3, 0.2][:d]))
    return {
        "steady": ("dirichlet-profile", steady),
        "moving": ("dirichlet-profile", moving),
        "constant": ("dirichlet-profile", sl.constant_background(-0.0, d)),
        "outflow": ("outflow", steady),
        "none": ("dirichlet-profile", None),
    }


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
@pytest.mark.parametrize("guarded", [False, True])
def test_step_is_bit_identical_to_reference(d, kind, guarded, pair11, planar11, rng):
    if d == 2:
        g = sl.Grid.from_box((-1.5, 1.5, -1.0, 1.0), (15, 10))  # dx = 0.2 is not a power of 2
        fluxes = [pair11.reduced, CUBIC, UNSIGNED, SIGNED]
    else:
        g = sl.Grid.from_box((-1, 1, -1.2, 1.2, -0.6, 0.6), (10, 12, 6))
        fluxes = [sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0).reduced]
    guard = (-1.5, 1.5) if guarded else None
    for label, (boundary, bg) in _backgrounds(d, planar11).items():
        scheme = sl.SchemeConfig(numerical_flux=kind, boundary=boundary)
        for flux in fluxes:
            fixed = stable_dt(flux, g, scheme, -1.5, 1.5)
            for dt in (None, fixed):
                start = sl.Field(g, _data(rng, g.counts))
                got, want = start, start
                t = 0.0
                for _ in range(4):  # later steps reuse cached ghost layers
                    got, got_stats = sl.step(got, scheme, flux, bg, t, dt, guard)
                    want, want_stats = _ref_step(want, scheme, flux, bg, t, dt, guard)
                    assert got.values.tobytes() == want.values.tobytes(), (label, flux.coeffs)
                    assert _bits(got_stats) == _bits(want_stats), (label, flux.coeffs)
                    t += 0.05


@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
def test_numerical_flux_is_bit_identical_to_reference(kind, rng):
    for coeffs in [(0.0, 0.0, 1.0), (0.0, -1.0, 0.0, 1.0), (0.0, 2.0, 0.5, -0.25),
                   (0.0, 1.0), (-0.0, 1.0)]:
        a = _data(rng, (7, 5))
        b = _data(rng, (7, 5))
        for lam in (None, 2.5):
            lam = None if kind != "rusanov" else lam
            got = np.asarray(sl.numerical_flux(coeffs, a, b, kind, lam=lam))
            want = np.asarray(_ref_flux(coeffs, a, b, kind, lam=lam))
            assert got.tobytes() == want.tobytes(), coeffs
        for s, r in [(1.0, -1.0), (-0.0, 0.0), (0.3, 0.3)]:
            got = float(sl.numerical_flux(coeffs, s, r, kind))
            want = float(_ref_flux(coeffs, np.asarray(s), np.asarray(r), kind))
            assert np.array(got).tobytes() == np.array(want).tobytes()


# -- the fast paths ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
@pytest.mark.parametrize("guard", [None, (0.0, 3e200)])
def test_step_overflow_still_raises(pair11, kind, guard, rng):
    g = sl.Grid.from_box((-1, 1, -1, 1), (8, 8))
    f = sl.Field(g, rng.uniform(1e200, 2e200, g.counts))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        sl.step(f, sl.SchemeConfig(numerical_flux=kind), pair11.reduced,
                sl.constant_background(1e200, 2), dt=1e-3, range_guard=guard)


def test_steady_ghosts_are_cached_read_only(pair11, planar11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (16, 16))
    calls = []

    def fn(points):
        calls.append(points.shape)
        return planar11.eval(points)

    bg = Background(fn, np.zeros(2))
    scheme = sl.SchemeConfig()
    f = solver.sample_profile(planar11, g)
    for k in range(5):
        f, _ = sl.step(f, scheme, pair11.reduced, bg, 0.1 * k)
    assert len(calls) == 4  # one evaluation per face, not per step
    ghosts = solver._ghost_values(f, scheme, bg, 7.0)
    assert ghosts is solver._ghost_values(f, scheme, bg, 0.0)
    for v in ghosts.values():
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0


def test_one_background_on_two_grids(planar11):
    bg = Background(lambda p: p[..., 0] + 2.0 * p[..., 1], np.zeros(2))
    scheme = sl.SchemeConfig()
    for g in (sl.Grid.from_box((-2, 2, -2, 2), (8, 8)),
              sl.Grid.from_box((-1, 3, 0, 2), (12, 6))):
        ghosts = solver._ghost_values(sl.Field(g, np.zeros(g.counts)), scheme, bg, 0.0)
        assert ghosts[(0, 0)].shape == (g.counts[1],)
        assert ghosts[(1, 1)].shape == (g.counts[0],)
        assert np.array_equal(ghosts[(0, 0)], g.lo[0] - 0.5 * g.dx + 2.0 * g.centers(1))
        assert np.array_equal(ghosts[(1, 1)], g.centers(0) + 2.0 * (g.hi[1] + 0.5 * g.dx))


def test_moving_background_ghosts_follow_time():
    bg = Background(lambda p: p[..., 0] - p[..., 1], np.array([0.5, 0.0]))
    g = sl.Grid.from_box((-2, 2, -2, 2), (8, 8))
    f = sl.Field(g, np.zeros(g.counts))
    scheme = sl.SchemeConfig()
    early = solver._ghost_values(f, scheme, bg, 0.0)
    late = solver._ghost_values(f, scheme, bg, 0.4)
    for key in early:
        assert np.allclose(late[key], early[key] - 0.2)
    assert bg._steady == {}
