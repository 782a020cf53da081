"""`step` against a plain copy of the original update, bit for bit.

The reference below is the straightforward form of the scheme: interface
states taken with np.take, the flux polynomial evaluated twice per interface
by P.polyval, ghost layers re-evaluated every step, and the result built by
the checking Field constructor.  The optimized step must reproduce its bytes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

import shocklab as sl
from shocklab import solver
from shocklab.errors import CFLViolation, ShockLabError
from shocklab.fluxes import critical_points
from shocklab.solver import Background, StepStats, numerical_flux, stable_dt

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


def _range_lam(coeffs, a, b):
    """max |g'| over the whole range of the states a and b: the bound that
    `step` takes per step, and `numerical_flux`'s default."""
    lo, hi = min(np.min(a), np.min(b)), max(np.max(a), np.max(b))
    return float(np.max(_ref_lambda_max(np.asarray(coeffs, dtype=float), lo, hi)))


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
        for lam in (_range_lam(coeffs, a, b), 2.5):
            lam = None if kind != "rusanov" else lam
            got = np.asarray(numerical_flux(coeffs, a, b, kind, lam=lam))
            want = np.asarray(_ref_flux(coeffs, a, b, kind, lam=lam))
            assert got.tobytes() == want.tobytes(), coeffs
        for s, r in [(1.0, -1.0), (-0.0, 0.0), (0.3, 0.3)]:
            got = float(numerical_flux(coeffs, s, r, kind))
            want = float(_ref_flux(coeffs, np.asarray(s), np.asarray(r), kind))
            assert np.array(got).tobytes() == np.array(want).tobytes()


# coefficients and states where a step of P.polyval can be an identity or
# not: signed zeros, subnormals, squares that underflow and ones that overflow.
# The other coefficients stay above 1e-3 in size: the Engquist-Osher split
# needs the roots of g', and a tiny leading coefficient overflows them.
COEFFICIENTS = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 1e-3)), min_size=1, max_size=6)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e200, -1e200]
STATES = st.lists(st.tuples(*[st.one_of(st.sampled_from(EDGES), st.floats(-3.0, 3.0))] * 2),
                  min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(coeffs=COEFFICIENTS, states=STATES)
@example(coeffs=[0.0, 1.0, -0.0], states=[(2.0, -3.0), (-0.0, 0.0)])  # c[-1] = -0.0
@example(coeffs=[0.0, 0.0, 0.0, 1.0], states=[(-1e-160, 1e200), (-5e-324, -1e200)])
def test_horner_plan_and_fluxes_match_polyval_bit_for_bit(coeffs, states):
    c = np.array(coeffs)
    a, b = np.array(states).T
    with np.errstate(all="ignore"):
        plan = solver._compiled(solver._key(c))["plan"]
        for x in (a, b, a[0]):
            assert np.asarray(solver._horner(plan, x)).tobytes() == \
                np.asarray(P.polyval(x, c)).tobytes(), (coeffs, x)
        for kind, lam in (("rusanov", _range_lam(c, a, b)), ("rusanov", 2.5),
                          ("engquist-osher", None)):
            got = np.asarray(numerical_flux(coeffs, a, b, kind, lam=lam))
            want = np.asarray(_ref_flux(coeffs, a, b, kind, lam=lam))
            assert got.tobytes() == want.tobytes(), (coeffs, kind, lam)


@settings(max_examples=100, deadline=None)
@given(coeffs=COEFFICIENTS, states=STATES)
@example(coeffs=[0.0, 0.0, 0.0, 1.0], states=[(-2.0, 0.5), (0.25, 1.0)])  # g' peaks at -2
def test_rusanov_default_lam_is_the_range_wide_bound(coeffs, states):
    a, b = np.array(states).T
    with np.errstate(all="ignore"):
        got = np.asarray(numerical_flux(coeffs, a, b))
        want = np.asarray(_ref_flux(coeffs, a, b, "rusanov", lam=_range_lam(coeffs, a, b)))
    assert got.tobytes() == want.tobytes(), coeffs


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
    ghosts, _ = solver._ghost_values(f, scheme, bg, 7.0)
    assert ghosts is solver._ghost_values(f, scheme, bg, 0.0)[0]
    for v in ghosts.values():
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 0.0


def test_one_background_on_two_grids(planar11):
    bg = Background(lambda p: p[..., 0] + 2.0 * p[..., 1], np.zeros(2))
    scheme = sl.SchemeConfig()
    for g in (sl.Grid.from_box((-2, 2, -2, 2), (8, 8)),
              sl.Grid.from_box((-1, 3, 0, 2), (12, 6))):
        ghosts, _ = solver._ghost_values(sl.Field(g, np.zeros(g.counts)), scheme, bg, 0.0)
        assert ghosts[(0, 0)].shape == (g.counts[1],)
        assert ghosts[(1, 1)].shape == (g.counts[0],)
        assert np.array_equal(ghosts[(0, 0)], g.lo[0] - 0.5 * g.dx + 2.0 * g.centers(1))
        assert np.array_equal(ghosts[(1, 1)], g.centers(0) + 2.0 * (g.hi[1] + 0.5 * g.dx))


def test_moving_background_ghosts_follow_time():
    bg = Background(lambda p: p[..., 0] - p[..., 1], np.array([0.5, 0.0]))
    g = sl.Grid.from_box((-2, 2, -2, 2), (8, 8))
    f = sl.Field(g, np.zeros(g.counts))
    scheme = sl.SchemeConfig()
    early, _ = solver._ghost_values(f, scheme, bg, 0.0)
    late, _ = solver._ghost_values(f, scheme, bg, 0.4)
    for key in early:
        assert np.allclose(late[key], early[key] - 0.2)
    assert bg._layers[g].horizon == 0.0  # a moving function is evaluated at every call


# -- the compiled Engquist-Osher flux against its form before sign runs ------------
#
# Below is `_plan`, `_compiled`, `_horner` and the Engquist-Osher sum as they were
# before two pieces of one sign meeting at 0 became one piece and the last + 0.0
# of an even monomial went: every sign interval of g' is its own clipped piece.

def _old_plan(c, full):
    n = len(c)
    if full:
        steps = [(True, 0.0), (False, float(c[-1]))]
    else:
        steps = [] if c[-1] == 1.0 else [(True, float(c[-1]))]
    for i in range(2, n + 1):
        if full or i > 2:
            steps.append((True, None))
        if full or c[-i] != 0.0 or i == n:
            steps.append((False, float(c[-i])))
    return tuple(steps)


def _old_compiled(c):
    c = np.asarray(c, dtype=float)
    dc = P.polyder(c)
    full = len(c) == 1 or bool(np.any(np.signbit(c) & (c == 0.0)))

    def shift(v):
        return v if full or v != 0.0 else None

    edges = np.concatenate([[-np.inf], critical_points(c), [np.inf]])
    mids = []
    for l, r in zip(edges[:-1], edges[1:]):
        if np.isinf(l) and np.isinf(r):
            mids.append(0.0)
        else:
            mids.append(r - 1.0 if np.isinf(l) else l + 1.0 if np.isinf(r) else 0.5 * (l + r))
    signs = P.polyval(np.array(mids), dc)
    pos, neg = [], []
    for k in range(len(edges) - 1):
        l, r = edges[k], edges[k + 1]
        piece = (l, r, shift(P.polyval(float(np.clip(0.0, l, r)), c)))
        if signs[k] > 0:
            pos.append(piece)
        elif signs[k] < 0:
            neg.append(piece)
    return {"plan": _old_plan(c, full), "full": full,
            "g0": shift(float(P.polyval(0.0, c))), "pos": pos, "neg": neg}


def _old_horner(plan, x):
    out = x
    for multiply, v in plan:
        v = x if v is None else v
        if out is x:
            out = x * v if multiply else x + v
        elif multiply:
            out *= v
        else:
            out += v
    return out


def _old_engquist_osher(data, a, b):
    def part(side, x):
        total = None
        for l, r, g_c0 in data[side]:
            p = _old_horner(data["plan"], np.clip(x, l, r))
            if g_c0 is not None:
                p -= g_c0
            if total is None:
                if data["full"]:
                    p += 0.0
                total = p
            else:
                total += p
        return total

    f = part("pos", a)
    if f is None:
        f = np.zeros_like(a)
    if data["g0"] is not None:
        f += data["g0"]
    neg = part("neg", b)
    if neg is not None:
        f += neg
    elif data["full"]:
        f += 0.0
    return f


COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.5]),
                  st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 1e-3))
NONZERO = COEFF.filter(lambda v: v != 0.0)
POLYNOMIALS = st.one_of(
    # g'(0) = g''(0) = 0: a double (or triple, ...) root of g' at 0
    st.tuples(COEFF, NONZERO, st.lists(COEFF, max_size=2)).map(
        lambda t: [t[0], 0.0, 0.0, t[1]] + t[2]),
    # g' = k (x - r)^2, a double root away from 0, with exact coefficients
    st.tuples(st.sampled_from([-2.0, -0.5, 0.25, 1.0, 1.5]),
              st.sampled_from([-6.0, -3.0, 0.75, 3.0]), COEFF).map(
        lambda t: [t[2] - t[1] * t[0] ** 3 / 3, t[1] * t[0] ** 2, -t[1] * t[0], t[1] / 3]),
    # even and odd monomials, either sign, with +0.0 or -0.0 below them
    st.tuples(st.integers(1, 6), NONZERO, st.sampled_from([0.0, -0.0])).map(
        lambda t: [t[2]] * t[0] + [t[1]]),
    st.lists(COEFF, min_size=1, max_size=6),
)
EO_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e-160, -1e-160,
            1e150, -1e150, 1e200, -1e200]
EO_STATES = st.lists(st.tuples(*[st.one_of(st.sampled_from(EO_EDGES),
                                           st.floats(-3.0, 3.0))] * 2),
                     min_size=1, max_size=12)


@settings(max_examples=400, deadline=None)
@given(coeffs=POLYNOMIALS, states=EO_STATES)
@example(coeffs=[0.0, 0.0, 0.0, 1.0], states=[(-0.0, 0.0), (0.0, -0.0), (-2.0, 1e150)])
@example(coeffs=[-0.0, 0.0, 0.0, 1.0], states=[(-0.0, 0.0), (-5e-324, 5e-324)])
@example(coeffs=[0.0, 0.0, 0.0, 0.0, 1.0], states=[(-0.0, -1e-160), (1e150, -1e150)])
@example(coeffs=[0.0, 0.0, -1.0], states=[(-0.0, 0.0), (-1e-160, 1e-160)])
@example(coeffs=[-1.0, 3.0, -3.0, 1.0], states=[(0.5, 2.0), (1.0, -0.0)])
def test_compiled_flux_matches_the_form_before_sign_runs(coeffs, states):
    c = np.array(coeffs, dtype=float)
    a, b = np.array(states).T
    with np.errstate(all="ignore"):
        try:
            old = _old_compiled(c)
        except ShockLabError:
            return  # roots that overflow: both forms raise DegenerateFlux
        new = solver._compiled(solver._key(c))
        for x in (a, b, a[0]):
            assert np.asarray(solver._horner(new["plan"], x)).tobytes() == \
                np.asarray(_old_horner(old["plan"], x)).tobytes(), (coeffs, x)
        got = np.asarray(numerical_flux(c, a, b, "engquist-osher"))
        want = np.asarray(_old_engquist_osher(old, a, b))
        assert got.tobytes() == want.tobytes(), coeffs


def test_sign_runs_merge_only_at_zero():
    cube = solver._compiled(solver._key((0.0, 0.0, 0.0, 1.0)))
    assert [p[:2] for p in cube["pos"]] == [(-np.inf, np.inf)] and cube["neg"] == []
    assert len(_old_compiled([0.0, 0.0, 0.0, 1.0])["pos"]) == 2
    # (x - 1)^3: a double root of g' near 1, where the two pieces shift by
    # g(0) and about g(1) and stay apart
    (l0, r0, s0), (l1, r1, s1) = solver._compiled(solver._key((-1.0, 3.0, -3.0, 1.0)))["pos"]
    assert (l0, r1) == (-np.inf, np.inf) and r0 == l1 == pytest.approx(1.0) and s0 != s1
    # x^2 and x^4 end without + 0.0; -x^2 and x^3 keep it
    for coeffs, last in (((0.0, 0.0, 1.0), (True, None)), ((0.0, 0.0, 0.0, 0.0, 2.0), (True, None)),
                         ((0.0, 0.0, -1.0), (False, 0.0)), ((0.0, 0.0, 0.0, 1.0), (False, 0.0))):
        assert solver._compiled(solver._key(coeffs))["plan"][-1] == last, coeffs


# -- elementwise passes of the flux ------------------------------------------------

def _eo_passes(data) -> int:
    """Elementwise passes of one `_engquist_osher` call, read from the compiled
    plan and pieces: per piece its clip (none over the whole line), the steps
    of the plan and its shift; the + 0.0 that starts a full plan's sum; one
    add per further piece; the zeros of an empty positive part, the g(0)
    shift, and the add of the negative part (or of its zeros)."""
    n = 0
    for side in ("pos", "neg"):
        pieces = data[side]
        for l, r, g_c0 in pieces:
            n += (not (l == -np.inf and r == np.inf)) + len(data["plan"]) + (g_c0 is not None)
        n += max(len(pieces) - 1, 0) + (bool(pieces) and data["full"])
    return (n + (not data["pos"]) + (data["g0"] is not None)
            + (bool(data["neg"]) or data["full"]))


class _Counted(np.ndarray):
    """An array that counts the ufunc calls made on it."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Counted.calls += 1
        args = [x.view(np.ndarray) if isinstance(x, _Counted) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, _Counted) else o
                                  for o in out)
        result = getattr(ufunc, method)(*args, **kwargs)
        if out is not None:
            return out[0]
        return result.view(_Counted) if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("flux", ["burgers-3d", "burgers-3d-reduced", "burgers-2d"])
def test_flux_passes_per_step(flux, rng):
    # Burgers: (u^2, u^3, u^4) in 3-D, (u^2, u^3) in 2-D
    pair = sl.make_shock_pair(sl.burgers_flux(3 if "3d" in flux else 2), 1.0, -1.0)
    coeffs = pair.reduced.coeffs if "reduced" in flux else pair.flux.coeffs
    passes = []
    for c in coeffs:
        data = solver._compiled(solver._key(c))
        a, b = (_data(rng, (4, 3)).view(_Counted) for _ in range(2))
        _Counted.calls = 0
        solver._engquist_osher(data, a, b)
        assert _Counted.calls == _eo_passes(data), c  # the count is what the kernel runs
        passes.append(_eo_passes(data))
    # per axis: u^2 and u^4 a clip and the plan per sign and one add; u^3 one
    # unclipped plan.  Before sign runs and the even-monomial rule these were
    # 27, 37 and 16 passes
    ceiling = {"burgers-3d": 17, "burgers-3d-reduced": 33, "burgers-2d": 8}[flux]
    assert sum(passes) <= ceiling, passes


# -- slabs of the 3-D step --------------------------------------------------------

SLAB_GRID = sl.Grid.from_box((-1.2, 1.2, -0.6, 0.6, -0.4, 0.4), (12, 6, 4))  # 24-cell rows


def _tilt3(p):
    return np.tanh(3.0 * p[..., 0] - p[..., 1] + 0.5 * p[..., 2])


@pytest.mark.parametrize("slab_cells", [1, 5 * 24])  # one row; 5 rows, which do not divide 12
@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
@pytest.mark.parametrize("background", ["at-rest", "steady", "moving"])
def test_slabbed_3d_steps_match_reference(slab_cells, kind, background, rng, monkeypatch):
    g = SLAB_GRID
    monkeypatch.setattr(solver, "SLAB_CELLS", slab_cells)
    if background == "at-rest":
        # a constant state is a fixed point: the band holds the bump's rows
        bg = sl.constant_background(0.5, 3)
        v = np.full(g.counts, 0.5)
        v[4:7] = rng.uniform(0.5, 0.9, (3,) + g.counts[1:])
    else:
        bg = Background(_tilt3, np.array([0.4, -0.3, 0.2]) if background == "moving"
                        else np.zeros(3))
        v = _data(rng, g.counts)
    scheme = sl.SchemeConfig(numerical_flux=kind)
    pair = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
    guard = (-1.0, 1.0)  # one lambda for every step, so the band's cells are skipped
    cells = []
    for flux in (pair.flux, pair.reduced):
        u0 = sl.Field(g, v)
        dt = stable_dt(flux, g, scheme, *guard)
        want = u0
        for k, t, fields, stats in solver.evolve([(u0, bg)], scheme, flux, dt, 7, guard):
            want, want_stats = _ref_step(want, scheme, flux, bg, (k - 1) * dt, dt, guard)
            assert fields[0].values.tobytes() == want.values.tobytes(), (k, flux.coeffs)
            assert _bits(stats[0]) == _bits(want_stats), (k, flux.coeffs)
            cells.append(stats[0].cells)
    assert cells[0] == cells[7] == g.ncells  # the first step runs every cell
    if background == "at-rest":
        # every changed row changes across its whole width, so the boxes are
        # whole rows: bands inside the grid, in several slabs, the last one short
        rows = max(1, slab_cells // 24)
        assert all(c % 24 == 0 for c in cells), cells
        assert any(rows < c // 24 < 12 for c in cells), cells
        assert rows == 1 or any(c // 24 % rows for c in cells), cells


@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
def test_a_slab_with_an_empty_box_runs_no_cell(kind, rng, monkeypatch):
    # two bumps far apart along axis 0: the band's rows run from one to the
    # other, and the two-row slabs between them have empty boxes
    g = sl.Grid.from_box((-3.2, 3.2, -0.6, 0.6, -0.4, 0.4), (32, 6, 4))  # 24-cell rows
    monkeypatch.setattr(solver, "SLAB_CELLS", 2 * 24)
    bg = sl.constant_background(0.5, 3)
    v = np.full(g.counts, 0.5)
    for bump in (slice(3, 5), slice(27, 29)):
        v[bump] = rng.uniform(0.5, 0.9, (2,) + g.counts[1:])
    scheme = sl.SchemeConfig(numerical_flux=kind)
    flux = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0).flux
    guard = (-1.0, 1.0)  # one lambda for every step, so the band's cells are skipped
    dt = stable_dt(flux, g, scheme, *guard)
    u0 = sl.Field(g, v)
    want, moved, skipped = u0, None, 0
    for k, t, fields, stats in solver.evolve([(u0, bg)], scheme, flux, dt, 6, guard):
        before = want.values
        want, want_stats = _ref_step(want, scheme, flux, bg, (k - 1) * dt, dt, guard)
        assert fields[0].values.tobytes() == want.values.tobytes(), k
        assert _bits(stats[0]) == _bits(want_stats), k
        if moved is None:
            assert stats[0].cells == g.ncells  # the first step runs every cell
        else:
            # every changed row changes across its whole width, so a slab with
            # a row next to a row that changed in the last step runs its whole
            # rows, and a slab without one runs no cell
            near = {r + i for r in moved for i in (-1, 0, 1) if 0 <= r + i < g.counts[0]}
            a, b = min(near), max(near) + 1
            live = [s for s in range(a, b, 2) if near & {s, s + 1}]
            skipped += len(range(a, b, 2)) - len(live)
            assert stats[0].cells == 24 * sum(min(s + 2, b) - s for s in live), (k, stats[0].cells)
        changed = before.view(np.int64) != want.values.view(np.int64)
        moved = set(np.flatnonzero(changed.any(axis=(1, 2))).tolist())
    assert skipped, "no slab inside the band had an empty box"


def test_the_slab_loop_calls_no_numpy_wrapper(monkeypatch):
    # np.clip, np.all and np.moveaxis dispatch in Python before the ufunc or
    # transpose they end in, at about 3 us a call; a 3-D step calls those
    # directly.  The set-up of simulate-3d, with steps that skip cells
    pair = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
    prof = sl.make_planar(pair, sl.dual_cone(sl.admissible_cone(pair, 0.05)), [0.58, 0.0, 0.81])
    bg = sl.profile_background(prof, moving=True)
    g = sl.Grid.from_box((-1.6, 1.6, -0.6, 0.6, -1.6, 1.6), (16, 6, 16))
    scheme = sl.SchemeConfig(numerical_flux="engquist-osher", frame="original")
    u0 = sl.Field(g, solver.sample_profile(prof, g).values + solver.sample_function(
        sl.PerturbationSpec("bump", (0.0, 0.0, 0.0), 0.4, 0.3), g).values)
    guard = solver.field_range(u0, scheme, bg)
    dt = stable_dt(pair.flux, g, scheme, *guard)

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy Python wrapper was called")

    for name in ("clip", "all", "moveaxis"):
        monkeypatch.setattr(np, name, refuse)
    cells = [s[0].cells for *_, s in solver.evolve([(u0, bg)], scheme, pair.flux, dt, 8, guard)]
    assert cells[0] == g.ncells and all(0 < c < g.ncells for c in cells[1:]), cells


# -- the band of moving backgrounds and the box of each 3-D slab ----------------------

MOVING_GRIDS = {2: sl.Grid.from_box((-1.2, 1.2, -0.8, 0.8), (12, 8)), 3: SLAB_GRID}


def _cone(center, radius):
    """0.5 plus a cone of height 0.3: exactly 0.5 outside the given radius."""
    center = np.asarray(center, dtype=float)

    def fn(p):
        r = np.sqrt(np.sum((p - center) ** 2, axis=-1))
        return 0.5 + 0.3 * np.maximum(0.0, 1.0 - r / radius)

    return fn


def _ghost_bits(g, bg, t):
    """The bits of every ghost layer of a background at time t."""
    layers = (bg.eval(solver._ghost_points(g, ax, side), t) for ax in range(g.d) for side in (0, 1))
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in layers)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
@pytest.mark.parametrize("background", ["tilt", "cone-on-axis-0", "cone-on-last-axis"])
def test_moving_ghosts_run_the_cells_next_to_them(d, kind, background):
    g = MOVING_GRIDS[d]
    scheme = sl.SchemeConfig(numerical_flux=kind)
    flux = sl.make_shock_pair(sl.burgers_flux(d), 1.0, -1.0).flux
    guard = (-1.0, 1.0)  # one lambda for every step, so the band's cells are skipped
    dt = stable_dt(flux, g, scheme, *guard)
    if background == "tilt":
        # every ghost changes at every step
        tilt = _tilt3 if d == 3 else (lambda p: np.tanh(3.0 * p[..., 0] - p[..., 1]))
        bg = Background(tilt, np.array([0.4, -0.3, 0.2][:d]))
    else:
        # the peak sits on a ghost of an upper face at t = 0, so the start range
        # holds the cone's values; the cone then slides along the face by 1.25
        # cells a step, faster than a change spreads, so ghosts change next to
        # cells at rest
        face = 0 if background == "cone-on-axis-0" else d - 1
        slide = d - 1 if face == 0 else 0
        center = [g.hi[ax] + (0.5 if ax == face else -0.5) * g.dx for ax in range(d)]
        velocity = np.zeros(d)
        velocity[slide] = -1.25 * g.dx / dt
        bg = Background(_cone(center, 1.5 * g.dx), velocity)
    u0 = sl.Field(g, np.full(g.counts, 0.5))
    want = u0
    cells, moved = [], []
    for k, t, fields, stats in solver.evolve([(u0, bg)], scheme, flux, dt, 8, guard):
        want, want_stats = _ref_step(want, scheme, flux, bg, (k - 1) * dt, dt, guard)
        assert fields[0].values.tobytes() == want.values.tobytes(), k
        assert _bits(stats[0]) == _bits(want_stats), k
        cells.append(stats[0].cells)
        moved.append(k > 1 and
                     _ghost_bits(g, bg, (k - 1) * dt) != _ghost_bits(g, bg, (k - 2) * dt))
    assert cells[0] == g.ncells
    # a step after a ghost changed runs every cell
    assert any(moved)
    assert all(c == g.ncells for c, m in zip(cells, moved) if m), (cells, moved)


@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
def test_a_front_moving_along_itself_skips_cells(kind, monkeypatch):
    # as in simulate-3d: the 3-D Burgers front with normal (0.58, 0, 0.81)
    # stands still along its normal and moves along y, in which it is
    # invariant, so its ghost layers keep their bits from step to step
    monkeypatch.setattr(solver, "SLAB_CELLS", 2 * 96)  # two-row slabs
    pair = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
    prof = sl.make_planar(pair, sl.dual_cone(sl.admissible_cone(pair, 0.05)), [0.58, 0.0, 0.81])
    bg = sl.profile_background(prof, moving=True)
    assert bg.moving
    g = sl.Grid.from_box((-1.6, 1.6, -0.6, 0.6, -1.6, 1.6), (16, 6, 16))
    scheme = sl.SchemeConfig(numerical_flux=kind, frame="original")
    u0 = sl.Field(g, solver.sample_profile(prof, g).values + solver.sample_function(
        sl.PerturbationSpec("bump", (0.0, 0.0, 0.0), 0.4, 0.3), g).values)
    guard = solver.field_range(u0, scheme, bg)
    dt = stable_dt(pair.flux, g, scheme, *guard)
    want = u0
    cells = []
    for k, t, fields, stats in solver.evolve([(u0, bg)], scheme, pair.flux, dt, 8, guard):
        want, want_stats = _ref_step(want, scheme, pair.flux, bg, (k - 1) * dt, dt, guard)
        assert fields[0].values.tobytes() == want.values.tobytes(), k
        assert _bits(stats[0]) == _bits(want_stats), k
        cells.append(stats[0].cells)
    assert cells[0] == g.ncells and all(0 < c < g.ncells for c in cells[1:]), cells


def test_a_signed_zero_change_widens_the_box():
    # a slab's box and the ghost diff compare as int64, so a -0.0 that became
    # 0.0 has changed (float != would miss it), as in _moved_rows
    counts = (10, 6, 5)
    old = np.zeros(counts)
    box = (slice(2, 5), slice(1, 5), slice(0, 4))  # the cells a slab of rows 2..4 ran

    def reach(i, j, k):
        """The box each row must run after cell (i, j, k) changed: the cell
        widened by one in its row, the cell itself in the rows next to it."""
        want = {}
        for row, w in ((i - 1, 0), (i, 1), (i + 1, 0)):
            if 0 <= row < counts[0]:
                want[row] = ([max(j - w, 0), max(k - w, 0)],
                             [min(j + w + 1, counts[1]), min(k + w + 1, counts[2])])
        return want

    def boxes(lo, hi):
        return {row: (lo[:, row].tolist(), hi[:, row].tolist())
                for row in range(counts[0]) if np.all(lo[:, row] < hi[:, row])}

    for corner in [(i, j, k) for i in (2, 4) for j in (1, 4) for k in (0, 3)]:
        new = old.copy()
        new[corner] = -0.0  # equal to 0.0 under float !=
        for a, b in ((old, new), (new, old)):
            changed = [np.zeros((counts[0], n), dtype=bool) for n in counts[1:]]
            solver._mark(changed, a[box].view(np.int64) != b[box].view(np.int64), box)
            assert boxes(*solver._widen(*solver._extents(changed), counts)) == reach(*corner)
    changed = [np.zeros((counts[0], n), dtype=bool) for n in counts[1:]]
    solver._mark(changed, old[box].view(np.int64) != old[box].copy().view(np.int64), box)
    assert boxes(*solver._widen(*solver._extents(changed), counts)) == {}
    # a ghost whose zero changed sign resets the band: -0.0 left of the
    # background's x = 0, 0.0 right of it, moved by one cell a step along
    # axis 0 changes the ghosts of the faces along axes 1 and 2 at every
    # step, while moved along axis 1, in which it is invariant, it keeps them
    g = sl.Grid.from_box((-1.0, 1.0, -0.6, 0.6, -0.5, 0.5), (10, 6, 5))
    scheme = sl.SchemeConfig()
    flux = sl.burgers_flux(3)
    guard = (-1.0, 1.0)
    dt = stable_dt(flux, g, scheme, *guard)
    u0 = sl.Field(g, np.zeros(g.counts))
    for axis in (0, 1):
        velocity = np.zeros(3)
        velocity[axis] = g.dx / dt
        bg = Background(lambda p: np.copysign(0.0, p[..., 0]), velocity)
        want = u0
        cells = []
        for k, t, fields, stats in solver.evolve([(u0, bg)], scheme, flux, dt, 4, guard):
            want, want_stats = _ref_step(want, scheme, flux, bg, (k - 1) * dt, dt, guard)
            assert fields[0].values.tobytes() == want.values.tobytes(), (axis, k)
            assert _bits(stats[0]) == _bits(want_stats), (axis, k)
            cells.append(stats[0].cells)
        assert cells[0] == g.ncells
        assert all((c == g.ncells) == (axis == 0) for c in cells[1:]), (axis, cells)
