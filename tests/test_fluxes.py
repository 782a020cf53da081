import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as P

import shocklab as sl
from shocklab.cones import _fibonacci_sphere
from shocklab.errors import DegenerateFlux, EqualStates, WrongOrder
from shocklab.fluxes import NondegeneracyResult, component_abs_max, critical_points, is_burgers
from shocklab.solver import numerical_flux


def test_eval_flux_burgers_values(burgers2):
    assert np.allclose(burgers2.value(1.0), [1.0, 1.0])
    assert np.allclose(burgers2.value(0.0, order=1), [0.0, 0.0])
    assert np.allclose(sl.burgers_flux(3).value(2.0), [4.0, 8.0, 16.0])


def test_flux_requires_coefficients():
    with pytest.raises(ValueError):
        sl.Flux(((),))
    with pytest.raises(ValueError):
        sl.Flux(())


def test_flux_keys_are_made_once_and_leave_equality_alone():
    unsigned, signed = sl.Flux(((0.0, -1.0), (0.5,))), sl.Flux(((-0.0, -1.0), (0.5,)))
    assert unsigned.keys is unsigned.keys  # made once per flux
    assert unsigned.keys == tuple(np.asarray(c, dtype=float).tobytes() for c in unsigned.coeffs)
    assert unsigned.keys[0] != signed.keys[0] and unsigned.keys[1] == signed.keys[1]
    # equality and hashing read the coefficients alone, as before
    assert unsigned == signed and hash(unsigned) == hash(signed)
    assert unsigned == sl.Flux(unsigned.coeffs) and "keys" not in repr(unsigned)


def test_derivative_of_constant_component_is_zero():
    f = sl.Flux(((5.0,), (1.0, 2.0)))
    assert np.allclose(f.value(3.0, order=2), [0.0, 0.0])


@pytest.mark.parametrize("coeffs", [(0, 0, 1, 1e-310), (0, 0, 1e10, 1e-300)])
def test_tiny_leading_coefficient_is_a_typed_error(coeffs):
    # the companion matrix of p' divides by its leading coefficient
    with pytest.raises(DegenerateFlux, match="leading coefficient"):
        critical_points(coeffs)
    for kind in ("rusanov", "engquist-osher"):
        with pytest.raises(DegenerateFlux):
            numerical_flux(coeffs, 1.0, 0.5, kind)


def test_critical_points_of_a_derivative_that_overflows_are_a_typed_error(pair11):
    # p' = [-1e308, 0, inf]: the companion matrix would divide by inf and
    # give the roots [0, 0], where p / 1e308 has -+0.577
    with np.errstate(over="ignore"), pytest.raises(DegenerateFlux, match="overflows"):
        critical_points([0.0, -1e308, 0.0, 1e308])
    # and the exact chord test would miss the interior maximum that refuses
    # the direction (0, 1)
    assert not sl.oleinik_admissible(pair11, [0.0, 1.0]).admissible
    with np.errstate(over="ignore"), pytest.raises(DegenerateFlux):
        sl.oleinik_admissible(pair11, [0.0, 1e308])
    # a chord test sampled at Chebyshev points admitted this one with worst
    # inf, since its slack was inf too
    with np.errstate(over="ignore"), pytest.raises(
            DegenerateFlux, match=r"the derivative \[1e\+308, inf, -inf\] overflows"):
        sl.oleinik_admissible(pair11, [1e308, -1e308])


def test_make_shock_pair_symmetric(burgers2):
    p = sl.make_shock_pair(burgers2, 1.0, -1.0)
    assert np.allclose(p.velocity, [0.0, 1.0])
    assert p.reduced.coeffs == ((0.0, 0.0, 1.0), (0.0, -1.0, 0.0, 1.0))
    assert np.allclose(p.f_bar, [1.0, 0.0])


def test_make_shock_pair_one_zero(burgers2):
    p = sl.make_shock_pair(burgers2, 1.0, 0.0)
    assert np.allclose(p.velocity, [1.0, 1.0])
    assert p.reduced.coeffs == ((0.0, -1.0, 1.0), (0.0, -1.0, 0.0, 1.0))


def test_make_shock_pair_errors(burgers2):
    with pytest.raises(EqualStates):
        sl.make_shock_pair(burgers2, 0.5, 0.5)
    with pytest.raises(WrongOrder):
        sl.make_shock_pair(burgers2, -1.0, 1.0)


def test_pair_invariants_random(burgers2, rng):
    for _ in range(50):
        lo, hi = np.sort(rng.uniform(-2, 2, 2))
        if hi - lo < 1e-3:
            continue
        p = sl.make_shock_pair(burgers2, hi, lo)
        scale = max(1.0, float(np.max(np.abs(p.f_bar))))
        assert np.max(np.abs(p.reduced.value(p.u_plus) - p.f_bar)) <= 1e-12 * scale
        lhs = p.velocity * (p.u_plus - p.u_minus)
        rhs = burgers2.value(p.u_plus) - burgers2.value(p.u_minus)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(1.0, np.max(np.abs(rhs)))


def test_normal_speed(pair11):
    # the chord test's Rankine-Hugoniot normal speed sigma = xi . v, extended
    # to any xi, read back from its second Lax margin xi . f'(u_minus) - sigma
    for xi, sigma in (([1.0, 0.0], 0.0), ([0.0, 1.0], 1.0), ([0.0, 0.0], 0.0)):
        res = sl.oleinik_admissible(pair11, xi)
        assert np.dot(xi, pair11.flux.value(pair11.u_minus, 1)) - res.lax_margins[1] == sigma


def test_oleinik_admissible_direction(pair11):
    res = sl.oleinik_admissible(pair11, [1.0, 0.0])
    assert res.admissible
    assert res.worst_violation == 0.0
    assert res.lax_margins == (2.0, 2.0)


def test_oleinik_inadmissible_direction(pair11):
    res = sl.oleinik_admissible(pair11, [0.0, 1.0])
    assert not res.admissible
    # max of s^3 - s over (-1, 1) is 2/(3 sqrt 3) ~ 0.385, found near s = -0.577
    assert res.worst_violation >= 0.37


def test_oleinik_zero_direction(pair11):
    res = sl.oleinik_admissible(pair11, [0.0, 0.0])
    assert res.admissible
    assert res.lax_margins == (0.0, 0.0)


def test_oleinik_homogeneity(pair11, rng):
    for _ in range(30):
        xi = rng.normal(size=2)
        c = rng.uniform(0.1, 10)
        a = sl.oleinik_admissible(pair11, xi)
        b = sl.oleinik_admissible(pair11, c * xi)
        assert a.admissible == b.admissible


def test_oleinik_convexity(pair11, rng):
    found = 0
    while found < 25:
        xi1, xi2 = rng.normal(size=(2, 2))
        if (sl.oleinik_admissible(pair11, xi1).admissible
                and sl.oleinik_admissible(pair11, xi2).admissible):
            assert sl.oleinik_admissible(pair11, xi1 + xi2).admissible
            found += 1


def test_oleinik_exact_mode_matches_dense_sampling(pair11, rng):
    # the oracle: the chord excess at 20,000 Chebyshev points, with the
    # sampled test's slack
    s = pair11.chebyshev_nodes(20000)
    for _ in range(20):
        xi = rng.normal(size=2)
        fast = sl.oleinik_admissible(pair11, xi)
        sigma = float(xi @ pair11.velocity)
        vals = xi @ pair11.flux.value(s) - sigma * s
        ref = float(xi @ pair11.flux.value(pair11.u_minus)) - sigma * pair11.u_minus
        worst = max(float(np.max(vals - ref)), 0.0)
        slack = 1e-12 * max(1.0, abs(ref), float(np.max(np.abs(vals))))
        assert fast.admissible == (worst <= slack)
        assert abs(fast.worst_violation - worst) <= 1e-6


def _polyval_chord_test(pair, xis):
    """`oleinik_admissible_many` with one `critical_points` call per row in
    place of the stacked root solve."""
    sigma = np.vecdot(xis, pair.velocity)
    e = np.zeros((len(xis), max(max(len(c) for c in pair.flux.coeffs), 2)))
    for i, c in enumerate(pair.flux.coeffs):
        e[:, : len(c)] += xis[:, i : i + 1] * np.asarray(c)
    e[:, 1] -= sigma
    ref = P.polyval(pair.u_minus, e.T)
    crits = [c[(c > pair.u_plus) & (c < pair.u_minus)] for c in map(critical_points, e)]
    pts = np.full((len(e), max(map(len, crits), default=0) + 2), pair.u_minus)
    for row, crit in zip(pts, crits):
        row[: len(crit)] = crit
    pts[:, -2] = pair.u_plus
    vals = P.polyval(pts, e.T[..., None], tensor=False)
    worst = np.maximum(np.max(vals - ref[:, None], axis=1), 0.0)
    peak = np.max(np.abs(vals), axis=1)
    tol = 1e-14 * np.fmax(np.fmax(1.0, np.abs(ref)), peak)
    lax = np.stack([sigma - np.vecdot(xis, pair.flux.value(pair.u_plus, 1)),
                    np.vecdot(xis, pair.flux.value(pair.u_minus, 1)) - sigma], axis=1)
    return worst <= tol, worst, lax


CHORD_FLUXES = {
    "burgers-2": sl.burgers_flux(2),
    "burgers-3": sl.burgers_flux(3),
    "odd-3": sl.Flux(((0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0))),
    "mixed-2": sl.Flux(((0.0, 1.0, -3.0, 0.0, 2.0), (0.5, 0.0, 0.0, -1.0))),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CHORD_FLUXES)), states=st.sampled_from([(1.0, -1.0), (2.0, 0.5)]),
       n=st.sampled_from([1, 2, 17, 257]), overflow=st.booleans(), seed=st.integers(0, 2**32 - 1))
# the derivative of the excess polynomial overflows: both raise
@example(name="burgers-2", states=(1.0, -1.0), n=1, overflow=True, seed=-1)
def test_chord_test_keeps_the_bits_of_polyval_blocks(name, states, n, overflow, seed):
    """Every admissibility bit, worst and lax equals the per-row reference's,
    also in rows whose values overflow to inf or NaN; each row's scale is
    1, 1e150, 1e300 or, with overflow, 1.7e308, so one call mixes them.  A
    test whose critical points overflow raises the same error on both."""
    pair = sl.make_shock_pair(CHORD_FLUXES[name], *states)
    with np.errstate(all="ignore"):
        if seed < 0:
            xis = np.full((n, pair.d), -1.7e308)
        else:
            rng = np.random.default_rng(seed)
            scale = rng.choice([1.0, 1e150, 1e300, 1.7e308][: 3 + overflow], size=(n, 1))
            xis = rng.standard_normal((n, pair.d)) * scale
        try:
            want = _polyval_chord_test(pair, xis)
        except DegenerateFlux as err:
            with pytest.raises(DegenerateFlux, match=re.escape(str(err))):
                sl.oleinik_admissible_many(pair, xis)
            return
        got = sl.oleinik_admissible_many(pair, xis)
    assert got.admissible.tobytes() == want[0].tobytes()
    assert got.worst.tobytes() == want[1].tobytes()
    assert got.lax.tobytes() == want[2].tobytes()


def test_chord_test_holds_one_block_at_a_time():
    # the 3-D cone's call: 4,096 directions
    pair = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
    dirs = _fibonacci_sphere(4096)
    tracemalloc.start()
    try:
        sl.oleinik_admissible_many(pair, dirs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_lax_margins_nonnegative_when_admissible(pair11, rng):
    for _ in range(200):
        xi = rng.normal(size=2)
        res = sl.oleinik_admissible(pair11, xi)
        if res.admissible:
            assert res.lax_margins[0] >= -1e-12
            assert res.lax_margins[1] >= -1e-12


def test_nondegeneracy_burgers(burgers2):
    assert sl.check_nondegeneracy(burgers2).passed


def test_nondegeneracy_affine_flux_fails():
    affine = sl.Flux(((0.0, 1.0), (0.0, 1.0)))
    res = sl.check_nondegeneracy(affine)
    assert not res.passed
    tau, xi = res.failures[0]
    # the certificate must annihilate tau + f'(s).xi identically
    coeffs = np.array([tau + xi[0] + xi[1]])
    assert np.max(np.abs(coeffs)) <= 1e-12


@pytest.mark.parametrize("coeffs, passed", [
    (((0.0, 0.0, 1e10), (0.0, 0.0, 0.0, 1e-5)), True),
    (((1e300, 1e300, 1e300), (0.0, 0.0, 0.0, 1e-300)), True),
    (((0.0, 0.0, 1e10), (0.0, 0.0, 2e-10)), False),
    (((0.0, 1e300), (0.0, 0.0, 1.0)), False),
])
def test_nondegeneracy_is_blind_to_each_component_scale(coeffs, passed):
    # f_i -> c f_i maps a kernel direction xi to one with xi_i / c
    res = sl.check_nondegeneracy(sl.Flux(coeffs))
    assert res.passed is passed
    if not passed:
        tau, xi = res.failures[0]
        assert np.isclose(np.linalg.norm([tau, *xi]), 1.0)
        fp = sl.Flux(coeffs).value(np.linspace(-2.0, 2.0, 9), 1)
        scale = np.maximum(1.0, np.abs(xi) @ np.abs(fp))
        assert np.all(np.abs(tau + np.array(xi) @ fp) <= 1e-12 * scale)


def test_nondegeneracy_classic_burgers_1d():
    f = sl.Flux(((0.0, 0.0, 0.5),))
    assert sl.check_nondegeneracy(f).passed


def _old_check_nondegeneracy(flux):
    """`check_nondegeneracy` as it was, with its own matrix of f' and the
    special case of a flux whose components are all linear."""
    d = flux.d
    mat = np.zeros((d, max(len(flux.component(i, 1)) for i in range(d))))
    for i in range(d):
        mat[i, : len(flux.component(i, 1))] = flux.component(i, 1)
    higher = mat[:, 1:]
    if higher.size == 0:
        higher = np.zeros((d, 1))
    size = np.abs(higher).max(axis=1)
    size[size == 0] = 1.0
    _, sv, vh = np.linalg.svd((higher / size[:, None]).T, full_matrices=True)
    if int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0))) == d:
        return NondegeneracyResult(True, ())
    xi = vh[-1] / size
    vec = np.concatenate([[-float(np.dot(xi, mat[:, 0]))], xi])
    vec = vec / np.abs(vec).max()
    vec = vec / np.linalg.norm(vec)
    return NondegeneracyResult(False, ((float(vec[0]), tuple(float(x) for x in vec[1:])),))


@pytest.mark.parametrize("coeffs", [
    ((0.0, 1.0), (0.0, 1.0)),
    ((1.0, -2.0), (-0.0, 0.5)),
    ((-3.0,), (0.0, 1.0)),
    ((2.0, 1.0), (0.0, -1.0), (-0.5, 4.0)),
    ((-0.0, 1.0, -0.0), (0.0, -0.0)),
])
def test_nondegeneracy_of_linear_components_is_unchanged(coeffs):
    # repr tells -0.0 from 0.0
    flux = sl.Flux(coeffs)
    assert repr(sl.check_nondegeneracy(flux)) == repr(_old_check_nondegeneracy(flux))


def _old_poly_abs_max(coeffs, lo, hi):
    """`poly_abs_max` as it was: one component, its critical points one by one."""
    c = np.asarray(coeffs, dtype=float)
    cand = np.maximum(np.abs(P.polyval(lo, c)), np.abs(P.polyval(hi, c)))
    for r in critical_points(c):
        inside = (lo <= r) & (r <= hi)
        if np.any(inside):
            cand = np.where(inside, np.maximum(cand, abs(float(P.polyval(r, c)))), cand)
    return cand


# components of mixed degree, constant and linear ones among them, with signed zeros
COMPONENTS = st.lists(st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-4.0, 4.0).filter(lambda v: abs(v) >= 1e-3)), min_size=1, max_size=6),
    min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(coeffs=COMPONENTS, order=st.integers(0, 3),
       ends=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
@example(coeffs=[[-0.0, 2.0], [0.0, 0.0, -1.0, 0.5], [-1.0]], order=1, ends=(-1.5, 2.0))
@example(coeffs=[[0.0, -0.0], [-0.0, 0.0, 0.0, -1.0]], order=0, ends=(-0.0, 0.0))
def test_component_abs_max_keeps_the_bits_of_one_call_per_component(coeffs, order, ends):
    flux = sl.Flux(tuple(map(tuple, coeffs)))
    lo, hi = sorted(ends)
    want = np.array([_old_poly_abs_max(flux.component(i, order), lo, hi)
                     for i in range(flux.d)])
    assert component_abs_max(flux, order, lo, hi).tobytes() == want.tobytes()


def test_normalization_at_zero():
    n = sl.burgers_normalization(0.0, 3)
    assert np.allclose(n.matrix, np.eye(3))
    assert np.allclose(n.shift, np.zeros(3))


def test_normalization_d2():
    n = sl.burgers_normalization(1.0, 2)
    assert np.allclose(n.matrix, [[1.0, 0.0], [3.0, 1.0]])
    assert np.allclose(n.shift, [2.0, 3.0])
    assert np.allclose(np.diag(n.matrix), 1.0)
    assert n.matrix[0, 1] == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.sampled_from([1, 2, 3]), st.floats(-3.0, 3.0))
def test_normalization_rows_are_the_shifted_burgers_flux(u_ref, d, s):
    # (0, Z_j, M_j0, ..., M_jj) are the coefficients of (s + u_ref)^(j+2) - u_ref^(j+2),
    # the flux around u_ref that the dispersion experiment evolves
    n = sl.burgers_normalization(u_ref, d)
    for j in range(d):
        row = np.concatenate([[0.0, n.shift[j]], n.matrix[j, : j + 1]])
        want = (s + u_ref) ** (j + 2) - u_ref ** (j + 2)
        # relative to the largest term; the floor covers powers that underflow
        scale = (abs(s) + abs(u_ref)) ** (j + 2)
        assert abs(P.polyval(s, row) - want) <= 1e-12 * scale + 1e-300


def test_normalization_d1_galilean():
    c = 0.7
    n = sl.burgers_normalization(c, 1)
    assert np.allclose(n.matrix, [[1.0]])
    assert np.allclose(n.shift, [2.0 * c])
    # transformed entropy shock: u = 1 for x < t, 0 beyond (speed 1 for f = s^2);
    # the shifted state must be the shock between 1-c and -c with speed 1-2c

    def u(t, x):
        return np.where(np.asarray(x)[..., 0] < t, 1.0, 0.0)

    v = n.transform(u)
    t = 0.8
    speed = 1.0 - 2.0 * c
    xs = np.linspace(-3, 3, 101)[:, None]
    expected = np.where(xs[:, 0] < speed * t, 1.0 - c, -c)
    assert np.array_equal(v(t, xs), expected)


def test_is_burgers(burgers2):
    assert is_burgers(burgers2)
    assert is_burgers(sl.burgers_flux(3))
    assert not is_burgers(sl.Flux(((0.0, 1.0), (0.0, 0.0, 1.0))))
