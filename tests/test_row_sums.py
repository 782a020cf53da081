"""Exact incremental reductions and the leaner step, bit for bit.

- `RowSums` against numpy's own `a.sum()` and `np.abs(a - b).sum()`, after
  random refreshes of row ranges, on shapes whose cut nodes are rows, blocks
  of rows or the whole grid.  This also catches a numpy that changes its
  reduction order.
- `_moved_rows` against a plain int64 scan of every row.
- `run`'s probe series and `settle`'s per-step changes against `Field.mass`
  and `l1_distance`, also behind a replaced `step`.
- The step's 1/dx scaling against division, and the step on a power-of-two
  dx and on another dx against the dividing reference step.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shocklab as sl
from shocklab import experiments as xp
from shocklab import solver
from shocklab.errors import GridMismatch
from shocklab.solver import Field, RowSums

from test_step_reference import _data, _ref_step


# rows as cut nodes, blocks of rows, only the root; and trees whose cut nodes
# differ in size and whose levels mix heights (133 x 8)
SHAPES = [(128, 256), (256, 208), (256, 256), (48, 48, 48), (16, 16), (7, 100), (1000, 8),
          (133, 8)]
# normal values, signed zeros, subnormals and values near the overflow limit
KINDS = ["normal", "zeros", "subnormal", "huge"]


def _values(rng, shape, kinds):
    v = rng.standard_normal(shape)
    for kind in kinds:
        pick = rng.random(shape) < 0.3
        n = int(pick.sum())
        if kind == "zeros":
            v[pick] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        elif kind == "subnormal":
            v[pick] = rng.integers(-1000, 1000, n) * 5e-324
        elif kind == "huge":
            v[pick] = rng.uniform(-1.0, 1.0, n) * 1.7e308
    return v


@st.composite
def refreshes(draw):
    """A shape, the kinds of values, a seed and a sequence of row ranges."""
    shape = draw(st.sampled_from(SHAPES + [None]))
    if shape is None:
        shape = (1, draw(st.integers(1, 600)))
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=3, unique=True))
    ranges = draw(st.lists(st.tuples(st.integers(0, shape[0] - 1), st.integers(1, shape[0]),
                                     st.sampled_from(["a", "b", "both"])), max_size=6))
    return shape, kinds, draw(st.integers(0, 2**32 - 1)), ranges


def _same(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@settings(max_examples=60, deadline=None)
@given(refreshes())
@example(((7, 100), ["zeros"], 0, [(0, 7, "a")]))
@example(((128, 256), ["huge", "subnormal"], 1, [(3, 4, "both"), (0, 128, "b")]))
def test_row_sums_equal_numpy_sums_after_refreshes(case):
    shape, kinds, seed, ranges = case
    rng = np.random.default_rng(seed)
    a, b = _values(rng, shape, kinds), _values(rng, shape, kinds)
    sums = RowSums(shape, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for r0, r1, which in [(0, shape[0], "both")] + ranges:
            r0, r1 = min(r0, r1), max(r0, r1)
            for x, name in ((a, "a"), (b, "b")):
                if which in (name, "both"):
                    x[r0:r1] = _values(rng, x[r0:r1].shape, kinds)
            sums.refresh(0, (r0, r1), a)
            sums.refresh(1, (r0, r1), a, b)
            total, l1 = sums.totals()
            assert _same(total, a.sum()) and _same(l1, np.abs(a - b).sum())
        # an empty range reads nothing and keeps the sums
        sums.refresh(0, (3, 3), a * np.nan)
        assert _same(sums.totals()[0], a.sum())


def test_the_tree_cuts_at_rows_blocks_or_the_root():
    bounds = lambda *shape: solver._row_tree(shape[0], math.prod(shape[1:]))[0]
    assert bounds(128, 256) == tuple(range(129))          # one node per row
    assert bounds(48, 48, 48) == tuple(range(0, 49, 3))   # 3 rows per node
    assert bounds(16, 16) == (0, 8, 16)                   # 128 values per leaf
    assert bounds(7, 100) == (0, 7)                       # only the root
    assert bounds(1, 600) == (0, 1)


def _moved_rows_reference(old, new, a, b):
    rows = [i for i in range(a, b) if np.any(old[i].view(np.int64) != new[i].view(np.int64))]
    return (rows[0], rows[-1]) if rows else None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 69), st.integers(0, 8), st.sampled_from(
           ["value", "zero flip"])), max_size=8), st.integers(0, 70), st.integers(0, 70))
def test_moved_rows_match_an_int64_scan(n, m, seed, flips, a, b):
    rng = np.random.default_rng(seed)
    old = rng.standard_normal((n, m))
    old[rng.random((n, m)) < 0.3] = -0.0
    new = old.copy()
    for i, j, kind in flips:
        i, j = i % n, j % m
        if kind == "zero flip":  # -0.0 <-> 0.0 compares equal as floats
            new[i, j] = 0.0 if np.signbit(new[i, j]) else -0.0
        else:
            new[i, j] = rng.standard_normal()
    a, b = min(a, n), min(b, n)
    assert solver._moved_rows(old, new, a, b) == _moved_rows_reference(old, new, a, b)
    assert solver._moved_rows(old, old.copy(), 0, n) is None  # an unchanged band


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("replaced", [False, True])
def test_run_series_equal_whole_grid_sums_at_every_probe(burgers2, axis, replaced, monkeypatch):
    # with axis 1 the flux's axes are swapped and the front's frame axis is
    # grid axis 1, where sample_profile samples the transpose, and the main
    # field's data come in Fortran order: every Field still holds C-ordered
    # values, which RowSums sums row by row as numpy does
    flux = burgers2 if axis == 0 else sl.Flux(burgers2.coeffs[::-1])
    pair = sl.make_shock_pair(flux, 1.0, -1.0)
    dual = sl.dual_cone(sl.admissible_cone(pair, 1e-8))
    nu = np.eye(2)[axis]
    g = sl.Grid.from_box((-2, 2, -4, 4), (32, 64))
    steady = sl.make_planar(pair, dual, nu, 0.0, y_extent=(-8.0, 8.0))
    shifted = sl.make_planar(pair, dual, nu, 0.3, y_extent=(-8.0, 8.0))
    bg = sl.profile_background(steady)
    bump = sl.PerturbationSpec("bump", (0.3, 0.5), 0.8, -0.6)
    main = Field(g, np.asfortranarray(sl.sample_profile(steady, g).values
                                      + sl.sample_function(bump, g).values))
    comps = [solver.Companion("steady", sl.sample_profile(steady, g), bg),
             solver.Companion("shifted", sl.sample_profile(shifted, g),
                              sl.profile_background(shifted))]
    assert all(f.values.flags.c_contiguous for f in [main] + [c.field for c in comps])
    if replaced:
        # a step that hands back a copy: evolve cannot know its rows
        real = solver.step
        monkeypatch.setattr(solver, "step", lambda *a, **k: (
            lambda f, s: (Field(f.grid, f.values.copy()), s))(*real(*a, **k)))
    want = {"mass": [main.mass], "steady": [sl.l1_distance(main, comps[0].field)],
            "shifted": [sl.l1_distance(main, comps[1].field)]}
    seen = []

    def on_step(t, u, others):
        seen.append((u.mass, {k: sl.l1_distance(u, f) for k, f in others.items()}))

    scheme = sl.SchemeConfig()
    rep = sl.run(main, scheme, scheme.flux_of(pair), 0.8, bg, comps,
                 on_step=on_step, probe_every=3)
    n = len(seen)
    assert n > 6
    for k in [k for k in range(1, n + 1) if k % 3 == 0 or k == n]:
        mass, l1 = seen[k - 1]
        want["mass"].append(mass)
        for name in l1:
            want[name].append(l1[name])
    assert np.array(want["mass"]).tobytes() == rep.mass.tobytes()
    for name in ("steady", "shifted"):
        assert np.array(want[name]).tobytes() == rep.l1[name].tobytes()
    assert rep.l1["steady"][-1] > 0.0


@pytest.mark.parametrize("replaced", [False, True])
def test_settle_changes_are_each_steps_l1_distance(planar11, replaced, monkeypatch):
    g = sl.Grid.from_box((-2, 2, -4, 4), (32, 64))
    bg = sl.profile_background(planar11)
    bump = sl.PerturbationSpec("bump", (0.3, 0.5), 0.8, -0.6)
    fields = [(Field(g, sl.sample_profile(planar11, g).values + sl.sample_function(bump, g).values),
               bg), (sl.sample_profile(planar11, g), bg)]
    if replaced:
        real_step = solver.step
        monkeypatch.setattr(solver, "step", lambda *a, **k: (
            lambda f, s: (Field(f.grid, f.values.copy()), s))(*real_step(*a, **k)))
    real = xp.evolve
    seen = []

    def evolve(pairs, *args, **kwargs):
        prev = [f for f, _ in pairs]
        for k, t, current, stats in real(pairs, *args, **kwargs):
            seen.append([sl.l1_distance(f, p) for f, p in zip(current, prev)])
            prev = list(current)
            yield k, t, current, stats

    monkeypatch.setattr(xp, "evolve", evolve)
    settled = xp.settle(fields, sl.SchemeConfig(), planar11.pair.reduced, max_steps=30)
    assert settled.steps == len(seen) and seen[-1][0] > 0.0
    assert np.array(settled.changes).tobytes() == np.array(seen[-1]).tobytes()


def test_run_refuses_a_companion_on_another_grid(planar11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (16, 16))
    other = sl.Grid.from_box((-2, 2, -2, 2), (8, 8))
    comp = solver.Companion("c", Field(other, np.zeros((8, 8))))
    with pytest.raises(GridMismatch):
        sl.run(Field(g, np.zeros((16, 16))), sl.SchemeConfig(), sl.burgers_flux(2), 0.1,
               companions=[comp])


def test_the_reciprocal_of_a_power_of_two_scales_like_division(rng):
    x = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                        rng.integers(-50, 50, 50) * 5e-324, [0.0, -0.0, 1.7e308, -1.7e308,
                                                            2.2250738585072014e-308]])
    for k in range(-1074, 1024):
        dx = math.ldexp(1.0, k)
        inv = solver._exact_reciprocal(dx)
        with np.errstate(over="ignore"):
            assert (inv is None) == np.isinf(np.float64(1.0) / dx)
            if inv is not None:
                assert (x * inv).tobytes() == (x / dx).tobytes(), k
    for dx in (5 / 64, 0.2, 3.0, 0.1, 0.75):
        assert solver._exact_reciprocal(dx) is None


@pytest.mark.parametrize("dx", [1 / 16, 2.0, 5 / 64])
@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
def test_step_matches_the_dividing_reference_on_any_dx(dx, kind, pair11, rng):
    # 1/16 and 2 take 1/dx; 5/64, the dx of the support workload, still divides
    g = sl.Grid((12, 10), (-0.5, -0.25), dx)
    scheme = sl.SchemeConfig(numerical_flux=kind)
    bg = sl.constant_background(0.25, 2)
    got = want = Field(g, _data(rng, g.counts))
    for _ in range(3):
        got, _ = sl.step(got, scheme, pair11.reduced, bg)
        want, _ = _ref_step(want, scheme, pair11.reduced, bg)
        assert got.values.tobytes() == want.values.tobytes()
