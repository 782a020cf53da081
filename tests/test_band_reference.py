"""The banded engine against an in-test copy of the loop that steps every row.

`solver.evolve` hands each field a `Band`, and `step` then updates only the
cells that the last step's changes can reach, or every cell after a moving
background's ghost cells changed.
`ref_evolve` below is the loop as it was before bands: it calls `solver.step`
without one, so every step runs every cell.  Each case runs once through each
loop, and every step made through `solver.step` is logged as exact bytes (t,
dt, the new values and every StepStats field but the cell count); the logs and
the results must be equal.  The log also notes how many cells each banded step
updated (`StepStats.cells`), so each case can show that it reached the path it
is named for.
"""

import hashlib
import inspect
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shocklab as sl
from shocklab import experiments as xp
from shocklab import solver
from shocklab.solver import (
    Companion,
    check_range,
    constant_background,
    field_range,
    profile_background,
    sample_function,
    sample_profile,
    stable_dt,
)

REAL_STEP = solver.step
STEP_SIG = inspect.signature(REAL_STEP)


def ref_evolve(pairs, scheme, flux, dt, n_steps, range_guard=None):
    """solver.evolve as it was before bands: every step runs every row."""
    fields = [f for f, _ in pairs]
    backgrounds = [bg for _, bg in pairs]
    guards = None if range_guard is not None else [field_range(f, scheme, bg) for f, bg in pairs]
    del pairs
    stats = [None] * len(fields)
    for k in range(1, n_steps + 1):
        for i, bg in enumerate(backgrounds):
            fields[i], stats[i] = solver.step(fields[i], scheme, flux, bg, (k - 1) * dt, dt,
                                              range_guard)
            if guards is not None:
                check_range(fields[i].values.min(), fields[i].values.max(), guards[i])
        yield k, k * dt, fields, stats


class Step(NamedTuple):
    bits: tuple     # t, dt, new values and StepStats, as exact bytes
    before: tuple | None  # the rows the band held for this field, if it vouched for it
    cells: int | None     # cells updated (0: input returned), or None without a band
    moving: bool    # whether the ghosts came from a moving background
    cols: tuple | None    # the first and last index along axis 1 of a changed cell


@contextmanager
def engine(banded: bool):
    """Log every step; banded=False swaps in the copy of the old loop."""
    log = []

    def logged(*args, **kwargs):
        bound = STEP_SIG.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        band, field, bg = a["band"], a["field"], a["background"]
        before = band.rows if band is not None and band.values is field.values else None
        nxt, st = REAL_STEP(*args, **kwargs)
        if band is None:
            assert st.cells == field.grid.ncells
        assert (st.cells == 0) == (nxt is field)  # a step that updates no cell returns its input
        bits = (float(a["t"]).hex(), float(a["dt"]).hex(),
                hashlib.sha256(nxt.values.tobytes()).hexdigest(),
                np.array([st.dt, st.boundary_inflow, st.lambda_max, st.vmin, st.vmax]).tobytes())
        moving = bg is not None and bg.moving and a["scheme"].boundary != "outflow"
        hit = nxt.values.view(np.int64) != field.values.view(np.int64)
        cols = np.flatnonzero(hit.any(axis=tuple(ax for ax in range(hit.ndim) if ax != 1)))
        log.append(Step(bits, before, None if band is None else st.cells, moving,
                        (int(cols[0]), int(cols[-1])) if cols.size else None))
        return nxt, st

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "step", logged)
        if not banded:
            mp.setattr(solver, "evolve", ref_evolve)
            mp.setattr(xp, "evolve", ref_evolve)
        yield log


def both(fn):
    """fn() through the banded engine and through the copy; the step logs must agree."""
    with engine(True) as log:
        got = fn()
    with engine(False) as ref_log:
        want = fn()
    assert len(log) == len(ref_log) > 0
    assert [s.bits for s in log] == [s.bits for s in ref_log]
    assert all(s.cells is None for s in ref_log)
    return got, want, log


def _partial(log, ncells):
    """The steps that updated some cells but not all."""
    return [s for s in log if s.cells is not None and 0 < s.cells < ncells]


def _report_bits(rep):
    out = [(c.name, c.passed, np.array(c.measured, dtype=float).tobytes(),
            np.array(c.tol, dtype=float).tobytes(), c.note) for c in rep.checks]
    if rep.series is not None:
        out.append((rep.series[0], rep.series[1].tobytes()))
    out += [(float(t).hex(), f.values.tobytes()) for t, f in rep.snapshots]
    final = rep.extras.get("final")
    if isinstance(final, sl.Field):
        out.append(final.values.tobytes())
    return out


def _run_bits(rep):
    return ([a.tobytes() for a in (rep.times, rep.sup, rep.inf, rep.mass, rep.boundary_inflow)]
            + [(k, v.tobytes()) for k, v in sorted(rep.l1.items())]
            + [(float(t).hex(), f.values.tobytes()) for t, f in rep.snapshots]
            + [rep.final.values.tobytes(), float(rep.dt).hex()]
            + [(k, f.values.tobytes()) for k, f in sorted(rep.companions.items())])


@pytest.fixture(scope="module")
def curved11(pair11, dual11):
    return sl.make_scaled_gauge(pair11, dual11, 0.5, 0.0, y_extent=(-5.0, 5.0))


# -- whole experiments ------------------------------------------------------------

@pytest.mark.parametrize("front", ["planar", "curved"])
def test_stability_experiment_matches_full_rows(front, pair11, dual11, curved11):
    prof = (sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-5, 5))
            if front == "planar" else curved11)
    g = sl.Grid.from_box((-2.5, 2.5, -5, 5), (32, 64))
    phi = sl.PerturbationSpec("bump", (1.2, 0.0), 0.9, 1.5)

    def experiment():
        return sl.stability_experiment(prof, phi, g, sl.SchemeConfig(), horizon=2.0,
                                       settle_steps=120, snapshot_times=[1.0])

    got, want, log = both(experiment)
    assert _report_bits(got) == _report_bits(want)
    assert got.extras["settle"] == want.extras["settle"]
    # every field has a band, and most steps skip rows
    assert all(s.cells is not None for s in log)
    assert len(_partial(log, g.ncells)) > len(log) // 2


@pytest.mark.parametrize("frame", ["reduced", "original"])
def test_overhead_run_matches_full_rows(frame, pair11, dual11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-4, 4))
    g = sl.Grid.from_box((-3, 2, -4, 4), (30, 48))
    phi = sl.PerturbationSpec("bump", (-1.5, -1.0), 0.8, 0.5)
    scheme = sl.SchemeConfig(frame=frame)

    def experiment():
        return sl.overhead_experiment(prof, phi, g, scheme, horizon=1.5, settle_steps=100)

    got, want, log = both(experiment)
    assert _report_bits(got) == _report_bits(want)
    assert _partial(log, g.ncells)  # the settles, at rest in either frame
    moving = [s for s in log if s.moving]
    assert bool(moving) == (frame == "original")
    # the original frame's run has moving ghosts; this front moves along
    # itself, so they keep their bits and the band still skips rows
    assert not moving or _partial(moving, g.ncells)


def test_support_pair_matches_full_rows(burgers2):
    g = sl.Grid.from_box((-3, 9, -3, 9), (48, 48))
    b1 = sl.Field(g, np.full(g.counts, 1.0))
    b2 = sl.Field(g, b1.values + sample_function(
        sl.PerturbationSpec("bump", (0.0, 0.0), 0.8, 0.1), g).values)

    got, want, log = both(lambda: sl.support_experiment(burgers2, b1, b2, sl.SchemeConfig(), 1.0))
    assert _report_bits(got) == _report_bits(want)
    # both fields take lambda from the shared guard, so b2's quiet rows are
    # skipped once its band settles; b1 is at its fixed point from the first
    # step on
    assert log[0].cells == g.ncells and _partial(log[0::2], g.ncells)
    assert log[1].cells == g.ncells and all(s.cells == 0 for s in log[3::2])


# -- the paths of the band ----------------------------------------------------------

@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
def test_outflow_run_with_companions_matches_full_rows(kind, pair11, curved11):
    g = sl.Grid.from_box((-2, 2, -2.4, 2.4), (20, 24))
    scheme = sl.SchemeConfig(numerical_flux=kind, boundary="outflow")
    u0 = sl.Field(g, sample_profile(curved11, g).values
                  + sample_function(sl.PerturbationSpec("bump", (0.8, 0.3), 0.6, 0.8), g).values)
    comps = [Companion("base", sample_profile(curved11, g), profile_background(curved11))]

    def experiment():
        return solver.run(u0, scheme, pair11.reduced, 0.6, profile_background(curved11),
                          comps, snapshot_times=[0.0, 0.3], probe_every=3)

    got, want, log = both(experiment)
    assert _run_bits(got) == _run_bits(want)
    assert _partial(log, g.ncells)


@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
def test_3d_steady_background_matches_full_rows(kind):
    pair = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
    dual = sl.dual_cone(sl.admissible_cone(pair, 0.05))
    prof = sl.make_planar(pair, dual, [1.0, 0.0, 0.0])
    g = sl.Grid.from_box((-1.6, 1.6, -0.8, 0.8, -0.6, 0.6), (16, 8, 6))
    scheme = sl.SchemeConfig(numerical_flux=kind)
    u0 = sl.Field(g, sample_profile(prof, g).values + sample_function(
        sl.PerturbationSpec("bump", (0.5, 0.0, 0.0), 0.3, 0.4), g).values)

    def experiment():
        return solver.run(u0, scheme, pair.reduced, 0.5, profile_background(prof),
                          snapshot_times=[0.25])

    got, want, log = both(experiment)
    assert _run_bits(got) == _run_bits(want)
    assert _partial(log, g.ncells)


def test_settle_with_a_shrinking_range_runs_every_row(pair11, planar11):
    # a bump on a constant state: its rows are a band, but its maximum falls
    # at every step, and with it lambda, so the next step runs every row
    g = sl.Grid.from_box((-2, 2, -2, 2), (32, 32))
    bump = sl.Field(g, 0.5 + sample_function(
        sl.PerturbationSpec("bump", (0.0, 1.0), 0.4, 0.3), g).values)
    pairs = [(sample_profile(planar11, g), profile_background(planar11)),
             (bump, constant_background(0.5, 2))]

    got, want, log = both(lambda: xp.settle(pairs, sl.SchemeConfig(), pair11.reduced, 60))
    assert [f.values.tobytes() for f in got.fields] == [f.values.tobytes() for f in want.fields]
    assert got.steps == want.steps and got.changes == want.changes
    full = (0, g.counts[0])
    bump_steps = log[1::2]
    assert all(s.cells == g.ncells for s in bump_steps)
    # until the bump's band has spread over the grid, it is the rule that ran them
    assert all(s.before not in (None, full) for s in bump_steps[1:8])
    assert _partial(log[0::2], g.ncells)  # the front's lambda stays put


def test_planar_front_reaches_an_empty_band(pair11, dual11):
    # the Engquist-Osher layer 1, ~0.8, ~-0.8, -1 becomes an exact fixed point
    # of the step (at step 94); from then on each step returns its input
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-4, 4))
    g = sl.Grid.from_box((-2, 2, -2, 2), (24, 24))
    scheme = sl.SchemeConfig(numerical_flux="engquist-osher")
    u0 = sample_profile(prof, g)
    horizon = 150 * stable_dt(pair11.reduced, g, scheme, -1.0, 1.0)

    got, want, log = both(lambda: solver.run(u0, scheme, pair11.reduced, horizon,
                                             profile_background(prof)))
    assert _run_bits(got) == _run_bits(want)
    empty = [k for k, s in enumerate(log) if s.cells == 0]
    assert empty and empty == list(range(empty[0], len(log)))
    assert all(s.before == (0, 0) for s in log[empty[0]:])


# -0.0 coefficients make g(0.0) = -0.0 but g(-0.0) = 0.0
SIGNED = sl.Flux(((-0.0, -1.0), (-0.0, 0.5, -0.0)))


@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
@pytest.mark.parametrize("signed", [False, True])
def test_signed_zero_data_matches_full_rows(kind, signed, pair11, rng):
    g = sl.Grid.from_box((-2.4, 2.4, -1.6, 1.6), (24, 16))
    v = np.zeros(g.counts)
    levels = np.array([-0.0, 0.0]) if signed else np.array([-0.5, -0.0, 0.0, 0.5])
    v[6:14] = levels[rng.integers(0, len(levels), (8, 16))]
    v[20:] = -0.0
    u0 = sl.Field(g, v)
    scheme = sl.SchemeConfig(numerical_flux=kind)
    flux = SIGNED if signed else pair11.reduced

    def experiment():
        horizon = 30 * stable_dt(flux, g, scheme, -0.5, 0.5)
        return solver.run(u0, scheme, flux, horizon, constant_background(-0.0, 2),
                          [Companion("outflow", u0, None)], range_guard=(-0.5, 0.5))

    got, want, log = both(experiment)
    assert _run_bits(got) == _run_bits(want)
    if signed:
        # div starts from +0.0, so u - dt*div keeps the sign of a zero: the
        # update never turns -0.0 into 0.0, the signed zeros stay as they are
        # and the band is empty from the second step on.  The int64 row test
        # that would see such a change is pinned by the next test.
        assert got.final.values.tobytes() == u0.values.tobytes()
        assert all(s.cells == 0 for s in log[2:])


@pytest.mark.parametrize("kind", ["rusanov", "engquist-osher"])
@pytest.mark.parametrize("boundary", ["dirichlet-profile", "outflow"])
@pytest.mark.parametrize("case", ["reaches-the-ends", "compact"])
def test_bump_on_a_constant_state_runs_a_box_of_columns(case, kind, boundary, burgers2):
    # a 2-D step runs the band's rows only in the columns next to the last
    # step's changes; a bump on a constant state changes a compact set, whose
    # columns reach the grid's ends in one case (the box's faces then join the
    # outer faces) and stay inside in the other
    if case == "reaches-the-ends":
        g = sl.Grid.from_box((-2.4, 2.4, -2, 2), (24, 20))
        phi, n_steps = sl.PerturbationSpec("bump", (0.0, -1.2), 0.9, 0.3), 40
    else:
        g = sl.Grid.from_box((-2, 2, -2, 4), (24, 36))
        phi, n_steps = sl.PerturbationSpec("bump", (0.0, 1.0), 0.4, 0.3), 12
    u0 = sl.Field(g, 0.5 + sample_function(phi, g).values)
    scheme = sl.SchemeConfig(numerical_flux=kind, boundary=boundary)
    guard = (0.5, 0.8)  # one lambda for every step, so the band holds

    def experiment():
        horizon = n_steps * stable_dt(burgers2, g, scheme, *guard)
        return solver.run(u0, scheme, burgers2, horizon, constant_background(0.5, 2),
                          range_guard=guard)

    got, want, log = both(experiment)
    assert _run_bits(got) == _run_bits(want)
    n1 = g.counts[1]
    assert [s for s in log if s.before and 0 < s.cells < (s.before[1] - s.before[0]) * n1]
    lo, hi = min(s.cols[0] for s in log if s.cols), max(s.cols[1] for s in log if s.cols)
    assert ((lo, hi) == (0, n1 - 1)) == (case == "reaches-the-ends")
    assert case == "reaches-the-ends" or 0 < lo and hi < n1 - 1


def _changed(old, new, a, b):
    rows = np.flatnonzero((old.view(np.int64) != new.view(np.int64))[a:b].any(axis=1))
    return None if rows.size == 0 else (a + int(rows[0]), a + int(rows[-1]))


@settings(deadline=None, max_examples=200)
@given(shape=st.tuples(st.integers(1, 40), st.integers(1, 6)),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       n_changed=st.integers(0, 4), transposed=st.booleans())
def test_moved_rows_matches_nonzero(shape, seed, n_changed, transposed):
    # any views, as a 2-D step scans the transposed rows for its columns;
    # the ranges include one-row blocks at either end and single rows
    rng = np.random.default_rng(seed)
    old = rng.choice([-0.5, -0.0, 0.0, 0.5], shape)
    new = old.copy()
    cells = (rng.integers(0, shape[0], n_changed), rng.integers(0, shape[1], n_changed))
    new[cells] = np.where(old[cells] == 0.0, -old[cells], old[cells] + 1.0)  # -0.0 <-> 0.0
    if transposed:
        old, new = old.T, new.T
    n = old.shape[0]
    a = int(rng.integers(0, n + 1))
    for a, b in ((0, n), (a, int(rng.integers(a, n + 1))), (a, min(a + 1, n))):
        assert solver._moved_rows(old, new, a, b) == _changed(old, new, a, b)


def test_moved_rows_sees_a_signed_zero_change():
    old = np.zeros((40, 5))
    for rows in ([3], [0, 39], [17, 18, 30], [39]):
        new = old.copy()
        new[rows, 2] = -0.0  # equal to 0.0 under float !=
        assert solver._moved_rows(old, new, 0, 40) == (rows[0], rows[-1])
        assert solver._moved_rows(new, old, rows[0], rows[-1] + 1) == (rows[0], rows[-1])
    assert solver._moved_rows(old, old.copy(), 0, 40) is None
    assert solver._moved_rows(old, old, 5, 5) is None


# -- the four guarantees through the banded engine -----------------------------------

GRIDS = {2: sl.Grid.from_box((-1.2, 1.2, -1, 1), (12, 10)),
         3: sl.Grid.from_box((-1, 1, -1, 1, -1, 1), (10, 10, 10))}
FLUXES = {d: sl.make_shock_pair(sl.burgers_flux(d), 1.0, -1.0).reduced for d in (2, 3)}
GUARD = (-1.0, 1.0)


def _two_valued(rng, grid, ghost, rows=None):
    """-0.8 or 0.8 at random on a random block of rows (at most `rows`), the
    ghost value elsewhere."""
    n0 = grid.counts[0]
    r0 = int(rng.integers(1, n0 - 2))
    r1 = int(rng.integers(r0 + 1, min(r0 + (rows or n0), n0 - 2) + 1))
    v = np.full(grid.counts, ghost)
    v[r0:r1] = np.where(rng.random((r1 - r0,) + grid.counts[1:]) < 0.5, -0.8, 0.8)
    return v


@pytest.mark.parametrize("d", [2, 3])
@settings(deadline=None, max_examples=6)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind=st.sampled_from(["rusanov", "engquist-osher"]),
       ghost=st.sampled_from([-0.8, 0.0, 0.8]))
# a draw whose three blocks each covered rows 2-7 of 10 when a's block was not
# capped: from the second step on every row could change, and no step was banded
@example(seed=115337297, kind="rusanov", ghost=-0.8)
def test_banded_engine_keeps_the_four_guarantees(d, seed, kind, ghost):
    g, flux = GRIDS[d], FLUXES[d]
    rng = np.random.default_rng(seed)
    # each step reaches one row further, so a's block of at most 3 rows keeps
    # a row out of the third step's band, and that step is banded
    a = sl.Field(g, _two_valued(rng, g, ghost, rows=3))
    b = sl.Field(g, np.maximum(a.values, _two_valued(rng, g, ghost)))  # b >= a
    c = sl.Field(g, _two_valued(rng, g, ghost))
    scheme = sl.SchemeConfig(numerical_flux=kind)
    bg = constant_background(ghost, d)
    dt = stable_dt(flux, g, scheme, *GUARD)
    n_steps = 6

    def bits(f, s):
        return f.values.tobytes(), np.array([s.dt, s.boundary_inflow, s.lambda_max,
                                             s.vmin, s.vmax]).tobytes()

    want = []
    for f in (a, b, c):
        for k in range(n_steps):  # every row, every step
            f, s = REAL_STEP(f, scheme, flux, bg, k * dt, dt, GUARD)
            want.append(bits(f, s))
    got = [[], [], []]
    inflow = [0.0, 0.0, 0.0]
    with engine(True) as log:
        for _, _, fields, stats in solver.evolve([(a, bg), (b, bg), (c, bg)], scheme, flux,
                                                 dt, n_steps, GUARD):
            for i in range(3):
                got[i].append(bits(fields[i], stats[i]))
                inflow[i] += stats[i].boundary_inflow
    assert got[0] + got[1] + got[2] == want
    assert _partial(log, g.ncells)
    a1, b1, c1 = fields
    assert a1.values.max() <= 0.8 + 1e-14 and a1.values.min() >= -0.8 - 1e-14  # max principle
    assert np.all(a1.values <= b1.values + 1e-14)                                # comparison
    assert sl.l1_distance(a1, c1) <= sl.l1_distance(a, c) + 1e-12               # L1 contraction
    for f0, f1, q in zip((a, b, c), fields, inflow):                             # mass balance
        assert abs((f1.mass - f0.mass) - q) <= 1e-12 * max(1.0, abs(f0.mass))
