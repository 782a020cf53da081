"""The evolution engine against in-test copies of the three loops it replaced.

`run`, `settle` and the two-field loop of `support_experiment` each had a
time loop of their own; all three now consume `solver.evolve`.  The copies
below are those loops as they were, stepping with the same `step`.  Every
step the program makes is logged through the module-level name `solver.step`
(the benchmark rebinds that name to mark the end of set-up, so an update that
bypassed it would go uncounted), and the log must equal the reference loop's
log: the same number of steps, each with the same t, dt and resulting bytes.
"""

import hashlib
import inspect

import numpy as np
import pytest

import shocklab as sl
from shocklab import experiments as xp
from shocklab import solver
from shocklab.solver import (
    Companion,
    RunReport,
    check_range,
    constant_background,
    field_range,
    l1_distance,
    profile_background,
    sample_function,
    sample_profile,
    stable_dt,
)

REAL_STEP = solver.step
STEP_SIG = inspect.signature(REAL_STEP)


def _entry(args, kwargs, result):
    """t, dt, guard, new values and stats of one step, as exact bytes."""
    bound = STEP_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    nxt, stats = result
    return (float(a["t"]).hex(), float(a["dt"]).hex(), a["range_guard"],
            hashlib.sha256(nxt.values.tobytes()).hexdigest(),
            np.array([stats.dt, stats.boundary_inflow, stats.lambda_max]).tobytes())


@pytest.fixture
def log(monkeypatch):
    """Every step made through solver.step, in call order."""
    entries = []

    def logged(*args, **kwargs):
        result = REAL_STEP(*args, **kwargs)
        entries.append(_entry(args, kwargs, result))
        return result

    monkeypatch.setattr(solver, "step", logged)
    return entries


class RefLog(list):
    def step(self, *args, **kwargs):
        result = REAL_STEP(*args, **kwargs)
        self.append(_entry(args, kwargs, result))
        return result


# -- the three loops as they were -------------------------------------------------

def ref_settle(ref, field_in, scheme, flux, background, max_steps=2000, tol=None):
    g = field_in.grid
    if tol is None:
        tol = 1e-13 * g.ncells * g.cell_volume
    f = field_in.copy()
    guard = field_range(f, scheme, background)
    dt = stable_dt(flux, g, scheme, float(f.values.min()) - 1e-9, float(f.values.max()) + 1e-9)
    for _ in range(max_steps):
        nxt, _ = ref.step(f, scheme, flux, background, 0.0, dt)
        check_range(nxt.values.min(), nxt.values.max(), guard)
        change = float(np.abs(nxt.values - f.values).sum()) * g.cell_volume
        f = nxt
        if change <= tol:
            break
    return f


def ref_run(ref, initial, scheme, flux, horizon, background=None, companions=None,
            snapshot_times=None, on_step=None, range_guard=None, probe_every=1):
    companions = list(companions or [])
    g = initial.grid
    lo, hi = field_range(initial, scheme, background)
    for comp in companions:
        clo, chi = field_range(comp.field, scheme, comp.background)
        lo, hi = min(lo, clo), max(hi, chi)
    dt = stable_dt(flux, g, scheme, lo, hi)
    n_steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    dt = horizon / n_steps
    if range_guard is None:
        range_guard = (lo, hi)
    snap_steps = {}
    for ts in snapshot_times or []:
        snap_steps.setdefault(min(n_steps, max(0, int(round(ts / dt)))), ts)
    main = initial.copy()
    comp_fields = {c.name: c.field.copy() for c in companions}
    times, sups, infs, masses = [], [], [], []
    l1s = {c.name: [] for c in companions}
    inflows = [0.0]
    snapshots = []
    cum_in = 0.0

    def record(t):
        times.append(t)
        sups.append(float(main.values.max()))
        infs.append(float(main.values.min()))
        masses.append(main.mass)
        for c in companions:
            l1s[c.name].append(l1_distance(main, comp_fields[c.name]))

    record(0.0)
    if 0 in snap_steps:
        snapshots.append((0.0, main.copy()))
    t = 0.0
    for k in range(1, n_steps + 1):
        main, stats = ref.step(main, scheme, flux, background, t, dt, range_guard)
        cum_in += stats.boundary_inflow
        for c in companions:
            comp_fields[c.name], _ = ref.step(comp_fields[c.name], scheme, flux,
                                              c.background, t, dt, range_guard)
        t = k * dt
        if k % probe_every == 0 or k == n_steps:
            record(t)
            inflows.append(cum_in)
        if on_step is not None:
            on_step(t, main, comp_fields)
        if k in snap_steps:
            snapshots.append((t, main.copy()))
    return RunReport(np.array(times), np.array(sups), np.array(infs), np.array(masses),
                     {k: np.array(v) for k, v in l1s.items()}, np.array(inflows),
                     snapshots, main, comp_fields, dt)


def ref_support_loop(ref, flux, b1, b2, scheme, horizon, n_checks=6):
    """The two-field loop of support_experiment; returns the checked pairs.

    Both fields step with the common interval (j_lo, j_hi) as the shared
    guard, as `support_experiment` does.
    """
    g = b1.grid
    j_lo = min(float(b1.values.min()), float(b2.values.min()))
    j_hi = max(float(b1.values.max()), float(b2.values.max()))
    bg1 = constant_background(float(b1.values[0, 0]), g.d)
    bg2 = bg1
    check_times = np.linspace(horizon / n_checks, horizon, n_checks)
    state1, state2 = b1.copy(), b2.copy()
    dt = stable_dt(flux, g, scheme, j_lo, j_hi)
    n_steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    dt = horizon / n_steps
    check_steps = {min(n_steps, max(1, int(round(ts / dt)))): ts for ts in check_times}
    checked = []
    t = 0.0
    for k in range(1, n_steps + 1):
        state2, _ = ref.step(state2, scheme, flux, bg2, t, dt, (j_lo, j_hi))
        state1, _ = ref.step(state1, scheme, flux, bg1, t, dt, (j_lo, j_hi))
        t = k * dt
        if k in check_steps:
            checked.append((t, state2.values.tobytes(), state1.values.tobytes()))
    return checked


# -- comparisons ------------------------------------------------------------------

def _report_bytes(rep: RunReport):
    return ([a.tobytes() for a in (rep.times, rep.sup, rep.inf, rep.mass, rep.boundary_inflow)]
            + [(k, v.tobytes()) for k, v in sorted(rep.l1.items())]
            + [(float(t).hex(), f.values.tobytes()) for t, f in rep.snapshots]
            + [rep.final.values.tobytes(), float(rep.dt).hex()]
            + [(k, f.values.tobytes()) for k, f in sorted(rep.companions.items())])


@pytest.fixture(scope="module")
def curved11(pair11, dual11):
    return sl.make_scaled_gauge(pair11, dual11, 0.5, 0.0, y_extent=(-4.0, 4.0))


@pytest.mark.parametrize("case", ["converges", "capped", "moving"])
def test_settle_matches_reference(case, log, pair11, planar11, curved11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (24, 24))
    scheme = sl.SchemeConfig()
    flux = pair11.reduced
    prof, cap = (planar11, 3000) if case == "converges" else (curved11, 30)
    bg = profile_background(prof)
    if case == "moving":
        scheme = sl.SchemeConfig(frame="original")
        flux = pair11.flux
        bg = profile_background(prof, moving=True)
        assert np.any(bg.velocity != 0.0)
    u0 = sample_profile(prof, g)
    ref = RefLog()
    want = ref_settle(ref, u0, scheme, flux, bg, cap)
    got = xp.settle([(u0, bg)], scheme, flux, cap).fields[0]
    assert got.values.tobytes() == want.values.tobytes()
    # the old loop passed t = 0 to every step, the engine passes the time
    # reached; settle's ghost layers are at rest, so t reaches no value
    assert [e[1:] for e in log] == [e[1:] for e in ref]
    if case == "converges":
        assert 0 < len(ref) < cap
    else:
        assert len(ref) == cap


@pytest.mark.parametrize("moving", [False, True])
def test_joint_settle_below_the_window_matches_per_field_settles(moving, log, pair11, curved11):
    # below PLATEAU_WINDOW steps only tol can end a settle; curved fronts never
    # reach it, so each field takes exactly the steps of its own capped settle
    g = sl.Grid.from_box((-2, 2, -2, 2), (24, 24))
    scheme, flux = sl.SchemeConfig(), pair11.reduced
    if moving:
        scheme, flux = sl.SchemeConfig(frame="original"), pair11.flux
    profs = [curved11] + [sl.make_scaled_gauge(pair11, curved11.dual, s, r, y_extent=(-4.0, 4.0))
                          for s, r in ((0.3, 0.2), (0.7, -0.4))]
    pairs = [(sample_profile(p, g), profile_background(p, moving=moving)) for p in profs]
    cap = xp.PLATEAU_WINDOW - 5
    ref = RefLog()
    want = [ref_settle(ref, f, scheme, flux, bg, cap) for f, bg in pairs]
    got = xp.settle(pairs, scheme, flux, max_steps=cap)
    assert [f.values.tobytes() for f in got.fields] == [f.values.tobytes() for f in want]
    assert got.steps == cap and not any(got.converged)
    # the same steps, interleaved field by field; settle's ghosts are at rest
    assert sorted(e[1:] for e in log) == sorted(e[1:] for e in ref)
    assert len(ref) == len(profs) * cap


def _stability_setup(pair11, curved11, g):
    """A perturbed curved shock with two companions on their own backgrounds."""
    u0 = sl.Field(g, sample_profile(curved11, g).values
                  + sample_function(sl.PerturbationSpec("bump", (0.8, 0.3), 0.6, 0.8), g).values)
    shifted = sl.make_scaled_gauge(pair11, curved11.dual, 0.5, 0.3, y_extent=(-4.0, 4.0))
    comps = [Companion("cmp", sample_profile(shifted, g), profile_background(shifted)),
             Companion("base", sample_profile(curved11, g), profile_background(curved11))]
    return u0, comps


@pytest.mark.parametrize("guarded", [False, True])
def test_run_with_companions_matches_reference(guarded, log, pair11, curved11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (20, 20))
    scheme = sl.SchemeConfig()
    u0, comps = _stability_setup(pair11, curved11, g)
    bg = profile_background(curved11)
    guard = (pair11.u_plus - 1e-9, pair11.u_minus + 1e-9) if guarded else None
    seen = {"got": [], "want": []}

    def on_step(key):
        def record(t, main, comp):
            seen[key].append((float(t).hex(), main.values.tobytes(),
                              [(k, f.values.tobytes()) for k, f in sorted(comp.items())]))
        return record

    kwargs = dict(snapshot_times=[0.0, 0.1, 0.25, 0.4], range_guard=guard, probe_every=4)
    ref = RefLog()
    want = ref_run(ref, u0, scheme, pair11.reduced, 0.4, bg, comps,
                   on_step=on_step("want"), **kwargs)
    got = solver.run(u0, scheme, pair11.reduced, 0.4, bg, comps, on_step=on_step("got"),
                     **kwargs)
    assert _report_bytes(got) == _report_bytes(want)
    assert seen["got"] == seen["want"]
    assert log == ref
    n_steps = len(seen["want"])
    assert len(ref) == 3 * n_steps and n_steps % 4 != 0  # the last probe is off the stride
    assert len(want.snapshots) == 4


def test_run_3d_engquist_osher_moving_matches_reference(log):
    pair = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
    dual = sl.dual_cone(sl.admissible_cone(pair, 0.05))
    prof = sl.make_planar(pair, dual, [0.58, 0.0, 0.81])
    g = sl.Grid.from_box((-1, 1, -1, 1, -1, 1), (8, 8, 8))
    scheme = sl.SchemeConfig(numerical_flux="engquist-osher", frame="original")
    bg = profile_background(prof, moving=True)
    u0 = sl.Field(g, sample_profile(prof, g).values
                  + sample_function(sl.PerturbationSpec("bump", (0.0, 0.0, 0.0), 0.5, 0.4),
                                    g).values)
    ref = RefLog()
    want = ref_run(ref, u0, scheme, pair.flux, 0.2, bg, snapshot_times=[0.1, 0.2])
    got = solver.run(u0, scheme, pair.flux, 0.2, bg, snapshot_times=[0.1, 0.2])
    assert _report_bytes(got) == _report_bytes(want)
    assert log == ref
    assert len({e[0] for e in ref}) == len(ref) > 1  # ghosts at a new t each step


def test_run_rejects_duplicate_companion_names(planar11, pair11):
    g = sl.Grid.from_box((-2, 2, -2, 2), (8, 8))
    u0 = sample_profile(planar11, g)
    twins = [Companion("cmp", u0, None), Companion("cmp", u0, None)]
    with pytest.raises(ValueError, match="unique"):
        solver.run(u0, sl.SchemeConfig(), pair11.reduced, 0.1, None, twins)


def test_support_pair_matches_reference(log, burgers2):
    g = sl.Grid.from_box((-3, 9, -3, 9), (48, 48))
    b1 = sl.Field(g, np.full(g.counts, 1.0))
    b2 = sl.Field(g, b1.values + sample_function(
        sl.PerturbationSpec("bump", (0.0, 0.0), 0.8, 0.1), g).values)
    scheme = sl.SchemeConfig()
    ref = RefLog()
    want = ref_support_loop(ref, burgers2, b1, b2, scheme, 1.0)
    checked = []
    real_distance = xp._polygon_distance

    def spy(poly, pts):
        # each containment check sees the pair of fields stepped so far
        checked.append(log[-2][3] + log[-1][3])
        return real_distance(poly, pts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(xp, "_polygon_distance", spy)
        rep = sl.support_experiment(burgers2, b1, b2, scheme, 1.0)
    assert rep.passed
    assert log == ref
    sha = lambda b: hashlib.sha256(b).hexdigest()  # noqa: E731
    assert checked == [sha(s2) + sha(s1) for _, s2, s1 in want]
    # the shared guard fixes the Rusanov bound while b2's range shrinks
    lams = [np.frombuffer(e[4])[2] for e in ref[0::2]]
    assert lams[-1] == lams[0]
    assert all(e[2] == (1.0, float(b2.values.max())) for e in ref)


def test_stability_steps_all_go_through_solver_step(log, pair11, dual11):
    prof = sl.make_planar(pair11, dual11, [1, 0], 0.0, y_extent=(-2, 2))
    g = sl.Grid.from_box((-2, 2, -2, 2), (16, 16))
    phi = sl.PerturbationSpec("bump", (0.8, 0.0), 0.5, 0.5)
    rep = sl.stability_experiment(prof, phi, g, sl.SchemeConfig(), horizon=0.3,
                                  settle_steps=5)
    n_steps = len(rep.series[1]) - 1
    # one joint settle of 8 fields (5 comparisons, 2 sandwich bounds, base),
    # 9 fields evolved, and the U_hat settle
    assert len(log) == 8 * 5 + 9 * n_steps + 40
    settled = rep.extras["settle"]
    assert settled["shocks"]["steps"] == 5 and settled["u_hat"]["steps"] == 40
    assert list(settled["shocks"]["fields"]) == [f"cmp{i}" for i in range(5)] + [
        "lower", "upper", "base"]
    assert not hasattr(xp, "step")
