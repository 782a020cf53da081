"""The ghost-layer cache of a background: cached layers against fresh ones.

A background keeps each grid's dirichlet ghost layers with a horizon in
time (`solver._evaluate_layers`); a moving shock profile keeps them while no
ghost cell can cross its front.  Below, the cached layers are held to a
fresh evaluation bit for bit, and whole runs to a copy of the ghost layers
as they were before the cache, evaluated at every step.
"""

import io
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shocklab as sl
from shocklab import solver
from shocklab.cli import main
from shocklab.profiles import ShockProfile
from shocklab.solver import Background


@lru_cache(maxsize=None)
def _fronts():
    """name -> (profile, grid, direction along the front, across it)."""
    out = {}
    pair2 = sl.make_shock_pair(sl.burgers_flux(2), 1.0, -1.0)
    dual2 = sl.dual_cone(sl.admissible_cone(pair2, 1e-6))
    g2 = sl.Grid.from_box((-1, 1, -1, 1), (8, 8))
    box2 = (np.full(2, -0.3), np.full(2, 0.3))
    planar2 = sl.make_planar(pair2, dual2, [1.0, 0.3], 0.1)
    gauge2 = sl.make_scaled_gauge(pair2, dual2, 0.5, 0.05)
    # nodes inside the grid, so that the ghost points reach where it clamps
    pwl2 = sl.make_graph(pair2, dual2, lambda y: 0.3 * np.sin(2.0 * y), y_extent=(-1.0, 1.0))
    # all its slopes have one sign, so its clamped ends move fastest
    rising2 = sl.make_graph(pair2, dual2, lambda y: 0.5 * y + 0.1 * y ** 2, y_extent=(-1.0, 1.0))
    profiles2 = {"planar-2d": planar2, "scaled_gauge-2d": gauge2, "pwl-2d": pwl2,
                 "pwl-rising-2d": rising2}
    for name, base in (("gauge", gauge2), ("pwl", pwl2)):
        lower, upper = sl.sandwich_bounds(base, box2, pad=0.05)
        profiles2[f"sandwich-lower-{name}-2d"] = lower
        profiles2[f"sandwich-upper-{name}-2d"] = upper
    pair3 = sl.make_shock_pair(sl.burgers_flux(3), 1.0, -1.0)
    dual3 = sl.dual_cone(sl.admissible_cone(pair3, 0.05))
    g3 = sl.Grid.from_box((-1, 1, -1, 1, -1, 1), (6, 6, 6))
    planar3 = sl.make_planar(pair3, dual3, [0.58, 0.0, 0.81], 0.05)
    lower3, upper3 = sl.sandwich_bounds(planar3, (np.full(3, -0.3), np.full(3, 0.3)), pad=0.05)
    profiles3 = {"planar-3d": planar3, "scaled_gauge-3d": sl.make_scaled_gauge(pair3, dual3, 0.3),
                 "sandwich-lower-3d": lower3, "sandwich-upper-3d": upper3}
    for profiles, g in ((profiles2, g2), (profiles3, g3)):
        for name, prof in profiles.items():
            dual = prof.dual
            normal = np.asarray(prof.front.params["nu"]) if prof.front.kind == "planar" else dual.W
            along = dual.H[:, 0] - (dual.H[:, 0] @ normal) * normal
            out[name] = (prof, g, along / np.linalg.norm(along), normal)
    return out


def _fresh(g, bg, t):
    ghosts = {(ax, side): np.asarray(bg.eval(solver._ghost_points(g, ax, side), t), dtype=float)
              for ax in range(g.d) for side in (0, 1)}
    return ghosts, solver._ghost_range(ghosts)


def _same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


def test_every_front_kind_is_covered():
    kinds = {p.front.kind for p, *_ in _fronts().values()}
    parts = {q.kind for p, *_ in _fronts().values() if p.front.kind == "combine"
             for q in p.front.params["parts"]}
    assert kinds == {"planar", "scaled_gauge", "pwl", "combine"}
    assert parts == {"scaled_gauge", "pwl", "planar", "cone"}


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(sorted(_fronts())),
       st.sampled_from(["along", "across", "oblique", "rankine-hugoniot"]),
       st.floats(min_value=1e-3, max_value=4.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.lists(st.one_of(st.floats(min_value=0.0, max_value=0.3), st.just(1e-12)),
                min_size=1, max_size=12))
def test_cached_ghost_layers_have_the_bits_of_fresh_ones(name, direction, speed, t0, steps):
    prof, g, along, across = _fronts()[name]
    velocity = {"along": along, "across": across, "oblique": along + across,
                "rankine-hugoniot": prof.velocity}[direction] * speed
    bg = Background(prof.eval, velocity)
    assert bg.moving
    f = sl.Field(g, np.zeros(g.counts))
    scheme = sl.SchemeConfig()
    for t in t0 + np.cumsum([0.0] + steps):
        ghosts, rng = solver._ghost_values(f, scheme, bg, float(t))
        want, want_rng = _fresh(g, bg, float(t))
        assert ghosts.keys() == want.keys()
        for key in want:
            assert _same_bits(ghosts[key], want[key]), (name, t, key)
        assert _same_bits(rng, want_rng), (name, t)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_clamped_end_of_a_pwl_front_is_not_missed(sign):
    # W.v and the slopes' s.(H^T v) share a sign, so the clamped ends, where
    # psi is constant, move across the ghost layers faster than any segment
    prof, g, along, across = _fronts()["pwl-rising-2d"]
    bg = Background(prof.eval, sign * (along + across))
    f = sl.Field(g, np.zeros(g.counts))
    last, evaluations = None, 0
    for t in np.linspace(0.0, 1.5, 601):
        ghosts, _ = solver._ghost_values(f, sl.SchemeConfig(), bg, float(t))
        evaluations += ghosts is not last
        last = ghosts
        for key, v in _fresh(g, bg, float(t))[0].items():
            assert _same_bits(ghosts[key], v), (t, key)
    assert 1 < evaluations < 601


def test_a_front_moving_along_itself_is_evaluated_once():
    prof, g, along, _ = _fronts()["planar-3d"]
    bg = Background(prof.eval, 2.0 * along)
    f = sl.Field(g, np.zeros(g.counts))
    first, _ = solver._ghost_values(f, sl.SchemeConfig(), bg, 0.0)
    for t in np.linspace(0.0, 5.0, 11):
        ghosts, _ = solver._ghost_values(f, sl.SchemeConfig(), bg, float(t))
        assert ghosts is first
        for key, v in _fresh(g, bg, float(t))[0].items():
            assert _same_bits(ghosts[key], v)
            assert not ghosts[key].flags.writeable


def test_drift_rate_adds_the_zero_slope_where_a_front_clamps():
    fronts = _fronts()
    v = np.array([0.7, -0.2])
    for name in ("planar-2d", "pwl-rising-2d", "sandwich-upper-pwl-2d"):
        prof = fronts[name][0]
        w_v = prof.dual.W @ v
        want = np.max(np.abs(w_v - prof.front.slopes @ (prof.dual.H.T @ v)))
        if name != "planar-2d":
            want = max(want, abs(w_v))
        assert prof.drift_rate(v) == want, name
    # along a planar front its gap does not change
    planar, _, along, _ = fronts["planar-2d"]
    assert planar.drift_rate(along) <= 1e-15


# -- whole runs against the ghost layers before the cache ------------------------------

def _ghost_values_every_step(field, scheme, background, t):
    """`solver._ghost_values` as it was before the cache had a horizon: a
    moving background is evaluated at every call."""
    g = field.grid
    if scheme.boundary == "outflow" or background is None:
        return {(ax, side): np.moveaxis(field.values, ax, 0)[0 if side == 0 else -1]
                for ax in range(g.d) for side in (0, 1)}, (np.inf, -np.inf)
    ghosts = {(ax, side): np.asarray(background.eval(solver._ghost_points(g, ax, side), t),
                                     dtype=float)
              for ax in range(g.d) for side in (0, 1)}
    return ghosts, solver._ghost_range(ghosts)


def _run(command, cfg, workdir: Path):
    out = workdir / "out"
    path = workdir / "c.cfg"
    path.write_text(cfg + f"output.dir = {out}\n")
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main([command, "--config", str(path)], stdout=stdout, stderr=stderr)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, stdout.getvalue(), stderr.getvalue(), files


@pytest.mark.parametrize("case", ["simulate-3d", "simulate-2d-crossing"])
def test_original_frame_runs_match_ghost_layers_of_every_step(case, tmp_path, monkeypatch):
    from test_cli_digests import CASES

    d = 3 if case == "simulate-3d" else 2
    if d == 3:
        command, cfg = CASES["simulate-3d"]
    else:
        # a front that moves across its normal sweeps along the ghost layers
        command, cfg = CASES["simulate"]
        assert "profile.nu = 1,0\n" in cfg
        cfg = cfg.replace("profile.nu = 1,0\n", "profile.nu = 1.0,0.3\n") + \
            "scheme.frame = original\n"
    layers, steps = [], []
    eval_ = ShockProfile.eval
    step = solver.step

    def spy_eval(self, x, frame_values=False):
        layers.append(frame_values)
        return eval_(self, x, frame_values)

    def spy_step(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(ShockProfile, "eval", spy_eval)
    monkeypatch.setattr(solver, "step", spy_step)
    (tmp_path / "cached").mkdir()
    cached = _run(command, cfg, tmp_path / "cached")
    evaluations = sum(layers) / (2 * d)  # one call per ghost layer
    n_steps = len(steps)
    monkeypatch.setattr(solver, "_ghost_values", _ghost_values_every_step)
    (tmp_path / "every").mkdir()
    every = _run(command, cfg, tmp_path / "every")
    assert cached[0] == 0
    assert cached == every
    if d == 3:
        assert evaluations == 1
    else:
        # the layers are evaluated again after a ghost cell may have crossed
        assert 1 < evaluations < n_steps / 4, (evaluations, n_steps)
