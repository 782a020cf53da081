"""Front extraction against a copy of its column-by-column original.

The reference below reads one column of the field at a time: on a
grid-aligned frame axis, a column of cells; otherwise one `Field.sample`
call per offset along H.  It finds each column's last crossing of the mid
level in its own loop.  `extract_front` does both for all columns at once,
and every operation is elementwise, so it must reproduce the reference's
nodes and samples bit for bit.
"""

import numpy as np
import pytest

import shocklab as sl
from shocklab.config import parse_config
from shocklab.errors import NoCrossing
from shocklab.solver import sample_function, sample_profile


def _ref_extract_front(field, pair, dual):
    """The nodes and samples of the front, one column at a time."""
    grid = field.grid
    level = 0.5 * (pair.u_minus + pair.u_plus)
    w = dual.W
    aligned = dual.grid_axis
    if aligned is not None:
        axis, r_sign = aligned
        other = 1 - axis
        r_centers = grid.centers(axis) * r_sign
        u_cols = field.values if axis == 0 else np.ascontiguousarray(field.values.T)
        if r_sign < 0:
            r_centers = r_centers[::-1]
            u_cols = u_cols[::-1, :]
        nodes_raw = grid.centers(other) * dual.H[other, 0]
    else:
        lo = np.array(grid.lo)
        hi = lo + np.array(grid.counts) * grid.dx
        diam = float(np.linalg.norm(hi - lo))
        s = np.arange(-0.5 * diam, 0.5 * diam, 0.5 * grid.dx)
        mid = 0.5 * (lo + hi)
        n_cols = max(grid.counts)
        span = float(np.max(hi - lo))
        offsets = np.linspace(-0.5 * span, 0.5 * span, n_cols)
        r_centers = s + float(mid @ w)
        u_cols = np.empty((len(s), n_cols))
        for j, yj in enumerate(offsets):
            pts = mid + np.multiply.outer(s, w) + yj * dual.H[:, 0]
            u_cols[:, j] = field.sample(pts)
        nodes_raw = offsets + float(mid @ dual.H[:, 0])

    order = np.argsort(nodes_raw)
    nodes = nodes_raw[order]
    u_cols = u_cols[:, order]
    psi = np.empty(len(nodes))
    any_crossing = False
    for j in range(len(nodes)):
        col = u_cols[:, j]
        du = col - level
        prod = du[:-1] * du[1:]
        cross = np.where((prod <= 0) & (col[:-1] != col[1:]))[0]
        if len(cross) == 0:
            psi[j] = r_centers[-1] if np.all(du > 0) else r_centers[0]
            continue
        any_crossing = True
        i = int(cross[-1])
        frac = du[i] / (col[i] - col[i + 1])
        psi[j] = r_centers[i] + frac * (r_centers[i + 1] - r_centers[i])
    if not any_crossing:
        raise NoCrossing("no column of the field crosses the mid level")
    return nodes, psi


def _assert_same_front(field, pair, dual):
    nodes, psi, profile = sl.extract_front(field, pair, dual)
    want_nodes, want_psi = _ref_extract_front(field, pair, dual)
    assert nodes.tobytes() == want_nodes.tobytes()
    assert psi.tobytes() == want_psi.tobytes()
    assert profile.front.value(nodes).tobytes() == psi.tobytes()
    return profile


def _noisy(field, pair, rng, spread):
    """field plus noise of up to spread times the jump, kept in range; along
    axis 1, its first three slices are set to u_minus, the fourth to the mid
    level and the last three to u_plus."""
    values = field.values + spread * pair.jump * rng.uniform(-1.0, 1.0, field.values.shape)
    values = np.clip(values, pair.u_plus, pair.u_minus)
    values[:, :3] = pair.u_minus
    values[:, 3] = 0.5 * (pair.u_minus + pair.u_plus)  # on the level: no crossing
    values[:, -3:] = pair.u_plus
    return sl.Field(field.grid, np.ascontiguousarray(values))


# a frame axis along +x, along +y, and along -x
ALIGNED = {"x": ((0, 0, 1), (0, 0, 0, 1)), "y": ((0, 0, 0, 1), (0, 0, 1)),
           "-x": ((0, 0, -1), (0, 0, 0, 1))}


@pytest.mark.parametrize("name", sorted(ALIGNED))
@pytest.mark.parametrize("spread", [0.0, 0.3])
def test_aligned_extraction_keeps_the_bits_of_the_column_loop(name, spread, rng):
    pair = sl.make_shock_pair(sl.Flux(ALIGNED[name]), 1.0, -1.0)
    dual = sl.dual_cone(sl.admissible_cone(pair, 1e-8))
    assert dual.grid_axis is not None
    g = sl.Grid.from_box((-3, 5, -8, 8), (32, 64))
    wedge = sl.make_scaled_gauge(pair, dual, 0.5, y_extent=(-8, 8))
    bump = sl.PerturbationSpec("bump", (2.7, 0.0), 1.6, 1.9)
    field = sl.Field(g, sample_profile(wedge, g).values + sample_function(bump, g).values)
    field = sl.Field(g, np.clip(field.values, pair.u_plus, pair.u_minus))
    if spread:
        field = _noisy(field, pair, rng, spread)
    _assert_same_front(field, pair, dual)


@pytest.mark.parametrize("spread", [0.0, 0.3])
def test_oblique_extraction_keeps_the_bits_of_the_sampling_loop(spread, rng):
    # the stability-oblique digest case's set-up at t = 0
    from test_cli_digests import CASES

    cfg = parse_config(CASES["stability-oblique"][1])
    pair, grid = cfg.build_pair(), cfg.build_grid()
    profile = cfg.build_profile(pair)
    assert profile.dual.grid_axis is None
    field = sl.Field(grid, sample_profile(profile, grid).values
                     + sample_function(cfg.build_perturbation(), grid).values)
    if spread:
        field = _noisy(field, pair, rng, spread)
    _assert_same_front(field, pair, profile.dual)


def test_extraction_reports_a_ratio_above_1(pair11, dual11):
    # a steep step in the front: read, not refused
    g = sl.Grid.from_box((-3, 5, -8, 8), (32, 64))
    values = np.where(g.center_mesh()[..., 0] < np.where(np.abs(g.center_mesh()[..., 1]) < 1,
                                                         3.0, 0.0), 1.0, -1.0)
    profile = _assert_same_front(sl.Field(g, values), pair11, dual11)
    assert profile.rho > 10.0
