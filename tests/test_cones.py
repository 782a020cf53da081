import numpy as np
import pytest

import shocklab as sl
from shocklab import cones
from shocklab.cones import sector_cone
from shocklab.errors import TrivialCone


def test_admissible_sector_symmetric_pair(pair11):
    cone = sl.admissible_cone(pair11, 1e-4)
    assert not cone.trivial
    assert abs(cone.sector[0] + np.pi / 4) <= 1e-4
    assert abs(cone.sector[1] - np.pi / 4) <= 1e-4


def test_admissible_sector_one_zero(burgers2):
    p = sl.make_shock_pair(burgers2, 1.0, 0.0)
    cone = sl.admissible_cone(p, 1e-6)
    # boundary rays solve xi1 + 2 xi2 = 0 and xi1 + xi2 = 0
    assert abs(cone.sector[0] - np.arctan2(-1.0, 2.0)) <= 1e-5
    assert abs(cone.sector[1] - 3 * np.pi / 4) <= 1e-5
    # direction (0, 1) is admissible here, (0, -1) is not
    assert sl.cone_contains(cone, [0.0, 1.0])
    assert not sl.cone_contains(cone, [0.0, -1.0])


def test_trivial_cone():
    f = sl.Flux(((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
    p = sl.make_shock_pair(f, 1.0, -1.0)
    cone = sl.admissible_cone(p, 1e-3)
    assert cone.trivial
    with pytest.raises(TrivialCone):
        sl.dual_cone(cone)


def test_admissible_cone_below_one_ulp_returns(pair11, monkeypatch):
    # the bisection stops at adjacent floats: from the scan's step of 2 pi /
    # 1024 that is about 45 halvings per boundary angle
    calls = []
    real = cones.oleinik_admissible

    def counted(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= 200, "the bisection does not stop"
        return real(*args, **kwargs)

    monkeypatch.setattr(cones, "oleinik_admissible", counted)
    fine = sl.admissible_cone(pair11, 1e-300)
    monkeypatch.undo()
    coarse = sl.admissible_cone(pair11, 1e-8)
    assert np.allclose(fine.sector, coarse.sector, rtol=0.0, atol=1e-8)


def test_dual_cone_self_dual(cone11, dual11):
    angles = np.sort(np.arctan2(dual11.generators[:, 1], dual11.generators[:, 0]))
    assert np.allclose(angles, [-np.pi / 4, np.pi / 4], atol=1e-6)
    assert np.allclose(dual11.W, [1.0, 0.0], atol=1e-7)
    assert np.allclose(dual11.lam, [1.0, 0.0], atol=1e-7)


def test_double_dual_identity():
    # sector of width pi/2 rotated by pi/6 is again self-dual after rotation
    cone = sector_cone(np.pi / 6 - np.pi / 4, np.pi / 6 + np.pi / 4)
    dual = sl.dual_cone(cone)
    angles = np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0]))
    assert np.allclose(angles, [np.pi / 6 - np.pi / 4, np.pi / 6 + np.pi / 4], atol=1e-12)


def test_degenerate_ray_dual_is_halfspace():
    lam_angle = 0.3
    ray = sector_cone(lam_angle, lam_angle)
    assert ray.degenerate_ray
    dual = sl.dual_cone(ray)
    assert dual.degenerate
    angles = np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0]))
    assert np.allclose(angles, [lam_angle - np.pi / 2, lam_angle + np.pi / 2], atol=1e-12)
    # gauge of a halfspace epigraph is identically zero
    assert np.allclose(dual.gauge(np.linspace(-2, 2, 9)), 0.0)


def test_dual_from_flux_symmetric(pair11):
    dual = sl.dual_cone_from_flux(pair11)
    angles = np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0]))
    assert np.allclose(angles, [-np.pi / 4, np.pi / 4], atol=1e-4)
    assert np.allclose(dual.W, [1.0, 0.0], atol=1e-5)


def test_dual_from_flux_one_zero(burgers2):
    p = sl.make_shock_pair(burgers2, 1.0, 0.0)
    dual = sl.dual_cone_from_flux(p)
    got = np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0]))
    want = np.sort([np.arctan2(1.0, 1.0), np.arctan2(2.0, 1.0)])
    assert np.allclose(got, want, atol=1e-4)


@pytest.mark.parametrize("states", [(1.0, -1.0), (1.0, 0.0), (0.5, -1.5), (2.0, 1.0)])
def test_dual_constructions_agree(burgers2, states):
    p = sl.make_shock_pair(burgers2, *states)
    via_cone = sl.dual_cone(sl.admissible_cone(p, 1e-6))
    via_flux = sl.dual_cone_from_flux(p, 2048)
    a = np.sort(np.arctan2(via_cone.generators[:, 1], via_cone.generators[:, 0]))
    b = np.sort(np.arctan2(via_flux.generators[:, 1], via_flux.generators[:, 0]))
    assert np.max(np.abs(a - b)) <= 2e-5


def test_gauge_absolute_value(dual11):
    ys = np.linspace(-4, 4, 100)
    assert np.max(np.abs(dual11.gauge(ys) - np.abs(ys))) <= 1e-6
    assert dual11.gauge(0.0) == 0.0


def test_gauge_homogeneity(dual11, rng):
    for _ in range(50):
        y = rng.uniform(-5, 5)
        c = rng.uniform(0.1, 10)
        assert abs(dual11.gauge(c * y) - c * dual11.gauge(y)) <= 1e-12 * max(1, abs(y) * c)


def test_gauge_subadditive(dual11, rng):
    ya, yb = rng.uniform(-5, 5, (2, 200))
    lhs = dual11.gauge(ya + yb)
    rhs = dual11.gauge(ya) + dual11.gauge(yb)
    assert np.all(lhs <= rhs + 1e-12)


def test_gauge_lipschitz_bound(dual11, rng):
    c = np.max(np.abs(dual11.facet_slopes))
    ys = rng.uniform(-10, 10, 500)
    assert np.all(dual11.gauge(ys) <= c * np.abs(ys) + 1e-12)


def test_cone_contains_margins(cone11):
    assert sl.cone_contains(cone11, [1.0, 0.0], 0.5)
    assert not sl.cone_contains(cone11, np.array([1.0, 1.0]) / np.sqrt(2), 0.1)
    assert not sl.cone_contains(cone11, [0.0, 1.0], 0.0)
    # boundary direction is inside the closed cone at zero margin
    assert sl.cone_contains(cone11, [np.cos(np.pi / 4 - 1e-6), np.sin(np.pi / 4 - 1e-6)], 0.0)


def test_frame_soundness(pair11, dual11):
    s = np.linspace(pair11.u_plus, pair11.u_minus, 201)
    vecs = pair11.f_bar[None, :] - np.stack(
        [np.polynomial.polynomial.polyval(s, pair11.reduced.component(i)) for i in range(2)],
        axis=1,
    )
    proj = vecs @ dual11.W
    assert np.all(proj >= -1e-12)
    interior = (s > pair11.u_plus + 0.05) & (s < pair11.u_minus - 0.05)
    assert np.all(proj[interior] > 0)


def test_dual_generators_support_primal(burgers2, rng):
    for states in [(1.0, -1.0), (1.5, 0.2)]:
        p = sl.make_shock_pair(burgers2, *states)
        cone = sl.admissible_cone(p, 1e-6)
        dual = sl.dual_cone(cone)
        for n in dual.generators:
            for xi in cone.generators:
                assert float(n @ xi) >= -1e-9


def test_three_dimensional_cone():
    f3 = sl.burgers_flux(3)
    p = sl.make_shock_pair(f3, 1.0, -1.0)
    cone = sl.admissible_cone(p, 0.12)
    assert not cone.trivial
    assert cone.directions is not None and len(cone.directions) > 10
    dual = sl.dual_cone(cone)
    # frame axis is interior to the dual cone
    assert np.all(cone.generators @ dual.W > 0)
    # e1 is strictly admissible for this pair
    assert sl.cone_contains(cone, [1.0, 0.0, 0.0], 0.05)
    # gauge positive homogeneity and subadditivity on the 2-plane H
    rng = np.random.default_rng(3)
    ys = rng.uniform(-2, 2, (40, 2))
    g1 = dual.gauge(ys)
    assert np.allclose(dual.gauge(2.0 * ys), 2.0 * g1, atol=1e-10)
    g_sum = dual.gauge(ys[:20] + ys[20:])
    assert np.all(g_sum <= dual.gauge(ys[:20]) + dual.gauge(ys[20:]) + 1e-10)


def test_three_dimensional_dual_routes_agree():
    f3 = sl.burgers_flux(3)
    p = sl.make_shock_pair(f3, 1.0, -1.0)
    d1 = sl.dual_cone(sl.admissible_cone(p, 0.12))
    d2 = sl.dual_cone_from_flux(p, 512)
    assert np.linalg.norm(d1.W - d2.W) <= 0.1
    # every flux chord lies in the sampled dual cone (support check, loose)
    for v in d2.generators:
        assert np.all(d1.primal_generators @ v >= -0.05)
