"""Desk-scale experiments: stability, overhead extinction, dispersion, support.

Each experiment returns an ExperimentReport whose checks are the observable
consequences of the underlying statements: Lyapunov monotonicity of L1
distances to nearby steady shocks, confinement between sandwich shocks, the
mass identity of the limit front, finite-time extinction of the overhead with
its geometric absorption-time estimate, finite speed of support propagation
inside the chord hull, and the sup-norm dispersion exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    BoundaryContact,
    Characteristic,
    EtaTooLarge,
    RangeViolation,
)
from .fluxes import Flux, burgers_flux, burgers_normalization, is_burgers, poly_abs_max
from .profiles import (
    PerturbationSpec,
    ShockProfile,
    extract_front,
    make_graph,
    sandwich_bounds,
)
from .solver import (
    Background,
    Companion,
    Field,
    Grid,
    SchemeConfig,
    check_range,
    constant_background,
    field_range,
    l1_distance,
    profile_background,
    run,
    sample_function,
    sample_profile,
    stable_dt,
    step,
)

__all__ = [
    "Check",
    "ExperimentReport",
    "SupportHull",
    "AbsorptionEstimate",
    "support_hull",
    "support_experiment",
    "stability_experiment",
    "predicted_absorption_time",
    "overhead_experiment",
    "dispersion_experiment",
    "dispersion_exponents",
    "settle",
    "default_comparison_profiles",
    "smooth_burgers_solution",
    "normalization_residual_study",
]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    tol: float
    note: str = ""


@dataclass(eq=False)
class ExperimentReport:
    kind: str
    checks: list[Check]
    series: tuple[list[str], np.ndarray] | None = None
    extras: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def settle(
    field_in: Field,
    scheme: SchemeConfig,
    flux: Flux,
    background: Background | None,
    max_steps: int = 2000,
    tol: float | None = None,
) -> Field:
    """Relax a sampled profile to a numerical steady state of the scheme.

    Sharp two-valued data develop a thin discrete shock layer; iterating the
    update until the per-step L1 self-change drops below tol freezes that
    layer so steady profiles really are fixed points of the evolution.
    Raises CFLViolation if a step leaves the start range of the field and its
    ghosts, which a monotone update never does.
    """
    g = field_in.grid
    if tol is None:
        tol = 1e-13 * g.ncells * g.cell_volume
    f = field_in.copy()
    guard = field_range(f, scheme, background)
    dt = stable_dt(flux, g, scheme, float(f.values.min()) - 1e-9, float(f.values.max()) + 1e-9)
    for _ in range(max_steps):
        nxt, _ = step(f, scheme, flux, background, 0.0, dt)
        check_range(nxt.values.min(), nxt.values.max(), guard)
        change = float(np.abs(nxt.values - f.values).sum()) * g.cell_volume
        f = nxt
        if change <= tol:
            break
    return f


# -- support propagation ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SupportHull:
    """Convex hull of chord velocities over a state interval J."""

    j: tuple[float, float]
    vertices: np.ndarray          # hull vertices, CCW for d = 2
    center: np.ndarray            # f'(J lower end)
    amplitude: float
    c_f: float                    # norm of componentwise max |f''| over J
    radius: float                 # c_f * amplitude

    def max_speed(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))


def support_hull(flux: Flux, j, n_samples: int = 64) -> SupportHull:
    """Hull of (f(s2) - f(s1))/(s2 - s1) over J x J, with f'(s) on the diagonal."""
    lo, hi = (float(j[0]), float(j[1])) if np.ndim(j) else (float(j), float(j))
    if hi < lo:
        raise ValueError("interval must be ordered")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    amp = hi - lo
    c_f = float(np.linalg.norm([
        poly_abs_max(flux.component(i, 2), lo, hi) for i in range(flux.d)
    ]))
    center = flux.value(lo, 1)
    if amp == 0.0:
        return SupportHull((lo, hi), center[None, :], center, 0.0, c_f, 0.0)
    s = np.linspace(lo, hi, n_samples)
    f_s = np.stack([P.polyval(s, flux.component(i)) for i in range(flux.d)], axis=1)
    df = np.stack([P.polyval(s, flux.component(i, 1)) for i in range(flux.d)], axis=1)
    s1 = np.repeat(s, n_samples)
    s2 = np.tile(s, n_samples)
    mask = s1 != s2
    chords = (f_s[np.tile(np.arange(n_samples), n_samples)[mask]]
              - f_s[np.repeat(np.arange(n_samples), n_samples)[mask]])
    chords = chords / (s2[mask] - s1[mask])[:, None]
    pts = np.vstack([chords, df])
    verts = _hull_vertices(pts)
    return SupportHull((lo, hi), verts, center, amp, c_f, c_f * amp)


def _hull_vertices(pts: np.ndarray) -> np.ndarray:
    from scipy.spatial import ConvexHull

    spread = np.max(pts, axis=0) - np.min(pts, axis=0)
    if np.min(spread) <= 1e-12 * max(1.0, np.max(spread)):
        # (near-)degenerate cloud: keep the extreme points along the long axis
        ax = int(np.argmax(spread))
        order = np.argsort(pts[:, ax])
        return pts[[order[0], order[-1]]]
    hull = ConvexHull(pts)
    return pts[hull.vertices]


def _polygon_distance(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from points to a convex polygon (CCW vertices); 0 inside."""
    if len(poly) == 1:
        return np.linalg.norm(pts - poly[0], axis=-1)
    if len(poly) == 2:
        return _segment_distance(poly[0], poly[1], pts)
    inside = np.ones(len(pts), dtype=bool)
    dist = np.full(len(pts), np.inf)
    n = len(poly)
    for k in range(n):
        p, q = poly[k], poly[(k + 1) % n]
        e = q - p
        cross = e[0] * (pts[:, 1] - p[1]) - e[1] * (pts[:, 0] - p[0])
        inside &= cross >= -1e-12
        dist = np.minimum(dist, _segment_distance(p, q, pts))
    return np.where(inside, 0.0, dist)


def _segment_distance(p, q, pts):
    e = q - p
    L2 = float(e @ e)
    if L2 == 0:
        return np.linalg.norm(pts - p, axis=-1)
    t = np.clip(((pts - p) @ e) / L2, 0.0, 1.0)
    proj = p + t[:, None] * e
    return np.linalg.norm(pts - proj, axis=-1)


def support_experiment(
    flux: Flux,
    b1: Field,
    b2: Field,
    scheme: SchemeConfig,
    horizon: float,
    threshold: float = 1e-3,
    n_checks: int = 6,
) -> ExperimentReport:
    """Verify that supp(S_t b2 - S_t b1) stays inside K + tC plus a diffusion margin.

    The margin 8 sqrt(Lambda dx t) + 4 dx accounts for the parabolic spreading
    of the first-order scheme; the hull C comes from the chord velocities over
    the common state interval.
    """
    g = b1.grid
    if g != b2.grid:
        raise ValueError("fields must share a grid")
    if g.d != 2:
        raise NotImplementedError("support experiment implemented for d = 2")
    diff0 = b2.values - b1.values
    amp = float(np.max(np.abs(diff0)))
    if amp == 0.0:
        return ExperimentReport("support", [Check("containment", True, 0.0, 0.0, "b2 == b1")])
    j_lo = min(float(b1.values.min()), float(b2.values.min()))
    j_hi = max(float(b1.values.max()), float(b2.values.max()))
    hull = support_hull(flux, (j_lo, j_hi))
    lam = max(float(poly_abs_max(flux.component(i, 1), j_lo, j_hi)) for i in range(g.d))

    mesh = g.center_mesh()
    mask0 = np.abs(diff0) > threshold * amp
    k_lo = mesh[mask0].min(axis=0) - 0.5 * g.dx
    k_hi = mesh[mask0].max(axis=0) + 0.5 * g.dx
    k_corners = np.array([[k_lo[0], k_lo[1]], [k_hi[0], k_lo[1]],
                          [k_hi[0], k_hi[1]], [k_lo[0], k_hi[1]]])

    bg1 = constant_background(float(b1.values[0, 0]), g.d)
    bg2 = bg1  # identical far field; the difference is compactly supported
    check_times = np.linspace(horizon / n_checks, horizon, n_checks)
    worst_excess = 0.0

    state1, state2 = b1.copy(), b2.copy()
    dt = stable_dt(flux, g, scheme, j_lo, j_hi)
    n_steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    dt = horizon / n_steps
    check_steps = {min(n_steps, max(1, int(round(ts / dt)))): ts for ts in check_times}
    edge = np.zeros(g.counts, dtype=bool)
    edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True

    t = 0.0
    for k in range(1, n_steps + 1):
        state2, _ = step(state2, scheme, flux, bg2, t, dt)
        state1, _ = step(state1, scheme, flux, bg1, t, dt)
        t = k * dt
        if k not in check_steps:
            continue
        diff = np.abs(state2.values - state1.values)
        mask = diff > threshold * amp
        if np.any(mask & edge):
            raise BoundaryContact(f"difference support reached the domain edge at t={t:.3g}")
        if not np.any(mask):
            continue
        poly = _hull_vertices(np.array([c + t * v for c in k_corners for v in hull.vertices]))
        pts = mesh[mask]
        margin = 8.0 * np.sqrt(lam * g.dx * t) + 4.0 * g.dx
        excess = float(np.max(_polygon_distance(poly, pts)) - margin)
        worst_excess = max(worst_excess, excess)

    checks = [Check("containment", worst_excess <= 0.0, worst_excess, 0.0,
                    "max distance beyond K + tC + margin(t)")]
    return ExperimentReport("support", checks, extras={
        "hull_vertices": hull.vertices, "lambda": lam, "amplitude": amp})


# -- asymptotic stability ---------------------------------------------------------

def default_comparison_profiles(profile: ShockProfile, count: int = 5) -> list[ShockProfile]:
    """Admissible steady shocks coinciding with the base front outside a tent.

    Tent supports stay well inside the profile's extent (the Lyapunov
    monotonicity needs identical boundary data), widths are distinct, and
    slopes small enough to keep the combined front gauge-Lipschitz below 1.
    """
    lo, hi = profile.y_extent
    span = hi - lo
    mid = 0.5 * (lo + hi)
    params = [(0.0, 0.14, 0.35), (0.1, 0.2, 0.25), (-0.14, 0.1, 0.4),
              (0.06, 0.16, -0.3), (-0.06, 0.24, -0.2), (0.16, 0.12, 0.15),
              (-0.1, 0.28, -0.1), (0.0, 0.08, 0.3)]
    slope_room = max(0.0, 0.95 - profile.rho)
    out = []
    for cf, wf, s in params[:count]:
        c = mid + cf * span
        w = wf * span
        s = float(np.clip(s, -slope_room, slope_room))
        base = profile.front

        def make_fn(c=c, w=w, s=s):
            def fn(y):
                y = np.asarray(y, dtype=float)
                return base.value(y) + s * np.maximum(0.0, 0.5 * w - np.abs(y - c))
            return fn

        out.append(make_graph(profile.pair, profile.dual, make_fn(),
                              y_extent=profile.y_extent))
    return out


def stability_experiment(
    profile: ShockProfile,
    phi: PerturbationSpec,
    grid: Grid,
    scheme: SchemeConfig,
    horizon: float,
    comparison_profiles: list[ShockProfile] | None = None,
    settle_steps: int = 1500,
    lyapunov_slack: float | None = None,
    conv_frac: float = 0.05,
    mass_frac: float = 0.02,
    snapshot_times: list[float] | None = None,
    uhat_settle_steps: int = 40,
) -> ExperimentReport:
    """Perturb a steady shock and verify convergence to a nearby steady shock.

    Records the Lyapunov family t -> ||u(t) - R||_1 against pre-settled
    comparison shocks evolved alongside (so the discrete contraction applies
    exactly), confines u between co-evolved sandwich shocks, extracts the
    limit front, and checks the mass identity of the front displacement.

    The extracted limit is settled only briefly (uhat_settle_steps): long
    enough to re-form the discrete shock layer, short enough that curved
    fronts do not creep under the scheme's transverse diffusion.  The mass
    identity references the front extracted from the co-evolved background,
    which coincides with the sharp background whenever the base front is a
    grid-aligned steady state.
    """
    pair = profile.pair
    if scheme.frame != "reduced":
        raise ValueError("stability experiment runs in the reduced (steady) frame")
    flux = scheme.flux_of(pair)
    g = grid
    if lyapunov_slack is None:
        lyapunov_slack = 1e-10 * g.ncells

    bg = profile_background(profile)
    u_sharp = sample_profile(profile, g)
    u_settled = settle(u_sharp, scheme, flux, bg, settle_steps)

    phi_field = sample_function(phi, g)
    a = Field(g, u_settled.values + phi_field.values)
    slack = 1e-12 * pair.jump
    if a.values.min() < pair.u_plus - slack or a.values.max() > pair.u_minus + slack:
        raise RangeViolation(
            f"initial data leave [{pair.u_plus}, {pair.u_minus}]: "
            f"[{a.values.min()}, {a.values.max()}]"
        )

    if comparison_profiles is None:
        comparison_profiles = default_comparison_profiles(profile)
    lower_p, upper_p = sandwich_bounds(profile, phi.bounding_box, pad=g.dx)

    companions = []
    for i, cp in enumerate(comparison_profiles):
        cf = settle(sample_profile(cp, g), scheme, flux, profile_background(cp), settle_steps)
        companions.append(Companion(f"cmp{i}", cf, profile_background(cp)))
    lower_f = settle(sample_profile(lower_p, g), scheme, flux, profile_background(lower_p),
                     settle_steps)
    upper_f = settle(sample_profile(upper_p, g), scheme, flux, profile_background(upper_p),
                     settle_steps)
    companions.append(Companion("lower", lower_f, profile_background(lower_p)))
    companions.append(Companion("upper", upper_f, profile_background(upper_p)))
    companions.append(Companion("base", u_settled, bg))

    conf_viol = 0.0

    def on_step(t, main, comp):
        nonlocal conf_viol
        conf_viol = max(conf_viol,
                        float(np.max(comp["lower"].values - main.values)),
                        float(np.max(main.values - comp["upper"].values)))

    report = run(a, scheme, flux, horizon, bg, companions,
                 snapshot_times=snapshot_times, on_step=on_step,
                 range_guard=(pair.u_plus - slack, pair.u_minus + slack))

    checks = []
    worst_lyap = -np.inf
    for i in range(len(comparison_profiles)):
        series = report.l1[f"cmp{i}"]
        inc = float(np.max(np.diff(series))) if len(series) > 1 else 0.0
        worst_lyap = max(worst_lyap, inc)
        checks.append(Check(f"lyapunov_cmp{i}", inc <= lyapunov_slack, inc, lyapunov_slack,
                            "max single-step increase of ||u - R||_1"))
    checks.append(Check("confinement", conf_viol <= 1e-12, conf_viol, 1e-12,
                        "max cellwise escape from the sandwich"))

    nodes, psi_hat, u_hat_profile = extract_front(report.final, pair, profile.dual)
    u_hat_sharp = sample_profile(u_hat_profile, g)
    u_hat_settled = settle(u_hat_sharp, scheme, flux, profile_background(u_hat_profile),
                           uhat_settle_steps)
    phi_l1 = float(np.abs(phi_field.values).sum()) * g.cell_volume
    conv = l1_distance(report.final, u_hat_settled)
    conv_tol = conv_frac * max(phi_l1, 1e-30)
    checks.append(Check("convergence", conv <= conv_tol, conv, conv_tol,
                        "||u(T) - U_hat||_1 vs fraction of ||phi||_1"))

    phi_mass = phi_field.mass
    _, _, base_hat_profile = extract_front(report.companions["base"], pair, profile.dual)
    base_hat_sharp = sample_profile(base_hat_profile, g)
    front_mass = float((u_hat_sharp.values - base_hat_sharp.values).sum()) * g.cell_volume
    mass_err = abs(front_mass - phi_mass)
    mass_tol = mass_frac * max(abs(phi_mass), 1e-30)
    checks.append(Check("mass_identity", mass_err <= mass_tol, mass_err, mass_tol,
                        f"integral(U_hat - U) = {front_mass:.6g} vs mass(phi) = {phi_mass:.6g}"))

    header, rows = report.series_rows()
    return ExperimentReport(
        "stability", checks, (header, rows),
        extras={
            "phi_l1": phi_l1, "phi_mass": phi_mass, "front_mass": front_mass,
            "front_nodes": nodes, "front_values": psi_hat,
            "dt": report.dt, "worst_lyapunov_increase": worst_lyap,
            "final": report.final, "u_hat": u_hat_settled,
        },
        snapshots=report.snapshots,
    )


# -- overhead extinction ----------------------------------------------------------

@dataclass(frozen=True)
class AbsorptionEstimate:
    """Geometric absorption-time bound for a small overhead over u_minus."""

    eta: float
    rho: float
    alpha: float
    c_f: float
    ball_radius: float
    g_at_drift: float
    t_star: float
    box: tuple


def predicted_absorption_time(profile: ShockProfile, box, eta: float) -> AbsorptionEstimate:
    """Absorption time t* = (psi(0) - min_K g)/alpha for overhead amplitude eta.

    g(x) = r - rho*gauge(y) is concave piecewise linear, so its minimum over
    the drift ball B(F'(u_minus), 2 c_f eta) and over the box K are exact
    (facet-wise and vertex-wise).  alpha <= 0 means eta is too large.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    pair = profile.pair
    if profile.rho >= 1.0 or not profile.unc:
        raise Characteristic("absorption estimate requires a uniformly non-characteristic front")
    drift = pair.reduced.value(pair.u_minus, 1)
    if float(np.linalg.norm(drift)) == 0.0:
        raise Characteristic("reduced characteristic speed vanishes at u_minus")
    dual = profile.dual
    facets = dual.W[None, :] - profile.rho * (dual.facet_slopes @ dual.H.T)
    g_drift = float(np.min(facets @ drift))
    if g_drift <= 0.0:
        raise Characteristic("drift direction is not transverse to the front cone")
    lo_s = min(pair.u_plus, pair.u_minus)
    hi_s = pair.u_minus + eta
    c_f = float(np.linalg.norm([
        poly_abs_max(pair.flux.component(i, 2), lo_s, hi_s) for i in range(pair.d)
    ]))
    radius = 2.0 * c_f * eta
    alpha = float(np.min(facets @ drift - radius * np.linalg.norm(facets, axis=1)))
    if alpha <= 0.0:
        raise EtaTooLarge(f"ball radius {radius:.3g} kills the absorption rate; shrink eta")
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    corners = np.stack(np.meshgrid(*[(lo[i], hi[i]) for i in range(pair.d)],
                                   indexing="ij"), axis=-1).reshape(-1, pair.d)
    min_k = float(np.min(corners @ facets.T))
    psi0 = float(profile.front.value(np.zeros(()) if pair.d == 2 else np.zeros(pair.d - 1)))
    t_star = (psi0 - min_k) / alpha
    return AbsorptionEstimate(eta, profile.rho, alpha, c_f, radius, g_drift,
                              float(t_star), (tuple(lo), tuple(hi)))


def overhead_experiment(
    profile: ShockProfile,
    phi: PerturbationSpec,
    grid: Grid,
    scheme: SchemeConfig,
    horizon: float,
    eta: float = 0.05,
    tol_frac: float = 0.02,
    settle_steps: int = 1500,
) -> ExperimentReport:
    """Evolve data exceeding [u_plus, u_minus] and watch the overhead die.

    Checks: the positive and negative overheads are non-increasing, both drop
    below tol_frac * jump before the horizon, and the solution stays below the
    evolution of max(u_minus, a) cellwise throughout.  The geometric
    absorption estimate is evaluated once the overhead first drops below eta
    and reported next to the measured extinction time.
    """
    pair = profile.pair
    if not is_burgers(pair.flux):
        raise ValueError("overhead extinction is asserted for the multi-D Burgers flux")
    flux = scheme.flux_of(pair)
    g = grid
    bg = profile_background(profile, moving=scheme.frame == "original")

    u_settled = settle(sample_profile(profile, g), scheme, flux, bg, settle_steps)
    phi_field = sample_function(phi, g)
    a = Field(g, u_settled.values + phi_field.values)
    a_plus = Field(g, np.maximum(pair.u_minus, a.values))
    bg_plus = constant_background(pair.u_minus, g.d)

    domination_viol = 0.0
    eta_state = {"field": None, "t": None}

    def on_step(t, main, comp):
        nonlocal domination_viol
        domination_viol = max(domination_viol,
                              float(np.max(main.values - comp["aplus"].values)))
        if eta_state["field"] is None:
            over = float(main.values.max()) - pair.u_minus
            if over <= eta:
                eta_state["field"] = main.copy()
                eta_state["t"] = t

    lo_guard = min(float(a.values.min()), pair.u_plus) - 1e-9
    hi_guard = max(float(a.values.max()), pair.u_minus) + 1e-9
    report = run(a, scheme, flux, horizon, bg,
                 [Companion("aplus", a_plus, bg_plus)],
                 on_step=on_step, range_guard=(lo_guard, hi_guard))

    over_plus = np.maximum(report.sup - pair.u_minus, 0.0)
    over_minus = np.maximum(pair.u_plus - report.inf, 0.0)
    tol = tol_frac * pair.jump
    mono_plus = float(np.max(np.diff(over_plus))) if len(over_plus) > 1 else 0.0
    mono_minus = float(np.max(np.diff(over_minus))) if len(over_minus) > 1 else 0.0

    below = np.where((over_plus <= tol) & (over_minus <= tol))[0]
    t_ext = float(report.times[below[0]]) if len(below) else float("inf")

    checks = [
        Check("overhead_plus_monotone", mono_plus <= 1e-12, mono_plus, 1e-12),
        Check("overhead_minus_monotone", mono_minus <= 1e-12, mono_minus, 1e-12),
        Check("extinction", np.isfinite(t_ext) and t_ext < horizon, t_ext, horizon,
              "first time both overheads fall below tol" if np.isfinite(t_ext)
              else "overhead above tolerance at the horizon (NoExtinction)"),
        Check("domination", domination_viol <= 1e-14, domination_viol, 1e-14,
              "max cellwise excess of S_t a over S_t a_plus"),
    ]

    extras = {"t_ext": t_ext, "eta": eta, "tol": tol, "dt": report.dt,
              "over_plus": over_plus, "over_minus": over_minus}
    if eta_state["field"] is not None:
        mesh = g.center_mesh()
        mask = eta_state["field"].values > pair.u_minus + 1e-3 * pair.jump
        if np.any(mask):
            k_lo = mesh[mask].min(axis=0) - 0.5 * g.dx
            k_hi = mesh[mask].max(axis=0) + 0.5 * g.dx
        else:
            c = np.asarray(phi.bounding_box[0])
            k_lo, k_hi = c, np.asarray(phi.bounding_box[1])
        try:
            est = predicted_absorption_time(profile, (k_lo, k_hi), eta)
            extras["t_eta"] = eta_state["t"]
            extras["t_star"] = est.t_star
            extras["alpha"] = est.alpha
            extras["predicted_total"] = eta_state["t"] + max(est.t_star, 0.0)
        except (Characteristic, EtaTooLarge) as exc:
            extras["absorption_note"] = str(exc)

    header, rows = report.series_rows()
    return ExperimentReport("overhead", checks, (header, rows), extras=extras)


# -- dispersion -------------------------------------------------------------------

def dispersion_exponents(d: int) -> tuple[float, float]:
    """Sup-norm decay exponents (alpha, beta): ||u(t)||_inf <= c ||u0||_1^alpha t^-beta."""
    return 2.0 / (d * d + d + 2.0), 2.0 * d / (d * d + d + 2.0)


def _shift_poly(coeffs, c: float) -> tuple:
    """Coefficients of s -> p(s + c) - p(c)."""
    out = np.zeros(len(coeffs))
    basis = np.array([1.0])
    for k, ak in enumerate(coeffs):
        out[: k + 1] += ak * basis
        basis = P.polymul(basis, np.array([c, 1.0]))
    out[0] -= float(P.polyval(c, np.asarray(coeffs, dtype=float)))
    return tuple(out)


def dispersion_experiment(
    data: Field,
    scheme: SchemeConfig,
    horizon: float,
    u_ref: float = 0.0,
    t0: float = 10.0,
    growth_factor: float = 2.0,
    mass_scaling: bool = True,
    contact_threshold: float = 1e-3,
) -> ExperimentReport:
    """Measure the sup-norm decay of compact Burgers data around u_ref.

    Checks that t^beta * sup|u - u_ref| never grows past growth_factor times
    its value at t0, and that doubling the data at most multiplies the fitted
    bound constant by 2 * 2^alpha (the mass exponent allows 2^alpha; the rest
    is slack for the scheme's own diffusion).
    """
    g = data.grid
    d = g.d
    alpha, beta = dispersion_exponents(d)
    bflux = Flux(tuple(_shift_poly(c, u_ref) for c in burgers_flux(d).coeffs),
                 label=f"burgers{d}d@{u_ref}")

    def one_run(v0: Field):
        amp0 = float(np.max(np.abs(v0.values)))
        edge = np.zeros(g.counts, dtype=bool)
        sl = [slice(None)] * d
        for ax in range(d):
            for idx in (0, g.counts[ax] - 1):
                s2 = list(sl)
                s2[ax] = idx
                edge[tuple(s2)] = True

        def on_step(t, main, comp):
            if np.any(np.abs(main.values[edge]) > contact_threshold * amp0):
                raise BoundaryContact(f"dispersing data reached the domain edge at t={t:.3g}")

        return run(v0, scheme, bflux, horizon, constant_background(0.0, d),
                   on_step=on_step, probe_every=4)

    v0 = Field(g, data.values - u_ref)
    rep1 = one_run(v0)

    def window_stats(rep):
        supabs = np.maximum(rep.sup, -rep.inf)
        m = rep.times >= t0
        if not np.any(m):
            raise ValueError("horizon too short for the measurement window")
        t = rep.times[m]
        s = supabs[m]
        weighted = t**beta * s
        c_fit = float(np.max(weighted))
        if c_fit == 0.0:
            return 0.0, 1.0, 0.0  # identically zero data: trivially bounded
        ratio = c_fit / float(weighted[0])
        pos = s > 0
        slope = float(np.polyfit(np.log(t[pos]), np.log(s[pos]), 1)[0]) if pos.sum() > 2 else 0.0
        return c_fit, ratio, slope

    c1, ratio1, slope1 = window_stats(rep1)
    checks = [Check("bounded_decay", ratio1 <= growth_factor, ratio1, growth_factor,
                    f"max t^beta*sup over window / value at t0, beta={beta:.4g}")]
    extras = {"alpha": alpha, "beta": beta, "c_fit": c1, "slope_fit": slope1,
              "dt": rep1.dt}
    if mass_scaling:
        rep2 = one_run(Field(g, 2.0 * v0.values))
        c2, ratio2, slope2 = window_stats(rep2)
        mass_ratio = c2 / c1 if c1 > 0 else 1.0
        hi = 2.0 * 2.0**alpha
        checks.append(Check("mass_scaling", 1.0 - 1e-9 <= mass_ratio <= hi, mass_ratio, hi,
                            "fitted bound constant ratio for doubled data"))
        extras.update({"c_fit_doubled": c2, "slope_fit_doubled": slope2})
    header, rows = rep1.series_rows()
    return ExperimentReport("dispersion", checks, (header, rows), extras=extras)


# -- normalization oracle ----------------------------------------------------------

def smooth_burgers_solution(d: int = 2, amplitude: float = 0.25, width: float = 1.0):
    """Exact smooth solution of the multi-D Burgers equation via characteristics.

    Valid before shock formation; the implicit relation u = u0(x - t f'(u)) is
    solved by fixed-point iteration to machine accuracy.
    """

    def u0(p):
        p = np.asarray(p, dtype=float)
        return amplitude * np.exp(-np.sum((p / width) ** 2, axis=-1))

    def u(t, p):
        p = np.asarray(p, dtype=float)
        val = u0(p)
        for _ in range(400):
            speeds = np.stack([(i + 2) * val ** (i + 1) for i in range(d)], axis=-1)
            new = u0(p - t * speeds)
            if float(np.max(np.abs(new - val))) < 1e-14:
                return new
            val = new
        raise RuntimeError("characteristic fixed point did not converge; reduce t or amplitude")

    return u


def normalization_residual_study(
    u_ref: float,
    d: int = 2,
    t0: float = 0.1,
    h0: float = 0.08,
    levels: int = 4,
    n_points: int = 40,
    seed: int = 0,
):
    """Finite-difference Burgers residual of the normalized field under refinement.

    Returns the list of max residuals for h0, h0/2, ...; a correct (M, Z)
    makes them shrink at the order of the differencing.
    """
    norm = burgers_normalization(u_ref, d)
    u = smooth_burgers_solution(d)
    v = norm.transform(u)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.5, 1.5, size=(n_points, d))

    def residual(h):
        r = (v(t0 + h, pts) - v(t0 - h, pts)) / (2 * h)
        for ax in range(d):
            e = np.zeros(d)
            e[ax] = h
            r = r + ((v(t0, pts + e) ** (ax + 2)) - (v(t0, pts - e) ** (ax + 2))) / (2 * h)
        return float(np.max(np.abs(r)))

    return [residual(h0 / 2**k) for k in range(levels)]
