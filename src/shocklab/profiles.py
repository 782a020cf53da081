"""Two-valued steady shock profiles: fronts, perturbations, and set algebra.

A profile is u_minus on D_minus = {r < psi(y)} and u_plus on the closed
complement, where (r, y) are the frame coordinates of a dual cone and psi is
a front function on the hyperplane H.  Points exactly on the front evaluate
to u_plus; the choice is measure-zero and fixed for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cones import DualCone
from .errors import (
    EmptyInterior,
    FrameMismatch,
    GaugeZero,
    InadmissibleNormal,
    NoCrossing,
    NotLipschitzInGauge,
    NotUNC,
)
from .fluxes import ShockPair

__all__ = [
    "Front",
    "ShockProfile",
    "PerturbationSpec",
    "FrameBox",
    "make_planar",
    "make_graph",
    "make_scaled_gauge",
    "sandwich_bounds",
    "front_surgery",
    "bounded_intersection",
    "extract_front",
    "front_normals",
    "box_corners",
    "cell_box",
]

# a front is uniformly non-characteristic (UNC) when its ratio rho is at most this
UNC_RHO = 0.9
# samples of a front across its y extent: the nodes of a graph front
FRONT_NODES = 1025


@dataclass(frozen=True, eq=False)
class Front:
    """Front function over H with enough structure to enumerate slopes.

    kind is one of planar | scaled_gauge | pwl | cone | combine; fn evaluates
    psi(y) vectorized; slopes is the finite set of local slope vectors
    (k, d-1) from which the front ratio (_slope_ratio) is read and the
    normals are enumerated (exhaustive for the closed forms, per-segment for
    piecewise-linear fronts, every part's for a combination).
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    slopes: np.ndarray
    params: dict = field(default_factory=dict)
    clamps: bool = False  # constant off its slopes: a pwl front, or a combination with one

    def value(self, y):
        return self.fn(np.asarray(y, dtype=float))


def _planar_front(dual: DualCone, nu: np.ndarray, offset: float) -> Front:
    w_dot = float(nu @ dual.W)
    h_dot = nu @ dual.H
    if w_dot <= 0:
        raise InadmissibleNormal("normal has no positive component along the frame axis")
    slope = -h_dot / w_dot

    def fn(y):
        y = np.asarray(y, dtype=float)
        if dual.d == 2:
            return (offset - y * h_dot[0]) / w_dot
        return (offset - y @ h_dot) / w_dot

    return Front("planar", fn, slope[None, :], {"nu": tuple(nu), "offset": float(offset)})


def _scaled_gauge_front(dual: DualCone, slope: float, offset: float) -> Front:
    def fn(y):
        return slope * dual.gauge(y) + offset

    return Front("scaled_gauge", fn, slope * dual.facet_slopes,
                 {"slope": float(slope), "offset": float(offset)})


def _pwl_front(nodes: np.ndarray, values: np.ndarray) -> Front:
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.shape != values.shape:
        raise ValueError("piecewise-linear front needs matching 1-d node/value arrays")
    if not np.all(np.diff(nodes) > 0):
        raise ValueError("front nodes must be strictly increasing")
    seg = (np.diff(values) / np.diff(nodes))[:, None]

    def fn(y):
        return np.interp(np.asarray(y, dtype=float), nodes, values)

    return Front("pwl", fn, seg, {"nodes": nodes, "values": values}, clamps=True)


def _combine_front(op: str, parts: tuple[Front, ...]) -> Front:
    reduce = np.minimum if op == "min" else np.maximum

    def fn(y):
        out = parts[0].fn(y)
        for p in parts[1:]:
            out = reduce(out, p.fn(y))
        return out

    slopes = np.vstack([p.slopes for p in parts])
    return Front("combine", fn, slopes, {"op": op, "parts": parts},
                 clamps=any(p.clamps for p in parts))


@dataclass(frozen=True, eq=False)
class ShockProfile:
    """Steady two-valued shock with a graph front over the frame hyperplane."""

    pair: ShockPair
    dual: DualCone
    front: Front
    rho: float
    y_extent: tuple[float, float] = (-8.0, 8.0)

    @property
    def d(self) -> int:
        return self.pair.d

    @property
    def unc(self) -> bool:
        """Uniformly non-characteristic: the front ratio rho is at most UNC_RHO."""
        return bool(self.rho <= UNC_RHO)

    @property
    def velocity(self) -> np.ndarray:
        return self.pair.velocity

    @property
    def psi0(self) -> float:
        """Front value psi(0) at the frame origin."""
        return float(self.front.value(np.zeros(()) if self.d == 2 else np.zeros(self.d - 1)))

    def eval(self, x, frame_values: bool = False):
        """u_minus where r < psi(y), u_plus on and beyond the front; with
        frame_values, (values, r, psi): also the values they were decided from."""
        r, y = self.dual.frame(x)
        psi = self.front.value(y)
        values = np.where(r < psi, self.pair.u_minus, self.pair.u_plus)
        return (values, r, psi) if frame_values else values

    def drift_rate(self, velocity) -> float:
        """max |W.v - s.(H^T v)| over the front's local slopes s: a bound on
        |d/dt (psi(y) - r)| at a point moving with velocity v.  Every front
        is continuous and piecewise linear, and its local slopes are its
        `slopes` plus 0 where a pwl front, alone or as a part, clamps outside
        its nodes; along a straight path psi changes by a mean of those
        slopes, so psi(y) - r moves by at most this rate times the time."""
        v = np.asarray(velocity, dtype=float)
        w_v = float(self.dual.W @ v)
        rate = float(np.max(np.abs(w_v - self.front.slopes @ (self.dual.H.T @ v))))
        return max(rate, abs(w_v)) if self.front.clamps else rate

    def same_frame(self, other: "ShockProfile") -> bool:
        return (
            self.pair.flux.coeffs == other.pair.flux.coeffs
            and self.pair.u_minus == other.pair.u_minus
            and self.pair.u_plus == other.pair.u_plus
            and self.dual.same_frame(other.dual)
        )


def front_normals(profile: ShockProfile) -> np.ndarray:
    """Unit world normals (toward D_plus) of every front slope class."""
    dual = profile.dual
    normals = dual.W[None, :] - profile.front.slopes @ dual.H.T
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


def _gauge_ball(dual: DualCone) -> tuple[np.ndarray, np.ndarray]:
    """Vertices H^T g / (g . W) of the gauge's unit ball {y : gauge(y) <= 1},
    one row per dual generator g (the dual cone's slice at r = 1), and whether
    each is finite: g . W > 1e-12, the threshold of the facet slopes' own
    denominators.  A generator that is not finite gives H^T g, a direction in
    which the ball is unbounded."""
    gw = dual.generators @ dual.W
    finite = gw > 1e-12
    return (dual.generators @ dual.H) / np.where(finite, gw, 1.0)[:, None], finite


def _slope_ratio(dual: DualCone, slopes: np.ndarray) -> float:
    """The front ratio rho = max of s . v over the slope rows s and the gauge
    ball's vertices v: the sup of s . delta / gauge(delta), which a linear
    function reaches at a vertex.  It is one-sided, psi(y + delta) - psi(y)
    <= rho gauge(delta), as the gauge is not symmetric; that is all that
    bounded_intersection (psi(y) - psi(0) <= rho gauge(y), and subadditivity),
    predicted_absorption_time, ShockProfile.unc and the slope_room of
    default_comparison_profiles use.  A combination's ratio is the max over
    its parts, an upper bound.  2-D balls are centrally symmetric (the frame
    axis bisects two unit dual generators), so there it is also two-sided.
    GaugeZero where s . u > 1e-13 along an unbounded direction u.
    """
    verts, finite = _gauge_ball(dual)
    if np.max(slopes @ verts[~finite].T, initial=0.0) > 1e-13:
        raise GaugeZero("gauge vanishes in a direction where the front rises")
    return float(np.max(slopes @ verts[finite].T, initial=0.0))


def _finish_profile(pair, dual, front, y_extent) -> ShockProfile:
    """The profile of front; NotLipschitzInGauge when its ratio exceeds 1 + 1e-6."""
    rho = _slope_ratio(dual, front.slopes)
    if rho > 1.0 + 1e-6:
        raise NotLipschitzInGauge(f"front ratio {rho:.6g} exceeds 1; normals leave the cone")
    return ShockProfile(pair, dual, front, rho=rho, y_extent=y_extent)


def make_planar(
    pair: ShockPair,
    dual: DualCone,
    nu,
    offset: float = 0.0,
    y_extent: tuple[float, float] = (-8.0, 8.0),
) -> ShockProfile:
    """Planar shock with front {x . nu = offset}, nu oriented toward D_plus;
    nu is admissible iff no dual generator has an inner product < -1e-12 with it."""
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    if not float(np.min(dual.generators @ nu)) >= -1e-12:
        raise InadmissibleNormal(f"direction {nu} fails the chord condition")
    front = _planar_front(dual, nu, offset)
    return ShockProfile(pair, dual, front, rho=_slope_ratio(dual, front.slopes),
                        y_extent=y_extent)


def make_graph(
    pair: ShockPair,
    dual: DualCone,
    psi,
    y_extent: tuple[float, float] = (-8.0, 8.0),
) -> ShockProfile:
    """Graph-front shock from samples (nodes, values), or from a callable psi
    sampled at FRONT_NODES points across y_extent; the front interpolates them.

    Rejects fronts whose gauge-Lipschitz ratio exceeds 1 (+ 1e-6): their
    normals would leave the admissibility cone.
    """
    if callable(psi):
        nodes = np.linspace(y_extent[0], y_extent[1], FRONT_NODES)
        values = np.asarray(psi(nodes), dtype=float)
    else:
        nodes, values = psi
    if not np.all(np.isfinite(values)):
        raise ValueError("front values must be finite on the sample grid")
    front = _pwl_front(np.asarray(nodes, dtype=float), np.asarray(values, dtype=float))
    return _finish_profile(pair, dual, front, y_extent)


def make_scaled_gauge(
    pair: ShockPair,
    dual: DualCone,
    slope: float,
    offset: float = 0.0,
    y_extent: tuple[float, float] = (-8.0, 8.0),
) -> ShockProfile:
    """Front psi(y) = slope * gauge(y) + offset (a cone-shaped shock)."""
    front = _scaled_gauge_front(dual, slope, offset)
    return _finish_profile(pair, dual, front, y_extent)


def box_corners(lo, hi, d: int) -> np.ndarray:
    """The 2^d corners of the axis box [lo, hi] in R^d, shape (2^d, d)."""
    return np.stack(np.meshgrid(*[(lo[i], hi[i]) for i in range(d)],
                                indexing="ij"), axis=-1).reshape(-1, d)


def cell_box(centers: np.ndarray, mask: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Axis box (lo, hi) of the cells under mask: their centers padded by dx/2."""
    pts = centers[mask]
    return pts.min(axis=0) - 0.5 * dx, pts.max(axis=0) + 0.5 * dx


def sandwich_bounds(
    profile: ShockProfile,
    box: tuple[np.ndarray, np.ndarray] | None,
    pad: float = 0.0,
) -> tuple[ShockProfile, ShockProfile]:
    """Steady shocks squeezing every range-respecting perturbation in a box.

    Cone apexes are pushed along the frame axis until the box is swallowed:
    lower front = min(psi, gauge(y) - R0), upper front = max(psi, R1 - gauge(-y)).
    Returns (lower, upper) with lower <= U + phi <= upper for any phi supported
    in the box that keeps values in [u_plus, u_minus].
    """
    if profile.dual.degenerate:
        raise EmptyInterior("sandwich construction needs an interior frame axis")
    if box is None:
        return profile, profile
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if np.any(hi < lo):
        return profile, profile
    dual = profile.dual
    r_c, y_c = dual.frame(box_corners(lo, hi, profile.d))
    r0 = float(np.max(dual.gauge(y_c) - r_c)) + pad
    r1 = float(np.max(dual.gauge(-y_c) + r_c)) + pad
    # gauge(y) - r0 and r1 - gauge(-y) = min_i (r1 + c_i . y) both have the
    # facet slopes c_i as their local slopes
    lower_cone = Front("cone", lambda y: dual.gauge(y) - r0, dual.facet_slopes, {"r0": r0})
    upper_cone = Front("cone", lambda y: r1 - dual.gauge(-y), dual.facet_slopes, {"r1": r1})
    return tuple(
        _finish_profile(profile.pair, dual, _combine_front(op, (profile.front, cone)),
                        profile.y_extent)
        for op, cone in (("min", lower_cone), ("max", upper_cone)))


def front_surgery(
    base: ShockProfile,
    first: ShockProfile,
    second: ShockProfile,
) -> tuple[ShockProfile, ShockProfile]:
    """Clip two fronts against a base front into an ordered pair of shocks.

    With fronts b, h, k the results carry min{h, max{b, k}} and
    max{k, min{b, h}}; their difference is exactly (k - h)^+ pointwise.
    """
    if not (base.same_frame(first) and base.same_frame(second)):
        raise FrameMismatch("surgery requires profiles sharing end states and frame")
    b, h, k = base.front, first.front, second.front
    h_hat = _combine_front("min", (h, _combine_front("max", (b, k))))
    k_hat = _combine_front("max", (k, _combine_front("min", (b, h))))
    lo = _finish_profile(base.pair, base.dual, h_hat, base.y_extent)
    hi = _finish_profile(base.pair, base.dual, k_hat, base.y_extent)
    return lo, hi


@dataclass(frozen=True)
class FrameBox:
    """Axis box in frame coordinates bounding a front/cone intersection."""

    empty: bool
    y_lo: np.ndarray | None = None
    y_hi: np.ndarray | None = None
    r_lo: float = 0.0
    r_hi: float = 0.0
    gauge_bound: float = 0.0

    def contains(self, dual: DualCone, points, slack: float = 1e-9) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        r = pts @ dual.W
        y = pts @ dual.H
        if self.empty:
            return np.zeros(r.shape, dtype=bool)
        ok = (r >= self.r_lo - slack) & (r <= self.r_hi + slack)
        for j in range(y.shape[-1]):
            ok &= (y[..., j] >= self.y_lo[j] - slack) & (y[..., j] <= self.y_hi[j] + slack)
        return ok


def bounded_intersection(profile: ShockProfile, x) -> FrameBox:
    """Bounding box of D_minus intersected with the forward cone at x.

    Every intersection point obeys gauge(y) <= (psi(0) + gauge(y0) - r0)/(1 - rho)
    and r0 - gauge(y0) <= r <= (psi(0) + rho (gauge(y0) - r0))/(1 - rho); the box
    is empty when the gauge bound is negative.  Along y it is the gauge bound
    times the box of the gauge's unit ball, read off the ball's vertices.
    """
    if profile.rho >= 1.0:
        raise NotUNC("bounded intersection requires ratio < 1")
    dual = profile.dual
    r0, y0 = dual.frame(x)
    g0 = float(dual.gauge(y0))
    psi0 = profile.psi0
    rho = profile.rho
    gauge_bound = (psi0 + g0 - r0) / (1.0 - rho)
    if gauge_bound < 0:
        return FrameBox(empty=True)
    r_lo = r0 - g0
    r_hi = (psi0 + rho * (g0 - r0)) / (1.0 - rho)
    if r_hi < r_lo:
        return FrameBox(empty=True)
    verts, finite = _gauge_ball(dual)
    if not finite.all():
        raise EmptyInterior("gauge sublevel sets are unbounded in this frame")
    y_lo = gauge_bound * verts.min(axis=0)
    y_hi = gauge_bound * verts.max(axis=0)
    return FrameBox(False, y_lo, y_hi, float(r_lo), float(r_hi), float(gauge_bound))


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    """Compactly supported initial disturbance added to a background shock."""

    shape: str = "bump"
    center: tuple[float, ...] = (0.0, 0.0)
    radius: float = 1.0
    amplitude: float = 1.0
    terms: tuple["PerturbationSpec", ...] = ()

    def __post_init__(self):
        if self.shape not in ("bump", "indicator", "sum"):
            raise ValueError(f"unknown perturbation shape {self.shape!r}")
        if self.shape != "sum" and self.radius <= 0:
            raise ValueError("radius must be positive")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.shape == "sum":
            out = np.zeros(pts.shape[:-1])
            for t in self.terms:
                out = out + t(pts)
            return out
        # the operations of sum((p - c)**2) / r**2, then of
        # where(q2 < 1, exp(1 - 1/max(1 - q2, 1e-300)), 0), on one array of
        # values updated in place: sampling a grid holds few arrays its size
        c = np.broadcast_to(np.asarray(self.center, dtype=float), pts.shape[-1:])
        q2 = np.asarray((pts[..., 0] - c[0]) ** 2)
        for i in range(1, pts.shape[-1]):
            q2 += (pts[..., i] - c[i]) ** 2
        q2 /= self.radius**2
        if self.shape == "indicator":
            return np.where(q2 <= 1.0, self.amplitude, 0.0)
        inside = q2 < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            np.subtract(1.0, q2, out=q2)
            np.maximum(q2, 1e-300, out=q2)
            np.divide(1.0, q2, out=q2)
            np.subtract(1.0, q2, out=q2)
            np.exp(q2, out=q2)
        return self.amplitude * np.where(inside, q2, 0.0)

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.shape == "sum":
            boxes = [t.bounding_box for t in self.terms]
            lo = np.min([b[0] for b in boxes], axis=0)
            hi = np.max([b[1] for b in boxes], axis=0)
            return lo, hi
        c = np.asarray(self.center, dtype=float)
        return c - self.radius, c + self.radius


def extract_front(field, pair: ShockPair, dual: DualCone):
    """Recover the front of a near-two-valued field as samples over H.

    Reads each grid column along the frame axis and takes the last crossing of
    the mid level by linear interpolation; columns entirely on one side get the
    domain boundary value.  Values may stray 5% of the jump past the end
    states.  Returns (nodes, samples, profile): the profile's front
    interpolates the samples, and its ratio rho is the one measured, which
    may exceed 1; a caller that needs a steady shock's front checks it.
    NoCrossing when no column crosses the mid level.
    """
    grid = field.grid
    if pair.d != 2 or grid.d != 2:
        raise NotImplementedError("front extraction implemented for d = 2")
    jump = pair.jump
    vmin, vmax = float(field.values.min()), float(field.values.max())
    if vmin < pair.u_plus - 0.05 * jump or vmax > pair.u_minus + 0.05 * jump:
        raise ValueError("field values stray too far from the end states")
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
        # sample the field bilinearly along lines parallel to the frame axis,
        # one column of points per offset along H
        lo = np.array(grid.lo)
        hi = lo + np.array(grid.counts) * grid.dx
        diam = float(np.linalg.norm(hi - lo))
        s = np.arange(-0.5 * diam, 0.5 * diam, 0.5 * grid.dx)
        mid = 0.5 * (lo + hi)
        span = float(np.max(hi - lo))
        offsets = np.linspace(-0.5 * span, 0.5 * span, max(grid.counts))
        r_centers = s + float(mid @ w)
        pts = ((mid + np.multiply.outer(s, w))[:, None, :]
               + np.multiply.outer(offsets, dual.H[:, 0]))
        u_cols = field.sample(pts)
        nodes_raw = offsets + float(mid @ dual.H[:, 0])

    order = np.argsort(nodes_raw)
    nodes = nodes_raw[order]
    u_cols = u_cols[:, order]
    du = u_cols - level
    cross = (du[:-1] * du[1:] <= 0) & (u_cols[:-1] != u_cols[1:])
    crossed = cross.any(axis=0)
    if not crossed.any():
        raise NoCrossing("no column of the field crosses the mid level")
    # a column without a crossing lies on one side: past the front's far end
    # when it is all above the level
    psi = np.where(np.all(du > 0, axis=0), r_centers[-1], r_centers[0])
    cols = np.flatnonzero(crossed)
    i = len(cross) - 1 - np.argmax(cross[::-1, cols], axis=0)  # the last crossing
    frac = du[i, cols] / (u_cols[i, cols] - u_cols[i + 1, cols])
    psi[cols] = r_centers[i] + frac * (r_centers[i + 1] - r_centers[i])
    front = _pwl_front(nodes, psi)
    profile = ShockProfile(pair, dual, front, rho=_slope_ratio(dual, front.slopes),
                           y_extent=(float(nodes[0]), float(nodes[-1])))
    return nodes, psi, profile
