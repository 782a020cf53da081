"""Monotone conservative finite-volume evolution on uniform grids.

First-order schemes only: they are exactly the discrete dynamics that inherit
the comparison principle, the max principle, and the L1 contraction, which the
experiments treat as testable guarantees rather than approximations.  All
reductions use numpy's pairwise summation with fixed operand order, so results
are independent of how the work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import CFLViolation, GridMismatch
from .fluxes import Flux, critical_points, poly_abs_max
from .profiles import ShockProfile

__all__ = [
    "Grid",
    "Field",
    "SchemeConfig",
    "Background",
    "numerical_flux",
    "step",
    "run",
    "RunReport",
    "l1_distance",
    "sample_profile",
    "sample_function",
    "constant_background",
    "profile_background",
]


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid of cell averages; dx identical on every axis."""

    counts: tuple[int, ...]
    lo: tuple[float, ...]
    dx: float

    def __post_init__(self):
        if len(self.counts) not in (2, 3):
            raise ValueError("grid dimension must be 2 or 3")
        if any(n < 4 for n in self.counts):
            raise ValueError("need at least 4 cells per axis")
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        object.__setattr__(self, "lo", tuple(float(x) for x in self.lo))

    @classmethod
    def from_box(cls, box, counts) -> "Grid":
        """Build from (lo0, hi0, lo1, hi1, ...); extents must share one dx."""
        box = [float(b) for b in box]
        counts = [int(n) for n in counts]
        d = len(counts)
        if len(box) != 2 * d:
            raise ValueError("box needs 2 entries per axis")
        lo = box[0::2]
        hi = box[1::2]
        dxs = [(hi[i] - lo[i]) / counts[i] for i in range(d)]
        if max(dxs) - min(dxs) > 1e-9 * max(dxs):
            raise ValueError(f"box extents imply non-uniform cell sizes {dxs}")
        return cls(tuple(counts), tuple(lo), dxs[0])

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def hi(self) -> tuple[float, ...]:
        return tuple(self.lo[i] + self.counts[i] * self.dx for i in range(self.d))

    @property
    def ncells(self) -> int:
        return int(np.prod(self.counts))

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    def centers(self, axis: int) -> np.ndarray:
        return self.lo[axis] + (np.arange(self.counts[axis]) + 0.5) * self.dx

    def center_mesh(self) -> np.ndarray:
        axes = [self.centers(i) for i in range(self.d)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@dataclass(eq=False)
class Field:
    """Cell-average state on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.counts:
            raise ValueError(f"values shape {self.values.shape} != grid {self.grid.counts}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def _trusted(cls, grid: Grid, values: np.ndarray) -> "Field":
        """Wrap a float array of the grid's shape already known to be finite."""
        f = cls.__new__(cls)
        f.grid = grid
        f.values = values
        return f

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    @property
    def mass(self) -> float:
        return float(self.values.sum()) * self.grid.cell_volume

    def sample(self, points) -> np.ndarray:
        """Multilinear interpolation of cell-center values, clamped at edges."""
        pts = np.asarray(points, dtype=float)
        g = self.grid
        out = None
        idx = []
        frac = []
        for ax in range(g.d):
            t = (pts[..., ax] - (g.lo[ax] + 0.5 * g.dx)) / g.dx
            i0 = np.clip(np.floor(t).astype(int), 0, g.counts[ax] - 2)
            idx.append(i0)
            frac.append(np.clip(t - i0, 0.0, 1.0))
        if g.d == 2:
            i, j = idx
            s, t = frac
            v = self.values
            out = (
                v[i, j] * (1 - s) * (1 - t)
                + v[i + 1, j] * s * (1 - t)
                + v[i, j + 1] * (1 - s) * t
                + v[i + 1, j + 1] * s * t
            )
        else:
            i, j, k = idx
            s, t, r = frac
            v = self.values
            out = np.zeros(pts.shape[:-1])
            for di, ws in ((0, 1 - s), (1, s)):
                for dj, wt in ((0, 1 - t), (1, t)):
                    for dk, wr in ((0, 1 - r), (1, r)):
                        out += v[i + di, j + dj, k + dk] * ws * wt * wr
        return out


def l1_distance(a: Field, b) -> float:
    """L1 distance between fields (or a field and a profile sampled on its grid)."""
    if isinstance(b, ShockProfile):
        b = sample_profile(b, a.grid)
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
    return float(np.abs(a.values - b.values).sum()) * a.grid.cell_volume


DEFAULT_CFL = {2: 0.45, 3: 0.3}


@dataclass(frozen=True)
class SchemeConfig:
    numerical_flux: str = "rusanov"
    cfl: float | None = None
    boundary: str = "dirichlet-profile"
    frame: str = "reduced"

    def __post_init__(self):
        if self.numerical_flux not in ("rusanov", "engquist-osher"):
            raise ValueError(f"unknown numerical flux {self.numerical_flux!r}")
        if self.boundary not in ("dirichlet-profile", "outflow"):
            raise ValueError(f"unknown boundary policy {self.boundary!r}")
        if self.frame not in ("reduced", "original"):
            raise ValueError(f"unknown frame {self.frame!r}")
        if self.cfl is not None and not (0.0 < self.cfl < 0.5):
            raise ValueError("cfl must lie in (0, 0.5) to keep the unsplit update monotone")

    def cfl_for(self, d: int) -> float:
        return self.cfl if self.cfl is not None else DEFAULT_CFL[d]

    def flux_of(self, pair) -> Flux:
        return pair.reduced if self.frame == "reduced" else pair.flux

    def frame_velocity(self, pair) -> np.ndarray:
        return np.zeros(pair.d) if self.frame == "reduced" else pair.velocity


# -- numerical interface fluxes ------------------------------------------------

def _key(coeffs) -> bytes:
    """Cache key of a coefficient sequence: -0.0 and 0.0 compare and hash
    equal, so a tuple key would let one answer for the other."""
    return np.asarray(coeffs, dtype=float).tobytes()


@lru_cache(maxsize=256)
def _compiled(key: bytes) -> dict:
    c = np.frombuffer(key)
    dc = P.polyder(c)
    # Engquist-Osher: the intervals between the sign changes of g' on which
    # g' > 0 (or < 0), each with g at the point of the interval nearest to 0
    edges = np.concatenate([[-np.inf], critical_points(c), [np.inf]])
    mids = []
    for k in range(len(edges) - 1):
        l, r = edges[k], edges[k + 1]
        if np.isinf(l) and np.isinf(r):
            m = 0.0
        elif np.isinf(l):
            m = r - 1.0
        elif np.isinf(r):
            m = l + 1.0
        else:
            m = 0.5 * (l + r)
        mids.append(m)
    signs = P.polyval(np.array(mids), dc)
    pos, neg = [], []
    for k in range(len(edges) - 1):
        l, r = edges[k], edges[k + 1]
        piece = (l, r, P.polyval(float(np.clip(0.0, l, r)), c))
        if signs[k] > 0:
            pos.append(piece)
        elif signs[k] < 0:
            neg.append(piece)
    return {"c": c, "dc": dc, "g0": float(P.polyval(0.0, c)), "pos": pos, "neg": neg}


def _horner(c: np.ndarray, x):
    """P.polyval(x, c) by the same operations, c[-1] + x*0 then c[-i] + c0*x, in one buffer."""
    out = x * 0
    out += c[-1]
    for i in range(2, len(c) + 1):
        out *= x
        out += c[-i]
    return out


def _lambda_max(key: bytes, lo, hi):
    """max |g'| over [lo, hi], exact via the critical points of g'."""
    return poly_abs_max(_compiled(key)["dc"], lo, hi)


@lru_cache(maxsize=1024)
def _lambda_bound(key: bytes, lo: float, hi: float) -> float:
    """float(max |g'|) over [lo, hi]; the same range recurs step after step."""
    return float(np.max(_lambda_max(key, lo, hi)))


def _rusanov(g_a, g_b, a, b, lam):
    """0.5*(g(a) + g(b)) - (0.5*lam)*(b - a), given g(a) and g(b)."""
    f = g_a + g_b
    f *= 0.5
    diss = b - a
    diss *= 0.5 * lam
    f -= diss
    return f


def _eo_part(pieces, c: np.ndarray, x):
    """integral from 0 to x of the positive (or negative) part of g'."""
    total = None
    for l, r, g_c0 in pieces:
        part = _horner(c, np.clip(x, l, r))
        part -= g_c0
        if total is None:
            part += 0.0  # the sum starts from +0.0, which turns -0.0 into +0.0
            total = part
        else:
            total += part
    return np.zeros_like(x) if total is None else total


def _engquist_osher(data: dict, a, b):
    """g(0) + integral_0^a (g')^+ + integral_0^b (g')^-, in that order."""
    f = _eo_part(data["pos"], data["c"], a)
    f += data["g0"]
    f += _eo_part(data["neg"], data["c"], b)
    return f


def numerical_flux(flux_component, a, b, kind: str = "rusanov", lam=None):
    """Monotone consistent interface flux for one scalar flux component.

    flux_component is a coefficient sequence (ascending).  Rusanov uses the
    interval-exact wave speed bound by default (lam overrides it with a fixed
    per-step bound, which is what keeps the full update order-preserving);
    Engquist-Osher integrates the sign decomposition of g' exactly between its
    real roots.  Both are consistent (H(s, s) = g(s)), nondecreasing in a, and
    nonincreasing in b.
    """
    key = _key(flux_component)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    data = _compiled(key)
    if kind == "rusanov":
        if lam is None:
            lam = _lambda_max(key, np.minimum(a, b), np.maximum(a, b))
        return _rusanov(_horner(data["c"], a), _horner(data["c"], b), a, b, lam)
    if kind == "engquist-osher":
        return _engquist_osher(data, a, b)
    raise ValueError(f"unknown numerical flux {kind!r}")


# -- boundaries ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Background:
    """Far-field state used for dirichlet ghost cells; translates with velocity.

    While the velocity is zero the ghost layers do not depend on t, so each
    grid's layers are evaluated once and kept, read-only, in _steady.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    velocity: np.ndarray
    _steady: dict = field(default_factory=dict, init=False, repr=False)

    def eval(self, points: np.ndarray, t: float) -> np.ndarray:
        if np.any(self.velocity != 0.0):
            points = points - t * self.velocity
        return self.fn(points)


def constant_background(value: float, d: int) -> Background:
    return Background(lambda p: np.full(p.shape[:-1], float(value)), np.zeros(d))


def profile_background(profile: ShockProfile, moving: bool = False) -> Background:
    vel = profile.velocity if moving else np.zeros(profile.d)
    return Background(profile.eval, np.asarray(vel, dtype=float))


@lru_cache(maxsize=64)
def _ghost_points(grid: Grid, axis: int, side: int) -> np.ndarray:
    """Centers of the ghost layer outside the given face (read-only)."""
    axes = []
    for ax in range(grid.d):
        if ax == axis:
            c = grid.lo[ax] - 0.5 * grid.dx if side == 0 else grid.hi[ax] + 0.5 * grid.dx
            axes.append(np.array([c]))
        else:
            axes.append(grid.centers(ax))
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    mesh = np.squeeze(mesh, axis=axis)
    mesh.flags.writeable = False
    return mesh


@dataclass(frozen=True)
class StepStats:
    dt: float
    boundary_inflow: float  # net mass inflow rate * dt through all faces
    lambda_max: float


def _ghost_values(field: Field, scheme: SchemeConfig, background: Background | None, t: float):
    """Ghost layers per (axis, side); dirichlet evaluates the translated background."""
    g = field.grid
    if scheme.boundary == "outflow" or background is None:
        return {(ax, side): np.moveaxis(field.values, ax, 0)[0 if side == 0 else -1]
                for ax in range(g.d) for side in (0, 1)}
    if np.any(background.velocity != 0.0):
        return {(ax, side): background.eval(_ghost_points(g, ax, side), t)
                for ax in range(g.d) for side in (0, 1)}
    ghosts = background._steady.get(g)
    if ghosts is None:
        ghosts = {}
        for ax in range(g.d):
            for side in (0, 1):
                v = np.asarray(background.eval(_ghost_points(g, ax, side), t)).view()
                v.flags.writeable = False
                ghosts[(ax, side)] = v
        background._steady[g] = ghosts
    return ghosts


def _range_with_ghosts(field: Field, ghosts) -> tuple[float, float]:
    lo = float(field.values.min())
    hi = float(field.values.max())
    for v in ghosts.values():
        lo = min(lo, float(np.min(v)))
        hi = max(hi, float(np.max(v)))
    return lo, hi


def field_range(field: Field, scheme: SchemeConfig, background: Background | None,
                t: float = 0.0) -> tuple[float, float]:
    """Range of the field together with its ghost layers at time t."""
    return _range_with_ghosts(field, _ghost_values(field, scheme, background, t))


def check_range(vmin, vmax, guard: tuple[float, float]) -> None:
    """Raise CFLViolation if [vmin, vmax] leaves the guarded range, up to rounding."""
    glo, ghi = guard
    slack = 1e-12 * max(1.0, abs(glo), abs(ghi))
    if vmin < glo - slack or vmax > ghi + slack:
        raise CFLViolation(f"update left the range [{glo}, {ghi}]: [{vmin}, {vmax}]")


def stable_dt(flux: Flux, grid: Grid, scheme: SchemeConfig, lo: float, hi: float) -> float:
    lam = max(_lambda_bound(_key(flux.coeffs[ax]), float(lo), float(hi))
              for ax in range(grid.d))
    lam = max(lam, 1e-30)
    return scheme.cfl_for(grid.d) * grid.dx / (grid.d * lam)


def step(
    field: Field,
    scheme: SchemeConfig,
    flux: Flux,
    background: Background | None = None,
    t: float = 0.0,
    dt: float | None = None,
    range_guard: tuple[float, float] | None = None,
) -> tuple[Field, StepStats]:
    """One conservative unsplit update u <- u - dt/dx * sum_axes (F_right - F_left).

    dt defaults to cfl * dx / (d * max |g'|) over the current range including
    ghosts.  Raises CFLViolation if the update leaves the guarded range, which
    a monotone scheme can never do, and ValueError if a new value is not
    finite (NaN and +-inf always show in the min or the max).

    The result is bit-identical to the plain formula, so the order of the
    floating-point operations is part of the contract:
    - per axis, g is evaluated once per cell of the ghost-padded array by
      Horner's rule in exactly P.polyval's steps (c[-1] + x*0, then
      c[-i] + c0*x); Rusanov is 0.5*(g(a) + g(b)) - (0.5*lam)*(b - a) with one
      range-wide lam, Engquist-Osher (g(0) + Pos(a)) + Neg(b), each part
      summed from +0.0;
    - div starts from zeros and takes ((F_hi - F_lo) / dx) axis by axis; the
      result is u - dt*div;
    - the boundary inflow sums each face's fluxes from a C-contiguous array,
      so the pairwise summation order does not depend on the axis.
    Dirichlet ghost layers of a background with zero velocity do not depend
    on t: they are evaluated once per background and grid and kept read-only.
    A moving background is evaluated at every step; only the ghost cell
    centers are cached.
    """
    g = field.grid
    values = field.values
    ghosts = _ghost_values(field, scheme, background, t)
    lo, hi = _range_with_ghosts(field, ghosts)
    if range_guard is not None:
        # the dissipation bound must come from the shared invariant range so
        # that runs compared cellwise or in L1 use the identical update map
        lo, hi = min(lo, range_guard[0]), max(hi, range_guard[1])
    if dt is None:
        dt = stable_dt(flux, g, scheme, lo, hi)
    lam_used = 0.0
    div = np.zeros_like(values)
    inflow = 0.0
    area = g.dx ** (g.d - 1)
    for ax in range(g.d):
        # the padded copy puts the interface axis first, so both states of
        # every interface and every flux jump are contiguous blocks; the
        # elementwise results do not depend on the layout
        inner = np.moveaxis(values, ax, 0)
        ext = np.empty((inner.shape[0] + 2,) + inner.shape[1:])
        ext[0] = ghosts[(ax, 0)]
        ext[1:-1] = inner
        ext[-1] = ghosts[(ax, 1)]
        # Rusanov dissipation uses one range-wide bound per step: a constant
        # coefficient keeps the unsplit update order-preserving under the CFL
        key = _key(flux.coeffs[ax])
        lam_ax = _lambda_bound(key, float(lo), float(hi))
        data = _compiled(key)
        if scheme.numerical_flux == "rusanov":
            g_ext = _horner(data["c"], ext)
            f = _rusanov(g_ext[:-1], g_ext[1:], ext[:-1], ext[1:], lam_ax)
        else:
            f = _engquist_osher(data, ext[:-1], ext[1:])
        jump = f[1:] - f[:-1]
        jump /= g.dx
        div += np.moveaxis(jump, 0, ax)
        # f[0] and f[-1] are C-contiguous faces, like np.take(f, 0, axis=ax)
        inflow += (float(f[0].sum()) - float(f[-1].sum())) * area
        lam_used = max(lam_used, lam_ax)
    div *= dt
    new_values = values - div
    vmin, vmax = new_values.min(), new_values.max()
    if range_guard is not None:
        check_range(vmin, vmax, range_guard)
    if not (np.isfinite(vmin) and np.isfinite(vmax)):
        raise ValueError("field values must be finite")
    return Field._trusted(g, new_values), StepStats(dt, inflow * dt, lam_used)


# -- trajectories ---------------------------------------------------------------

@dataclass(eq=False)
class Companion:
    name: str
    field: Field
    background: Background | None = None


@dataclass(eq=False)
class RunReport:
    times: np.ndarray
    sup: np.ndarray
    inf: np.ndarray
    mass: np.ndarray
    l1: dict[str, np.ndarray]
    boundary_inflow: np.ndarray   # cumulative net inflow since t=0
    snapshots: list[tuple[float, Field]]
    final: Field
    companions: dict[str, Field]
    dt: float

    def series_rows(self):
        """Probe table as (header, rows of floats)."""
        header = ["t", "sup", "inf", "mass"] + [f"l1_to_{k}" for k in sorted(self.l1)]
        cols = [self.times, self.sup, self.inf, self.mass] + [self.l1[k] for k in sorted(self.l1)]
        rows = np.stack(cols, axis=1)
        return header, rows


def run(
    initial: Field,
    scheme: SchemeConfig,
    flux: Flux,
    horizon: float,
    background: Background | None = None,
    companions: list[Companion] | None = None,
    snapshot_times: list[float] | None = None,
    on_step=None,
    range_guard: tuple[float, float] | None = None,
    probe_every: int = 1,
) -> RunReport:
    """Evolve to the horizon with one fixed dt chosen from the initial range.

    Companions advance with the same dt and their own backgrounds, so ordered
    or L1-comparable initial data stay exactly comparable step by step.  The
    probe series records sup, inf, mass, and the L1 distance of the main field
    to every companion.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
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
    l1s: dict[str, list[float]] = {c.name: [] for c in companions}
    inflows = [0.0]
    snapshots: list[tuple[float, Field]] = []
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
        main, stats = step(main, scheme, flux, background, t, dt, range_guard)
        cum_in += stats.boundary_inflow
        for c in companions:
            comp_fields[c.name], _ = step(comp_fields[c.name], scheme, flux,
                                          c.background, t, dt, range_guard)
        t = k * dt
        if k % probe_every == 0 or k == n_steps:
            record(t)
            inflows.append(cum_in)
        if on_step is not None:
            on_step(t, main, comp_fields)
        if k in snap_steps:
            snapshots.append((t, main.copy()))

    return RunReport(
        np.array(times), np.array(sups), np.array(infs), np.array(masses),
        {k: np.array(v) for k, v in l1s.items()},
        np.array(inflows), snapshots, main, comp_fields, dt,
    )


# -- sampling profiles and functions onto grids ---------------------------------

def sample_function(fn, grid: Grid, subsamples: int = 4) -> Field:
    """Cell averages of a pointwise function by midpoint subsampling."""
    offs = (np.arange(subsamples) + 0.5) / subsamples * grid.dx
    axes = [grid.lo[i] + np.add.outer(np.arange(grid.counts[i]) * grid.dx, offs).ravel()
            for i in range(grid.d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = np.asarray(fn(mesh), dtype=float)
    for ax in range(grid.d):
        shape = list(vals.shape)
        n = grid.counts[ax]
        vals = vals.reshape(shape[:ax] + [n, subsamples] + shape[ax + 1:]).mean(axis=ax + 1)
    return Field(grid, vals)


def sample_profile(profile: ShockProfile, grid: Grid, n_sub: int = 16) -> Field:
    """Cell averages of a two-valued shock, exact in the frame-axis direction.

    For d = 2 with the frame axis grid-aligned, each cell gets the exact area
    fraction cut by the front at n_sub quadrature ordinates, which keeps the
    mass of a front displacement accurate to O(dx^2 / n_sub).
    """
    dual = profile.dual
    w = dual.W
    axis = int(np.argmax(np.abs(w)))
    aligned = grid.d == 2 and abs(abs(w[axis]) - 1.0) <= 1e-12
    if not aligned:
        return sample_function(profile.eval, grid, subsamples=4)
    other = 1 - axis
    sgn = float(np.sign(w[axis]))
    h_col = dual.H[other, 0]
    offs = (np.arange(n_sub) + 0.5) / n_sub * grid.dx
    y_world = grid.lo[other] + np.add.outer(np.arange(grid.counts[other]) * grid.dx, offs)
    psi = profile.front.value(y_world * h_col)          # front in r-coordinate
    r_at = psi * sgn                                     # front in world coordinate
    r_lo = grid.lo[axis] + np.arange(grid.counts[axis]) * grid.dx
    # fraction of the cell on the D_minus side (r < psi)
    frac = np.clip((r_at[None, :, :] - r_lo[:, None, None]) / grid.dx, 0.0, 1.0)
    if sgn < 0:
        frac = 1.0 - frac
    frac = frac.mean(axis=2)
    vals = profile.pair.u_plus + (profile.pair.u_minus - profile.pair.u_plus) * frac
    if axis == 1:
        vals = vals.T
    return Field(grid, vals)
