"""Monotone conservative finite-volume evolution on uniform grids.

First-order schemes only: they are exactly the discrete dynamics that inherit
the comparison principle, the max principle, and the L1 contraction, which the
experiments treat as testable guarantees rather than approximations.  All
reductions use numpy's pairwise summation with fixed operand order, so results
are independent of how the work is scheduled.  `run` and `settle` keep the
sums of that tree over its smallest nodes that hold whole rows along axis 0
(`RowSums`), and re-sum only the nodes that hold rows a step changed: the
mass and L1 distances they report have the bits of whole-array sums.

Every update goes through the module-level name `step`; `evolve` is the one
time loop.  Near a steady shock most cells are already at their discrete
fixed point, so `evolve` hands `step` a `Band` per field, and a step runs
only the cells that the last step's changes can reach: in 2-D one box of
rows along axis 0 and columns along axis 1, and in 3-D a box along the other
axes in each slab of rows, the boxes of a step's slabs found at once from
the band's per-row extents.  The skip is exact (the band contract is stated
once, in `step`).  Each outer face keeps its flux sum in the band, and a
step re-sums only the faces that it wrote.

Dirichlet ghost layers are cached per background and grid with a horizon
in time (see `_evaluate_layers`): infinite at rest, 0 for a moving function,
and for a moving shock profile the time before a ghost cell can cross its
front.  A shock profile is two-valued, so until then a cached layer has the
bits of a fresh one, and a step can tell unchanged layers by identity.

`sample_function` averages fn at SUBSAMPLES^d points per cell, but evaluates
it there only in cells where it cannot prove fn constant: a shock profile's
front and a perturbation's balls cut few cells of a grid (see
`_constant_cells`).  Every cell keeps the bits of the whole-mesh average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import CFLViolation, GridMismatch
from .fluxes import Flux, _key, component_abs_max, critical_points
from .profiles import Front, PerturbationSpec, ShockProfile

__all__ = [
    "Grid",
    "Field",
    "SchemeConfig",
    "Background",
    "step",
    "evolve",
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
        if not min(dxs) > 0:
            raise ValueError(f"box extents imply non-positive cell sizes {dxs}")
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
    """Cell-average state on a grid.  The values are C-contiguous (an array in
    another order is copied), so numpy sums them row by row (see `RowSums`)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
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
        idx = []
        weights = []
        for ax in range(g.d):
            t = (pts[..., ax] - (g.lo[ax] + 0.5 * g.dx)) / g.dx
            i0 = np.clip(np.floor(t).astype(int), 0, g.counts[ax] - 2)
            idx.append(i0)
            s = np.clip(t - i0, 0.0, 1.0)
            weights.append((1 - s, s))
        # the 2^d corners with axis 0 varying fastest; each term multiplies
        # its weights in axis order, and the sum starts from the first term
        out = None
        for corner in range(2 ** g.d):
            bits = [(corner >> ax) & 1 for ax in range(g.d)]
            term = self.values[tuple(i + k for i, k in zip(idx, bits))]
            for w, k in zip(weights, bits):
                term = term * w[k]
            out = term if out is None else out + term
        return out


def l1_distance(a: Field, b: Field) -> float:
    """L1 distance between two fields on one grid."""
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
    return float(np.abs(a.values - b.values).sum()) * a.grid.cell_volume


# numpy sums a contiguous float array pairwise: up to PAIRWISE_LEAF values in
# one 8-lane loop, more split at n / 2 rounded down to a multiple of 8
PAIRWISE_LEAF = 128


@lru_cache(maxsize=64)
def _row_tree(n_rows: int, row_len: int) -> tuple:
    """numpy's pairwise summation tree over n_rows rows of row_len values, cut
    at its smallest nodes that hold whole rows: where numpy's tree has a leaf
    or splits a node inside a row.

    Returns (bounds, runs, levels).  The cut nodes come in row order; node i
    holds rows bounds[i] to bounds[i + 1] - 1.  runs lists them as (first
    node, count, rows per node) per stretch of nodes of equal size.  levels
    lists the nodes above the cut by height, lowest first, as (start, stop,
    left, right): nodes start..stop-1, numbered after the cut nodes, are the
    sums of the nodes left and right.  The root is the last node.
    """
    nodes = []  # (height, first row, rows) of a cut node, (height, left, right) above

    def build(row0, rows):
        n = rows * row_len
        half = n // 2 - (n // 2) % 8
        if n > PAIRWISE_LEAF and half % row_len == 0:
            left = build(row0, half // row_len)
            right = build(row0 + half // row_len, rows - half // row_len)
            nodes.append((1 + max(nodes[left][0], nodes[right][0]), left, right))
        else:
            nodes.append((0, row0, rows))
        return len(nodes) - 1

    build(0, n_rows)
    # a stable sort keeps the cut nodes in row order, in which build met them
    order = sorted(range(len(nodes)), key=lambda i: nodes[i][0])
    number = {old: new for new, old in enumerate(order)}
    cut = [nodes[i] for i in order if nodes[i][0] == 0]
    bounds = tuple(row0 for _, row0, _ in cut) + (n_rows,)
    runs = []
    for i, (_, _, rows) in enumerate(cut):
        if runs and runs[-1][2] == rows:
            runs[-1][1] += 1
        else:
            runs.append([i, 1, rows])
    levels = []
    for height in range(1, nodes[order[-1]][0] + 1):
        level = [i for i in order if nodes[i][0] == height]
        start = number[level[0]]
        levels.append((start, start + len(level),
                       np.array([number[nodes[i][1]] for i in level]),
                       np.array([number[nodes[i][2]] for i in level])))
    return bounds, tuple(map(tuple, runs)), tuple(levels)


class RowSums:
    """The sums of `count` float arrays of one shape, with the bits of numpy's
    whole-array sums, kept per cut node of `_row_tree` so that a refresh
    reads only the rows that changed.

    Column j of `nodes` holds array j's node sums: the cut nodes, then the
    nodes above them, the root last.  numpy sums a cut node's rows, as one
    contiguous block, by its own tree below the cut; `totals` adds the nodes
    above the cut as that tree does.  np.sum adds its result to +0.0, which
    turns -0.0 into +0.0, and so does each cut node's sum here: the sign of a
    zero term never changes a nonzero sum, so a total is numpy's, a zero one
    +0.0.  The arrays must be C-contiguous, as a Field's values are: numpy
    sums those in row order.
    """

    def __init__(self, shape: tuple[int, ...], count: int):
        self.bounds, self.runs, self.levels = _row_tree(shape[0], math.prod(shape[1:]))
        cut = len(self.bounds) - 1
        self.node_of_row = np.repeat(np.arange(cut), np.diff(self.bounds)).tolist()
        self.nodes = np.zeros((2 * cut - 1, count))

    def refresh(self, j: int, rows: tuple[int, int], x: np.ndarray, y: np.ndarray | None = None):
        """Re-sum in column j the cut nodes that hold any of rows [r0, r1)
        along axis 0 of x, or of |x - y|."""
        r0, r1 = rows
        if r0 >= r1:
            return
        c0, c1 = self.node_of_row[r0], self.node_of_row[r1 - 1] + 1
        a = self.bounds[c0]
        block = x[a:self.bounds[c1]]
        if y is not None:
            block = block - y[a:self.bounds[c1]]
            np.abs(block, out=block)
        for first, count, size in self.runs:
            lo, hi = max(c0, first), min(c1, first + count)
            if lo < hi:
                at = self.bounds[lo] - a
                part = block[at:at + (hi - lo) * size]
                self.nodes[lo:hi, j] = part.reshape(hi - lo, -1).sum(axis=1)

    def totals(self) -> np.ndarray:
        """Each array's sum, numpy's bits."""
        s = self.nodes
        for start, stop, left, right in self.levels:
            np.add(s[left], s[right], out=s[start:stop])
        return s[-1]


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


# -- numerical interface fluxes ------------------------------------------------

def _plan(c: np.ndarray, full: bool) -> tuple:
    """The steps of P.polyval(x, c) that can change a bit, for finite x.

    P.polyval computes c[-1] + x*0, then c[-i] + c0*x for i = 2..n.  A step
    is (multiply, operand), the operand None standing for x.  Without a -0.0
    among the coefficients these steps go:
    - c[-1] + x*0 followed by *x is x*c[-1], since c[-1] plus a zero is
      c[-1] unless c[-1] is -0.0; and x*1.0 is x;
    - an inner + 0.0, which only turns -0.0 into +0.0.  Leaving it out can
      change only the sign of a zero: *x keeps a zero a zero, + c[-i] gives
      c[-i] from either zero, and the last step, + c[0], gives +0.0 or c[0]
      from either;
    - the last + 0.0 of an even monomial c*x^(2m) with c > 0: the product of
      c and an even number of factors x is never -0.0, so + 0.0 is an
      identity.  Every other plan keeps its last step.
    The value of such a plan is never -0.0, so a later + 0.0 or - 0.0 is an
    identity too.  A full plan, for a constant or a -0.0 coefficient, keeps
    every step.  No plan is empty: its first step makes a fresh array.
    """
    n = len(c)
    if full:
        steps = [(True, 0.0), (False, float(c[-1]))]
    else:
        steps = [] if c[-1] == 1.0 else [(True, float(c[-1]))]
    even_monomial = not full and n % 2 == 1 and c[-1] > 0.0 and not np.any(c[:-1])
    for i in range(2, n + 1):
        if full or i > 2:
            steps.append((True, None))
        if full or c[-i] != 0.0 or (i == n and not even_monomial):
            steps.append((False, float(c[-i])))
    return tuple(steps)


@lru_cache(maxsize=256)
def _compiled(key: bytes) -> dict:
    """The Horner plan of c (`_plan`) and the Engquist-Osher pieces of g'.

    "pos" and "neg" list (l, r, g at the point of [l, r] nearest to 0) for
    each sign run of g' > 0 (or < 0): the intervals between the real roots of
    g' on which it keeps one sign, where two neighbours of one sign that meet
    at 0 are one run (exact, see `_eo_part`), so u^3 is one piece over the
    whole line.  "g0" is g(0); a shift that a trimmed plan makes an identity
    is None.
    """
    c = np.frombuffer(key)
    dc = P.polyder(c)
    full = len(c) == 1 or bool(np.any(np.signbit(c) & (c == 0.0)))

    def shift(v):
        # a trimmed plan never gives -0.0, so adding or subtracting a zero
        # cannot change a bit: such a shift is None and its step goes
        return v if full or v != 0.0 else None

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
        side = pos if signs[k] > 0 else neg if signs[k] < 0 else None
        if side is None:
            continue
        if side and side[-1][1] == 0.0 == l:
            # one sign run across a double root at 0: both pieces shift by
            # g(0), so the one piece gives the same bits (see `_eo_part`)
            side[-1] = (side[-1][0], r, side[-1][2])
        else:
            side.append((l, r, shift(P.polyval(float(np.clip(0.0, l, r)), c))))
    return {"plan": _plan(c, full), "full": full,
            "g0": shift(float(P.polyval(0.0, c))), "pos": pos, "neg": neg}


def _horner(plan: tuple, x):
    """P.polyval(x, c) for finite x, bit for bit, by the steps of c's plan
    (see `_plan`); the first step makes the buffer the others update."""
    out = x
    for multiply, v in plan:
        v = x if v is None else v
        if out is x:
            out = x * v if multiply else x + v
        elif multiply:
            out *= v
        else:
            out += v
    return out


@lru_cache(maxsize=1024)
def _lambdas(keys: tuple[bytes, ...], lo: float, hi: float) -> tuple[float, ...]:
    """max |g'| over [lo, hi], exact (`component_abs_max`), of the component
    of each key; the same range recurs step after step.  The keys are
    `Flux.keys`, so -0.0 and 0.0 coefficients never share an entry."""
    flux = Flux(tuple(map(np.frombuffer, keys)))
    return tuple(component_abs_max(flux, 1, lo, hi).tolist())


_clip = np._core.umath.clip  # the ufunc that np.clip ends in


def _eo_part(data: dict, side: str, x):
    """integral from 0 to x of the positive (or negative) part of g', or
    None for a side without pieces.

    Each piece is a run of one sign of g' between sign changes, evaluated as
    g(clip(x, l, r)) - g(clip(0, l, r)); a piece over the whole line skips
    its clip, which returns finite x unchanged.  Two pieces of one sign that
    meet at 0 are one piece: both shift by g(0), so for x <= 0 the right
    one gives g(0) - g(0), a zero (for x >= 0 the left one does), and adding
    a zero to the other part can only turn -0.0 into +0.0, which a trimmed
    plan never gives and a full plan's sum, started from +0.0, no longer
    holds.  Pieces that meet at any other root of g' shift by different
    values, and the sum of their parts rounds unlike one piece's, so they
    stay apart.  The clip is the ufunc that np.clip ends in, called
    directly: the same bits without np.clip's Python dispatch, which cost
    about 3 us a call, four calls per slab of a 3-D step.
    """
    total = None
    for l, r, g_c0 in data[side]:
        part = _horner(data["plan"], x if l == -np.inf and r == np.inf else _clip(x, l, r))
        if g_c0 is not None:
            part -= g_c0
        if total is None:
            if data["full"]:
                part += 0.0  # the sum starts from +0.0, which turns -0.0 into +0.0
            total = part
        else:
            total += part
    return total


def _engquist_osher(data: dict, a, b):
    """g(0) + integral_0^a (g')^+ + integral_0^b (g')^-, in that order; a
    shift of None and an empty negative part are additions of zeros that
    cannot change a bit."""
    f = _eo_part(data, "pos", a)
    if f is None:
        f = np.zeros_like(a)
    if data["g0"] is not None:
        f += data["g0"]
    neg = _eo_part(data, "neg", b)
    if neg is not None:
        f += neg
    elif data["full"]:
        f += 0.0  # the empty part's zeros
    return f


def _interface_flux(kind: str, data: dict, ext, lam):
    """The fluxes between consecutive states a = ext[:-1] and b = ext[1:]
    along axis 0, for g compiled to data (`_compiled`).  Rusanov is
    0.5*(g(a) + g(b)) - (0.5*lam)*(b - a), with g evaluated once per state
    by its Horner plan; Engquist-Osher is `_engquist_osher`.  Every
    operation is elementwise, so the bits do not depend on the layout."""
    if kind == "rusanov":
        g = _horner(data["plan"], ext)
        f = g[:-1] + g[1:]
        f *= 0.5
        diss = ext[1:] - ext[:-1]
        diss *= 0.5 * lam
        f -= diss
        return f
    if kind == "engquist-osher":
        return _engquist_osher(data, ext[:-1], ext[1:])
    raise ValueError(f"unknown numerical flux {kind!r}")


def numerical_flux(flux_component, a, b, kind: str = "rusanov", lam=None):
    """Monotone consistent interface flux for one scalar flux component.

    flux_component is a coefficient sequence (ascending).  Rusanov's lam
    defaults to max |g'| over the whole range [min(a, b), max(a, b)] of all
    the states, exact: one bound for every interface, as `step` takes one
    per step, which is what keeps the full update order-preserving.
    Engquist-Osher integrates the sign decomposition of g' exactly between
    its real roots, one piece per sign run (see `_compiled`).  Both come
    from the kernel that `step` calls (`_interface_flux`): for finite
    states both equal the plain formulas evaluated with P.polyval, and
    Engquist-Osher the sum over every sign interval of g', bit for bit (see
    `_plan` and `_eo_part`).  Both are consistent (H(s, s) = g(s)),
    nondecreasing in a, and nonincreasing in b.
    """
    key = _key(flux_component)
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if kind == "rusanov" and lam is None:
        lo, hi = (min(a.min(), b.min()), max(a.max(), b.max())) if a.size else (0.0, 0.0)
        lam = _lambdas((key,), float(lo), float(hi))[0]
    return _interface_flux(kind, _compiled(key), np.stack([a, b]), lam)[0]


# -- boundaries ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Background:
    """Far-field state used for dirichlet ghost cells; translates with velocity.

    Each grid's ghost layers are kept, read-only, in _layers with their
    range, the time t_e they were evaluated at and a horizon: they are
    returned again while |t - t_e| < horizon (see `_evaluate_layers`).  The
    horizon is infinite while the velocity is zero, and for a moving shock
    profile's eval as long as no ghost cell can cross its front; any other
    moving fn has horizon 0.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    velocity: np.ndarray
    _layers: dict = field(default_factory=dict, init=False, repr=False)
    moving: bool = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "moving", bool(np.any(np.asarray(self.velocity) != 0.0)))

    def eval(self, points: np.ndarray, t: float) -> np.ndarray:
        if self.moving:
            points = points - t * self.velocity
        return self.fn(points)


def _profile_of(fn) -> ShockProfile | None:
    """The ShockProfile whose eval fn is, if any."""
    return fn.__self__ if getattr(fn, "__func__", None) is ShockProfile.eval else None


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
    vmin: float = np.nan    # min and max of the new field
    vmax: float = np.nan
    cells: int = 0          # cells the step updated; the others kept their bits
    rows: tuple[int, int] = (0, 0)  # rows [a, b) along axis 0 that hold every changed cell


def _dirichlet(scheme: SchemeConfig, background: Background | None) -> bool:
    """Whether the ghost layers come from the background rather than from the
    field's own edge cells."""
    return scheme.boundary != "outflow" and background is not None


@dataclass(frozen=True)
class _Layers:
    """One grid's ghost layers of a background, evaluated at t, with their
    range; they hold their bits while |t' - t| < horizon."""

    ghosts: dict
    range: tuple[float, float]
    t: float
    horizon: float


# relative size of the rounding slack of a moving profile's ghost layers
# (see `_evaluate_layers`) and of `sample_function`'s proofs of constant
# cells: about 1e7 units of roundoff
GHOST_SLACK = 1e-9


def _gap_slack(front: Front, size: float) -> tuple[float, float]:
    """GHOST_SLACK (1 + size)(1 + S) and S = max |s|_1 over front's slopes."""
    s = float(np.max(np.abs(front.slopes).sum(axis=1)))
    return GHOST_SLACK * (1.0 + size) * (1.0 + s), s


def _evaluate_layers(background: Background, g: Grid, t: float) -> _Layers:
    """Evaluate the ghost layers of g at t, and how long they keep their bits.

    At rest the layers do not depend on t: the horizon is infinite.  A moving
    fn other than a profile gets horizon 0 and is evaluated at every step.
    A moving ShockProfile is u_minus exactly where r < psi(y), at the
    translated points q = p - t v of the ghost centers p, so a layer keeps
    its bits until some ghost point's gap psi(y) - r changes sign.  From the
    same frame values that made the layers: m = min |psi - r| over the ghost
    points, and P, the largest of |p|, |q| (max norm), |r| and |psi|.  The
    exact gap moves by at most rate = `ShockProfile.drift_rate` per unit of
    |t' - t|.  Each computed q, r, y and psi is a handful of roundings of
    operands no larger than a small multiple of (1 + P)(1 + S), where S is
    the largest 1-norm of a local slope, so slack = GHOST_SLACK (1 + P)(1 + S)
    bounds the rounding of the computed gap with room to spare (d <= 3).
    Over a time tau, P grows by at most 2 (1 + S) |v| tau, |v| the max norm
    of the velocity (2 > sqrt(d)), and the slack at t' by
    2 GHOST_SLACK (1 + S)^2 |v| tau.  The computed sign at t' is the
    exact one while m - 2 slack > (rate + 2 GHOST_SLACK (1 + S)^2 |v|) tau,
    and the exact sign never changes before, so the horizon is
    (m - 2 slack) / (rate + 2 GHOST_SLACK (1 + S)^2 |v|), and 0 when
    m - 2 slack <= 0.
    """
    profile = _profile_of(background.fn) if background.moving else None
    ghosts = {}
    m, size = np.inf, 0.0
    for ax in range(g.d):
        for side in (0, 1):
            p = _ghost_points(g, ax, side)
            if profile is None:
                layer = background.eval(p, t)
            else:
                q = p - t * background.velocity  # as Background.eval
                layer, r, psi = profile.eval(q, frame_values=True)
                m = min(m, float(np.min(np.abs(psi - r))))
                size = max(size, *(float(np.max(np.abs(a))) for a in (p, q, r, psi)))
            # float, so that a step can compare the layers as int64
            layer = np.asarray(layer, dtype=float).view()
            layer.flags.writeable = False
            ghosts[(ax, side)] = layer
    if not background.moving:
        horizon = np.inf
    elif profile is None:
        horizon = 0.0
    else:
        slack, s = _gap_slack(profile.front, size)
        speed = float(np.max(np.abs(background.velocity)))
        rate = profile.drift_rate(background.velocity) + \
            2.0 * GHOST_SLACK * (1.0 + s) ** 2 * speed
        horizon = (m - 2.0 * slack) / rate if m - 2.0 * slack > 0 else 0.0
    return _Layers(ghosts, _ghost_range(ghosts), float(t), horizon)


def _ghost_values(field: Field, scheme: SchemeConfig, background: Background | None, t: float):
    """Ghost layers per (axis, side) and their range; dirichlet layers are the
    translated background's, returned from its cache (the same dict) while
    they keep their bits (see `_evaluate_layers`)."""
    g = field.grid
    if not _dirichlet(scheme, background):
        # the field's own edge cells cannot widen its range
        return {(ax, side): np.moveaxis(field.values, ax, 0)[0 if side == 0 else -1]
                for ax in range(g.d) for side in (0, 1)}, (np.inf, -np.inf)
    layers = background._layers.get(g)
    if layers is None or not abs(t - layers.t) < layers.horizon:
        layers = background._layers[g] = _evaluate_layers(background, g, t)
    return layers.ghosts, layers.range


def _ghost_range(ghosts) -> tuple[float, float]:
    """Min and max over the ghost layers, folded in order."""
    lo, hi = np.inf, -np.inf
    for v in ghosts.values():
        lo = min(lo, float(np.min(v)))
        hi = max(hi, float(np.max(v)))
    return lo, hi


def _range_with_ghosts(vmin, vmax, ghost_range) -> tuple[float, float]:
    # a tie keeps the field's own value, as folding each layer into it would
    return min(float(vmin), ghost_range[0]), max(float(vmax), ghost_range[1])


def field_range(field: Field, scheme: SchemeConfig,
                background: Background | None) -> tuple[float, float]:
    """Range of the field together with its ghost layers at t = 0."""
    _, ghost_range = _ghost_values(field, scheme, background, 0.0)
    return _range_with_ghosts(field.values.min(), field.values.max(), ghost_range)


def check_range(vmin, vmax, guard: tuple[float, float]) -> None:
    """Raise CFLViolation if [vmin, vmax] leaves the guarded range, up to rounding."""
    glo, ghi = guard
    slack = 1e-12 * max(1.0, abs(glo), abs(ghi))
    if vmin < glo - slack or vmax > ghi + slack:
        raise CFLViolation(f"update left the range [{glo}, {ghi}]: [{vmin}, {vmax}]")


def wave_speed(flux: Flux, grid: Grid, lo: float, hi: float) -> float:
    """The bound lambda: max |f_i'| over [lo, hi] and the grid's axes i, exact;
    the per-axis bounds are those `step` uses."""
    return float(np.max(_lambdas(flux.keys[: grid.d], float(lo), float(hi))))


def stable_dt(flux: Flux, grid: Grid, scheme: SchemeConfig, lo: float, hi: float) -> float:
    lam = wave_speed(flux, grid, lo, hi)
    if not np.isfinite(lam):
        raise ValueError(f"the wave speed over [{lo}, {hi}] is not finite")
    return scheme.cfl_for(grid.d) * grid.dx / (grid.d * max(lam, 1e-30))


@dataclass(eq=False)
class Band:
    """What `evolve` keeps of one field from one `step` to the next; how a
    step reads and updates it is the band contract in `step`.

    `values` is the array the last step made, and vmin, vmax its range.  rows
    [a, b) along axis 0 are the rows the next step can change, and key holds
    the dt and per-axis lambdas they were found with.
    box narrows those rows to the cells the next step can change.  In 2-D it
    is the columns [c0, c1) along axis 1, two ints shared by every row (a
    2-D step is one slab).  In 3-D it narrows each row to the box along axes
    1..d-1, as float arrays lo, hi of shape (d - 1, rows) (see `_extents`).
    ghosts holds the last step's dirichlet ghost layers, the background's
    cached dict (see `Background`), and None for outflow.  faces holds the
    flux buffer of each outer face, whole faces keyed (axis, side), sums
    their float sums (a face that a step writes loses its sum until the step
    re-sums it), and inflow the last step's total.
    """

    values: np.ndarray | None = None
    rows: tuple[int, int] = (0, 0)
    key: tuple = ()
    vmin: float = np.nan
    vmax: float = np.nan
    faces: dict = field(default_factory=dict)
    sums: dict = field(default_factory=dict)
    inflow: float = 0.0
    box: tuple | None = None
    ghosts: dict | None = None


def _moved_rows(old: np.ndarray, new: np.ndarray, a: int, b: int) -> tuple[int, int] | None:
    """First and last row of [a, b) along axis 0 whose bits changed, or None.

    old and new may be any views, such as the transposes of a block of rows,
    whose rows are then columns of the grid.  Rows are compared by their
    bytes, the same test as comparing them as int64, so -0.0 -> 0.0 counts
    as a change (`step` keeps the sign of a zero, as div starts from +0.0,
    but the test does not lean on that).  Each end is scanned inward in
    blocks of 1, 2, 4, ... rows, and row by row only inside the first block
    that differs, whose last row need not be tested when the others are the
    same: a band whose ends changed costs a few rows, and a band without a
    change one pass over it.
    """
    def same(i, j):
        return old[i:j].tobytes() == new[i:j].tobytes()

    first, k = a, 1
    while True:
        if first >= b:
            return None
        end = min(first + k, b)
        if not same(first, end):
            while first < end - 1 and same(first, first + 1):
                first += 1
            break
        first, k = end, 2 * k
    last, k = b, 1
    while True:  # row `first` changed, so a block that holds it differs
        i = max(last - k, first)
        if i == first or not same(i, last):
            last -= 1
            while last > i and same(last, last + 1):
                last -= 1
            return first, last
        last, k = i, 2 * k


def _mark(proj: list, marked: np.ndarray, at: tuple) -> None:
    """Record a boolean block of cells, which sits at the slices `at` of the
    grid (rows first), in per-row projections: proj[t - 1][i, j] is True when
    a marked cell of row i has index j along axis t.  Only 3-D steps mark:
    each slab marks its own rows once, into projections that start False, so
    one reduction per projection writes its block of proj."""
    np.logical_or.reduce(marked, axis=2, out=proj[0][at[0], at[1]])
    np.logical_or.reduce(marked, axis=1, out=proj[1][at[0], at[2]])


def _extents(proj: list) -> tuple[np.ndarray, np.ndarray]:
    """The half-open extent per row along each of axes 1..d-1 of the cells
    recorded in per-row projections (see `_mark`): float arrays lo, hi of
    shape (d - 1, rows).  A row without any is (inf, -inf), the identities
    of min and max, so that extents join by np.minimum and np.maximum and
    stay empty (lo >= hi) when widened.  A marked cell shows in every
    projection, so a row's extents are empty along every axis or along none."""
    first = [hit.argmax(axis=1) for hit in proj]
    last = [hit.shape[1] - hit[:, ::-1].argmax(axis=1) for hit in proj]
    some = proj[0][np.arange(len(proj[0])), first[0]]
    return np.where(some, first, np.inf), np.where(some, last, -np.inf)


def _row_hull(lo: np.ndarray, hi: np.ndarray) -> tuple[int, int]:
    """The rows [a, b) from the first to the last row with a non-empty extent."""
    rows = np.flatnonzero(lo[0] < hi[0])
    return (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)


def _widen(lo: np.ndarray, hi: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """The cells a step can change, given the extents of the cells that
    changed in the last one: each row's extents widened by one along axes
    1..d-1 and joined with those of the rows next to it, within the grid."""
    wlo, whi = lo - 1.0, hi + 1.0
    for w, v, join in ((wlo, lo, np.minimum), (whi, hi, np.maximum)):
        join(w[:, 1:], v[:, :-1], out=w[:, 1:])
        join(w[:, :-1], v[:, 1:], out=w[:, :-1])
    np.maximum(wlo, 0.0, out=wlo)
    np.minimum(whi, np.array(counts[1:], dtype=float)[:, None], out=whi)
    return wlo, whi


def _exact_reciprocal(dx: float) -> float | None:
    """1/dx where dx is a power of two whose reciprocal is finite, else None:
    then x * (1/dx) and x / dx are the same correctly rounded number."""
    mantissa, exponent = math.frexp(dx)
    return 1.0 / dx if mantissa == 0.5 and exponent >= -1022 else None


# per axis ax of a d-D grid, the transposes of np.moveaxis(x, ax, 0) and of
# its inverse, without its checks
_PERMS = {d: [((ax, *range(ax), *range(ax + 1, d)), (*range(1, ax + 1), 0, *range(ax + 1, d)))
              for ax in range(d)] for d in (2, 3)}

# cells per slab of a 3-D step, so that the arrays of one slab stay in cache;
# each step finds the boxes of all its slabs at once (see `step`).  4,096 and
# 8,192 were slower, 32,768 no faster; 2-D steps gained nothing from slabs
# and run one box
SLAB_CELLS = 16384


def step(
    field: Field,
    scheme: SchemeConfig,
    flux: Flux,
    background: Background | None = None,
    t: float = 0.0,
    dt: float | None = None,
    range_guard: tuple[float, float] | None = None,
    band: Band | None = None,
) -> tuple[Field, StepStats]:
    """One conservative unsplit update u <- u - dt/dx * sum_axes (F_right - F_left).

    dt defaults to cfl * dx / (d * max |g'|) over the current range including
    ghosts.  Raises CFLViolation if the update leaves the guarded range, which
    a monotone scheme can never do, and ValueError if a new value is not
    finite (NaN and +-inf always show in the min or the max).

    The result is bit-identical to the plain formula, so the order of the
    floating-point operations is part of the contract:
    - per axis, the interface fluxes of the ghost-padded array come from
      the kernel of `numerical_flux` (`_interface_flux`, whose bits that
      docstring states), with Rusanov's range-wide lam of the axis;
    - div is 0.0 + ((F_hi - F_lo) / dx) of axis 0, and then adds that of
      each other axis in turn; the result is u - dt*div.  div starts as axis
      0's jump plus 0.0, in place: IEEE addition commutes, so those are the
      bits of 0.0 + jump.  Where dx is a power of two with a finite
      reciprocal, the jump is multiplied by 1/dx: x * 2^-k and x / 2^k are
      the same correctly rounded number;
    - the boundary inflow sums each outer face's fluxes from a C-contiguous
      buffer of the whole face, axis by axis after the last row is updated,
      so the pairwise summation order does not depend on the axis or on the
      cells updated.
    Every operation above is elementwise, so a 3-D step runs its rows
    [a, b) in slabs of about SLAB_CELLS cells along axis 0, starting at a
    (at least one row each; a 2-D band is one slab), and each slab runs a
    box of its rows: each box is padded by the cells next to it or the ghost
    layers, and writes its part of each outer face into the whole-face
    buffers.  A 3-D step finds the boxes of all its slabs at once, by
    np.minimum.reduceat and np.maximum.reduceat over the band's per-row
    extents.  The bits do not depend on the slab size or the boxes.
    Dirichlet ghost layers are cached read-only per background and grid with
    a horizon (see `Background` and `_evaluate_layers`): for ever at rest,
    while no ghost cell can cross the front for a moving ShockProfile; any
    other moving background is evaluated at every step.  A cached layer has
    the bits a fresh evaluation would have.

    Band contract (the fields are described in `Band`).  Only `evolve`
    passes a band; a call without one steps through a fresh `Band()`, so
    every cell runs.  The band vouches for the field only when it is the
    array the last step made, dt and the lambdas equal the last step's, and
    no bit of the ghost layers changed since the last step (the same cached
    dict, or equal bits after a new evaluation); otherwise every cell runs.
    Then a cell whose bits and whose stencil neighbours' bits did not change
    in the last step keeps its bits again, so skipping it is exact and the
    outputs are bit-identical to stepping every cell.  The band holds the
    cells that changed in the last step, widened by one cell along every
    axis: a cell outside it did not change, and neither did any cell of its
    stencil.  A 2-D step runs the box of rows [a, b) and columns [c0, c1)
    (the bounding box of the changed cells, widened and clipped to the
    grid); a 3-D step runs in each slab the bounding box, along axes
    1..d-1, of its rows' boxes, and no slab whose rows hold none.  Every
    other cell is copied.  Cells and ghosts are compared as int64: a -0.0
    that became 0.0 has changed (float != would miss it).  2-D rows are
    found by scanning [a, b) from both ends, and their columns by the same
    scan over the transposed changed rows, among the columns that ran; a
    3-D step finds the changed cells of each box it ran and keeps, per row,
    their extent along each of axes 1..d-1, widened in integer arithmetic.
    The band's values, vmin and vmax spare the next step a pass for lambda.
    A step that runs no cell returns the input field, which is safe because
    no field is ever written in place.  Each outer face's fluxes live in a
    buffer of the whole face in the band, and a box writes only the part of
    a face it touches: a face outside every box keeps the fluxes of its
    unchanged cells and ghosts, and with them its cached float sum, which
    has the bits of a fresh whole-face sum.  The range check and the
    finiteness test still see the whole new array, and its min and max come
    back in the StepStats, with the number of cells that ran and the rows
    from the first to the last that changed.
    """
    g = field.grid
    n0 = g.counts[0]
    values = field.values
    if band is None:
        band = Band()
    ghosts, ghost_range = _ghost_values(field, scheme, background, t)
    fresh = band.values is not values
    vmin, vmax = (values.min(), values.max()) if fresh else (band.vmin, band.vmax)
    lo, hi = _range_with_ghosts(vmin, vmax, ghost_range)
    if range_guard is not None:
        # the dissipation bound must come from the shared invariant range so
        # that runs compared cellwise or in L1 use the identical update map
        lo, hi = min(lo, range_guard[0]), max(hi, range_guard[1])
    if dt is None:
        dt = stable_dt(flux, g, scheme, lo, hi)
    # Rusanov dissipation uses one range-wide bound per step: a constant
    # coefficient keeps the unsplit update order-preserving under the CFL
    d = g.d
    keys = flux.keys[:d]
    lams = _lambdas(keys, float(lo), float(hi))
    lam_used = max(0.0, *lams)
    inv_dx = _exact_reciprocal(g.dx)
    boxed = d > 2  # 3-D steps run in slabs, each the box of its cells that can change
    a, b, box = 0, n0, None
    # cached layers are the same dict; re-evaluated ones are compared as int64
    same_ghosts = band.ghosts is None or band.ghosts is ghosts or all(
        np.array_equal(band.ghosts[k].view(np.int64), v.view(np.int64)) for k, v in ghosts.items())
    if not fresh and band.key == (dt, *lams) and same_ghosts:
        a, b = band.rows
        box = band.box
    if boxed:
        # the cells that changed, recorded over the cells that ran
        changed = [np.zeros((n0, n), dtype=bool) for n in g.counts[1:]]

    cells = 0
    if a < b:
        new_values = np.empty_like(values)
        new_values[:a] = values[:a]
        new_values[b:] = values[b:]
        faces, sums = band.faces, band.sums
        if not faces:  # the first step runs every cell and writes every face
            for ax in range(d):
                face = g.counts[:ax] + g.counts[ax + 1:]
                faces[ax, 0], faces[ax, 1] = np.empty(face), np.empty(face)
        size = max(1, SLAB_CELLS // (values.size // n0)) if boxed else b - a
        whole = tuple(slice(0, n) for n in g.counts[1:])
        starts = range(a, b, size)
        if box is None:
            spans = [whole] * len(starts)
        elif not boxed:
            spans = [(slice(*box),)]  # a 2-D band is one slab: its box's columns
        else:
            # every slab's box at once: the join of its rows' boxes, and None
            # where they are all empty (no cell of the slab's rows can change)
            at = np.arange(0, b - a, size)
            blo = np.minimum.reduceat(box[0][:, a:b], at, axis=1)
            bhi = np.maximum.reduceat(box[1][:, a:b], at, axis=1)
            live = blo[0] < bhi[0]
            ends = np.where(live, (blo, bhi), 0.0).astype(int).transpose(2, 0, 1).tolist()
            spans = [tuple(map(slice, *e)) if ok else None for e, ok in zip(ends, live.tolist())]
        datas = [_compiled(key) for key in keys]
        for s, span in zip(starts, spans):
            e = min(s + size, b)
            if span != whole:
                new_values[s:e] = values[s:e]  # the cells outside the box
                if span is None:
                    continue
            sub = (slice(s, e), *span)
            rows = values[sub]
            cells += rows.size
            for ax, (front, back) in enumerate(_PERMS[d]):
                # the padded copy puts the interface axis first, so both states
                # of every interface and every flux jump are contiguous blocks;
                # the elementwise results do not depend on the layout.  The
                # pads are the cells next to the box, or the ghosts.
                inner = rows.transpose(front)
                ext = np.empty((inner.shape[0] + 2,) + inner.shape[1:])
                ext[1:-1] = inner
                lo_end, hi_end = sub[ax].start == 0, sub[ax].stop == g.counts[ax]
                part = sub[:ax] + sub[ax + 1:]  # the box's cells of the faces along ax
                ext[0] = ghosts[(ax, 0)][part] if lo_end else \
                    values[sub[:ax] + (sub[ax].start - 1,) + sub[ax + 1:]]
                ext[-1] = ghosts[(ax, 1)][part] if hi_end else \
                    values[sub[:ax] + (sub[ax].stop,) + sub[ax + 1:]]
                f = _interface_flux(scheme.numerical_flux, datas[ax], ext, lams[ax])
                jump = f[1:] - f[:-1]
                if inv_dx is None:
                    jump /= g.dx
                else:
                    jump *= inv_dx
                if ax == 0:
                    div = jump
                    div += 0.0
                else:
                    div += jump.transpose(back)
                # f[0] and f[-1] are C-contiguous, like np.take(f, 0, axis=ax);
                # they are outer faces only where the box reaches the grid's end
                if lo_end:
                    faces[ax, 0][part] = f[0]
                    sums.pop((ax, 0), None)
                if hi_end:
                    faces[ax, 1][part] = f[-1]
                    sums.pop((ax, 1), None)
            div *= dt
            out = new_values[sub]
            np.subtract(rows, div, out=out)
            if boxed:
                _mark(changed, rows.view(np.int64) != out.view(np.int64), sub)
        for key, face in faces.items():
            if key not in sums:  # a face that no box wrote keeps its sum
                sums[key] = float(face.sum())
        inflow = 0.0
        area = g.dx ** (d - 1)
        for ax in range(d):
            inflow += (sums[ax, 0] - sums[ax, 1]) * area
        vmin, vmax = new_values.min(), new_values.max()
        if range_guard is not None:
            check_range(vmin, vmax, range_guard)
        if not (np.isfinite(vmin) and np.isfinite(vmax)):
            raise ValueError("field values must be finite")
        result = Field._trusted(g, new_values)
    else:
        # no cell can change: the same bits, the same faces, the same checks
        new_values, inflow, result = values, band.inflow, field
    if boxed:
        extents = _extents(changed)
        moved = _row_hull(*extents)
        band.box = _widen(*extents, g.counts)
    else:
        hit = _moved_rows(values, new_values, a, b) if a < b else None
        moved = (0, 0) if hit is None else (hit[0], hit[1] + 1)
        if hit is not None:
            # the first and last changed column of those rows, among the
            # columns that ran, and the columns next to them
            r = slice(*moved)
            c0, c1 = _moved_rows(values[r].T, new_values[r].T, *(box or (0, g.counts[1])))
            band.box = (max(c0 - 1, 0), min(c1 + 2, g.counts[1]))
    # a row next to a changed row can change, within band.box
    band.rows = (max(moved[0] - 1, 0), min(moved[1] + 1, n0)) if moved[0] < moved[1] else (0, 0)
    band.key = (dt, *lams)
    band.ghosts = ghosts if _dirichlet(scheme, background) else None
    band.values, band.vmin, band.vmax, band.inflow = new_values, vmin, vmax, inflow
    return result, StepStats(dt, inflow * dt, lam_used, float(vmin), float(vmax), cells, moved)


# -- trajectories ---------------------------------------------------------------

def fixed_steps(horizon: float, dt: float) -> tuple[float, int]:
    """The fixed step that divides horizon into whole steps no longer than
    dt (up to rounding), and their number."""
    n_steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    return horizon / n_steps, n_steps


def evolve(pairs, scheme: SchemeConfig, flux: Flux, dt: float, n_steps: int,
           range_guard: tuple[float, float] | None = None):
    """The one time loop: step (field, background) pairs together by a fixed dt.

    Yields (k, t, fields, stats) after step k = 1..n_steps, which runs from
    (k-1)*dt to t = k*dt: one list of the fields in the order of pairs,
    updated in place, and the StepStats of each, whose vmin, vmax and rows
    are those of the field yielded.  A range_guard is shared by every field and
    sets each step's dissipation bound, so fields compared cellwise or in L1
    go through one update map; without one each step takes the bound from
    its own range.  Every field is held to its own start range with its
    ghosts at t = 0: CFLViolation if it leaves it, which a monotone update
    never does (max principle).

    Every update goes through the module-level name `solver.step`, with one
    `Band` per field (the band contract is in `step`).
    """
    fields = [f for f, _ in pairs]
    backgrounds = [bg for _, bg in pairs]
    guards = [field_range(f, scheme, bg) for f, bg in pairs]
    del pairs  # a start field lives on only if the caller keeps it
    bands = [Band() for _ in fields]
    stats = [None] * len(fields)
    for k in range(1, n_steps + 1):
        for i, bg in enumerate(backgrounds):
            # `step` is looked up at every call, so rebinding solver.step
            # reaches every update; replacing the field at once frees the
            # old one before the next field steps
            fields[i], stats[i] = step(fields[i], scheme, flux, bg, (k - 1) * dt, dt,
                                       range_guard, bands[i])
            if fields[i].values is not bands[i].values:
                # not the array the step reported on: a replaced `step`,
                # which may have changed any row
                values = fields[i].values
                stats[i] = replace(stats[i], vmin=float(values.min()),
                                   vmax=float(values.max()), rows=(0, len(values)))
            check_range(stats[i].vmin, stats[i].vmax, guards[i])
        yield k, k * dt, fields, stats


def _join(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The rows from the first to the last of two row ranges; an empty one
    (r0 >= r1) adds none."""
    if a[0] >= a[1]:
        return b
    if b[0] >= b[1]:
        return a
    return min(a[0], b[0]), max(a[1], b[1])


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
    to every companion, with the bits of `Field.mass` and `l1_distance`: a
    probe re-sums only the `RowSums` nodes that hold rows either field
    changed since the last probe (`StepStats.rows`).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    companions = list(companions or [])
    names = [c.name for c in companions]
    if len(set(names)) < len(names):
        raise ValueError(f"companion names must be unique: {names}")
    g = initial.grid
    for c in companions:
        if c.field.grid != g:
            raise GridMismatch(f"grids differ: {g} vs {c.field.grid}")
    pairs = [(initial, background)] + [(c.field, c.background) for c in companions]
    ranges = [field_range(f, scheme, bg) for f, bg in pairs]
    lo, hi = min(r[0] for r in ranges), max(r[1] for r in ranges)
    dt, n_steps = fixed_steps(horizon, stable_dt(flux, initial.grid, scheme, lo, hi))
    if range_guard is None:
        range_guard = (lo, hi)
    snap_steps = {min(n_steps, max(0, int(round(ts / dt)))) for ts in snapshot_times or []}

    fields = [f for f, _ in pairs]
    times, sups, infs, masses = [], [], [], []
    l1s: dict[str, list[float]] = {name: [] for name in names}
    inflows = [0.0]
    snapshots: list[tuple[float, Field]] = []
    cum_in = 0.0
    # column 0 sums the main field, column i its distance to companion i;
    # moved[i] holds the rows field i changed since the last probe
    sums = RowSums(g.counts, len(fields))
    moved = [(0, g.counts[0])] * len(fields)

    def record(t, vmin, vmax):
        main = fields[0].values
        sums.refresh(0, moved[0], main)
        for i, f in enumerate(fields[1:], 1):
            sums.refresh(i, _join(moved[0], moved[i]), main, f.values)
        moved[:] = [(0, 0)] * len(fields)
        mass, *l1 = (sums.totals() * g.cell_volume).tolist()
        times.append(t)
        sups.append(float(vmax))
        infs.append(float(vmin))
        masses.append(mass)
        for name, d in zip(names, l1):
            l1s[name].append(d)

    record(0.0, initial.values.min(), initial.values.max())
    if 0 in snap_steps:
        snapshots.append((0.0, initial.copy()))
    for k, t, fields, stats in evolve(pairs, scheme, flux, dt, n_steps, range_guard):
        moved[:] = [_join(m, s.rows) for m, s in zip(moved, stats)]
        cum_in += stats[0].boundary_inflow
        if k % probe_every == 0 or k == n_steps:
            record(t, stats[0].vmin, stats[0].vmax)
            inflows.append(cum_in)
        if on_step is not None:
            on_step(t, fields[0], dict(zip(names, fields[1:])))
        if k in snap_steps:
            snapshots.append((t, fields[0].copy()))

    return RunReport(
        np.array(times), np.array(sups), np.array(infs), np.array(masses),
        {k: np.array(v) for k, v in l1s.items()},
        np.array(inflows), snapshots, fields[0], dict(zip(names, fields[1:])), dt,
    )


# -- sampling profiles and functions onto grids ---------------------------------

# midpoint subsamples per cell and axis of `sample_function`
SUBSAMPLES = 4

# float64 subsample coordinates that `sample_function` holds in one block:
# 2 MiB, below the 4 MiB at which numpy asks for huge pages, so the set-up
# leaves no huge-page heap behind for the steps (see
# `cli._fix_malloc_thresholds`).  The chord test holds at most degree + 1
# points per direction and needs no blocks.
SETUP_BLOCK = 1 << 18


def _cell_means(vals: np.ndarray) -> np.ndarray:
    """Cell averages of subsample values of shape (cells, S, ..., S): the mean
    over grid axis 0's subsamples first, then over axis 1's, and so on."""
    for _ in range(vals.ndim - 1):
        vals = vals.mean(axis=1)
    return vals


def _front_constant(profile: ShockProfile, grid: Grid) -> np.ndarray:
    """Cells whose subsamples a shock profile's front cannot separate.

    Along a segment the gap g = psi(y) - r is piecewise linear with gradients
    W - H s over the front's local slopes s (and s = 0 where a pwl front
    clamps), so it moves by at most L |p - c| (max norm), L the largest
    |W - H s|_1.  A subsample is at most (1 - 1/S) dx / 2 from its cell's
    centre c along each axis (3 dx / 8).  The computed gaps at c and at the
    subsamples are within the slack of `_gap_slack` of the exact ones, with
    P bounding the coordinates, r and psi over the cell; the rounding of the
    subsample coordinates is far inside it.  So where the computed |g(c)|
    exceeds L (1 - 1/S) dx / 2 + 2 slack, every subsample decides r < psi
    alike.
    """
    front, dual = profile.front, profile.dual
    slopes = front.slopes
    if front.clamps:
        slopes = np.vstack([slopes, np.zeros_like(slopes[:1])])
    lip = float(np.max(np.abs(dual.W - slopes @ dual.H.T).sum(axis=1)))
    r, y = dual.frame(grid.center_mesh())
    psi = front.value(y)
    size = max(*(abs(b) for b in grid.lo + grid.hi), float(np.max(np.abs(r))),
               float(np.max(np.abs(psi)))) + (lip + 2.0) * grid.dx
    slack, _ = _gap_slack(front, size)
    return np.abs(psi - r) > lip * (1.0 - 1.0 / SUBSAMPLES) * grid.dx / 2 + 2.0 * slack


def _outside(spec: PerturbationSpec, axes: list):
    """Cells whose subsamples all lie outside every ball of a perturbation,
    where each bump is +-0.0, each indicator 0.0 and a sum 0.0.

    q^2 is a sum over the axes of (x_i - c_i)^2 / r^2, so its least value
    over a cell's subsamples is the sum of each axis's least term.  The
    terms are computed here with the bump's own operations, and rounding is
    monotone, so where that least sum over the computed r^2 exceeds
    1 + GHOST_SLACK, the computed q^2 exceeds 1 at every subsample.  A sum is
    outside where each of its terms is.
    """
    if spec.shape == "sum":
        mask = True
        for term in spec.terms:
            mask = mask & _outside(term, axes)
        return mask
    d = len(axes)
    c = np.broadcast_to(np.asarray(spec.center, dtype=float), (d,))
    least = 0.0
    for i, x in enumerate(axes):
        term = ((x - c[i]) ** 2).min(axis=1)
        least = least + term.reshape([-1 if j == i else 1 for j in range(d)])
    return least / spec.radius**2 > 1.0 + GHOST_SLACK


@dataclass(frozen=True)
class Shifted:
    """The pointwise function base + phi(p): a perturbation on a constant state."""

    base: float
    phi: PerturbationSpec

    def __call__(self, points) -> np.ndarray:
        return self.base + self.phi(points)


def _constant_cells(fn, grid: Grid, axes: list) -> np.ndarray:
    """Cells at whose subsamples fn provably takes one value: proved for a
    ShockProfile's eval (`_front_constant`), a PerturbationSpec (`_outside`)
    and a `Shifted` one, and for no cell of any other fn.

    Outside its balls a perturbation takes one value, the same zero
    everywhere (a bump's sign is its amplitude's), so base plus it takes one
    value there too, even where base is -0.0 and that value's sign depends
    on the zero's: `sample_function` reads the value from fn itself.
    """
    profile = _profile_of(fn)
    if profile is not None:
        return _front_constant(profile, grid)
    if isinstance(fn, Shifted):
        fn = fn.phi
    if isinstance(fn, PerturbationSpec):
        return np.broadcast_to(_outside(fn, axes), grid.counts)
    return np.zeros(grid.counts, dtype=bool)


def sample_function(fn, grid: Grid) -> Field:
    """Cell averages of a pointwise function by midpoint subsampling.

    fn maps points of shape (..., d) to values of shape (...), each value
    depending on its own point only; each cell averages SUBSAMPLES midpoints
    per axis.  fn is evaluated only at the subsamples of the cells where it
    is not proved constant (`_constant_cells`), in blocks of whole cells of
    at most SETUP_BLOCK coordinates (at least one cell), so memory stays
    bounded on 3-D grids.  A cell proved constant takes its value v from fn
    at one of its own subsamples, never its centre, which a bump smaller
    than the cell can cover while missing every subsample; its average is
    the mean of a block of S^d copies of v, taken once per distinct v.
    Every cell average sees the operations it would see with the whole mesh.
    """
    d, sub = grid.d, SUBSAMPLES
    offs = (np.arange(sub) + 0.5) / sub * grid.dx
    # the subsample coordinates along each axis, (cells, SUBSAMPLES)
    axes = [grid.lo[i] + np.add.outer(np.arange(grid.counts[i]) * grid.dx, offs)
            for i in range(d)]
    constant = _constant_cells(fn, grid, axes)
    out = np.empty(grid.counts)
    proved = np.nonzero(constant)
    if proved[0].size:
        v = np.asarray(fn(np.stack([axes[i][proved[i], 0] for i in range(d)], axis=-1)),
                       dtype=float)
        # distinct values by their bits, so that -0.0 keeps its sign
        bits, which = np.unique(v.view(np.int64), return_inverse=True)
        block = np.broadcast_to(bits.view(float).reshape((-1,) + (1,) * d),
                                (len(bits),) + (sub,) * d)
        out[proved] = _cell_means(np.ascontiguousarray(block))[which]
    rest = np.flatnonzero(~constant)
    per = max(1, SETUP_BLOCK // (sub**d * d))  # 8,192 cells in 2-D, 1,365 in 3-D
    for a in range(0, rest.size, per):
        cells = np.unravel_index(rest[a:a + per], grid.counts)
        mesh = np.empty((cells[0].size,) + (sub,) * d + (d,))
        for i in range(d):
            mesh[..., i] = axes[i][cells[i]].reshape(
                (-1,) + tuple(sub if j == i else 1 for j in range(d)))
        out[cells] = _cell_means(np.asarray(fn(mesh), dtype=float))
    return Field(grid, out)


def _cut_cells(r_at: np.ndarray, r_lo: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Which cells (r_lo rows x r_at columns) the front can cut, and which lie
    wholly below it along the axis, where every ordinate's fraction
    clip((r_at - r_lo) / dx, 0, 1) is 1.

    Subtraction of a fixed r_lo and division by dx > 0 round monotonically,
    so a column's least and largest r_at bound every ordinate's fraction
    before the clip: a least one of at least 1 makes every fraction 1, a
    largest one below 0 makes every fraction 0.  NaN proves nothing.
    """
    lo = (r_at.min(axis=1) - r_lo[:, None]) / dx
    hi = (r_at.max(axis=1) - r_lo[:, None]) / dx
    full = lo >= 1.0
    return ~(full | (hi < 0.0)), full


def sample_profile(profile: ShockProfile, grid: Grid) -> Field:
    """Cell averages of a two-valued shock, exact in the frame-axis direction.

    For d = 2 with the frame axis grid-aligned, each cell gets the exact area
    fraction cut by the front at 16 quadrature ordinates, which keeps the
    mass of a front displacement accurate to O(dx^2 / 16).  The fractions
    are computed only in the cells the front can cut (`_cut_cells`); every
    other cell is proved 1 or 0 at all 16 ordinates, the mean the
    computation would give there.
    """
    dual = profile.dual
    aligned = dual.grid_axis
    if grid.d != 2 or aligned is None:
        return sample_function(profile.eval, grid)
    axis, sgn = aligned
    other = 1 - axis
    h_col = dual.H[other, 0]
    offs = (np.arange(16) + 0.5) / 16 * grid.dx
    y_world = grid.lo[other] + np.add.outer(np.arange(grid.counts[other]) * grid.dx, offs)
    psi = profile.front.value(y_world * h_col)          # front in r-coordinate
    r_at = psi * sgn                                     # front in world coordinate
    r_lo = grid.lo[axis] + np.arange(grid.counts[axis]) * grid.dx
    # fraction of the cell on the D_minus side (r < psi), (axis cells, other cells)
    cut, full = _cut_cells(r_at, r_lo, grid.dx)
    frac = (full if sgn > 0 else ~full).astype(float)
    rows, cols = np.nonzero(cut)
    part = np.subtract(r_at[cols], r_lo[rows, None])
    part /= grid.dx
    np.clip(part, 0.0, 1.0, out=part)
    if sgn < 0:
        np.subtract(1.0, part, out=part)
    frac[rows, cols] = part.mean(axis=1)
    vals = profile.pair.u_plus + (profile.pair.u_minus - profile.pair.u_plus) * frac
    if axis == 1:
        vals = vals.T
    return Field(grid, vals)
