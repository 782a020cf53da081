"""Admissibility cones, dual cones, frames, and the gauge function.

A cone of admissible directions keeps its unit extreme rays and the unit
inward normals of its facets, which generate its dual; membership reads the
normals alone.  For d = 2 the cone is an exact angular sector located by
bisection on the exact chord admissibility test.  For d = 3 it is the hull
of the directions that the exact test admits among a quasi-uniform sample:
its extreme rays are the vertices of that hull on a slice plane, and the
cross products of consecutive rays are the normals.  The dual cone carries
the working frame: an interior axis W, a supporting functional lam in the
primal cone, an orthonormal basis H of the complement of W, and the
piecewise-linear gauge whose epigraph is the dual cone in the (y, r)
coordinates of R^d = H + R*W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFlux, TrivialCone
from .fluxes import ShockPair, oleinik_admissible_many
from .hulls import hull_indices

__all__ = [
    "AdmissibleCone",
    "DualCone",
    "admissible_cone",
    "sector_cone",
    "dual_cone",
    "dual_cone_from_flux",
    "cone_contains",
    "direction_count",
]

TWO_PI = 2.0 * np.pi


def _unit(theta):
    """(cos, sin) of each angle along a last axis, bit for bit a scalar call's."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _wrap(a):
    """Wrap angles to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(a), TWO_PI)


@dataclass(frozen=True, eq=False)
class AdmissibleCone:
    """Closed convex cone of chord-admissible directions: its unit extreme
    rays (generators) and unit inward facet normals (dual_generators).

    d = 2 also keeps the sector [theta1, theta2] in radians (width < pi);
    d = 3 the admitted unit directions, with the rays in cyclic order and
    the normal of the facet after each ray.
    """

    d: int
    pair: ShockPair | None
    sector: tuple[float, float] | None = None
    directions: np.ndarray | None = None
    generators: np.ndarray | None = None
    dual_generators: np.ndarray | None = None
    trivial: bool = False

    @property
    def degenerate_ray(self) -> bool:
        return self.sector is not None and self.sector[1] - self.sector[0] == 0.0


def sector_cone(theta1: float, theta2: float, pair: ShockPair | None = None) -> AdmissibleCone:
    """Directly specified planar sector; theta2 >= theta1, width < pi."""
    if theta2 < theta1:
        raise ValueError("need theta1 <= theta2")
    if theta2 - theta1 >= np.pi:
        raise ValueError("a cone of admissible directions cannot contain a line")
    gens = np.stack([_unit(theta1), _unit(theta2)])
    dual = np.stack([_unit(theta2 - np.pi / 2), _unit(theta1 + np.pi / 2)])
    return AdmissibleCone(2, pair, sector=(float(theta1), float(theta2)),
                          generators=gens, dual_generators=dual)


def _fibonacci_sphere(n: int) -> np.ndarray:
    """Quasi-uniform unit directions on S^2."""
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1)


def _cone_rays(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The extreme rays of the cone that 3-D vectors span, unit rows in
    cyclic order, and the extreme rays of its dual {n : n.v >= 0}.

    The unit vectors v go centrally onto the plane {x : x.m = 1},
    v -> v / (v.m), m their unit mean; the vertices of the images' hull span
    the extreme rays.  The dual is spanned by the cross products of
    consecutive rays (the polar of a polygon; Ziegler, Lectures on Polytopes,
    2.3).  TrivialCone if some v.m <= 0, or if the cone is flat: m lies on a
    facet, as on both facets of a hull of two vertices.
    """
    units = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    m = units.mean(axis=0)
    norm = np.linalg.norm(m)
    if norm <= 1e-12:
        raise TrivialCone("direction set is not pointed; its rays are undefined")
    m = m / norm
    heights = units @ m
    if np.any(heights <= 0):
        raise TrivialCone("direction spread exceeds a halfspace; no slice plane")
    basis = _complement_basis(m)
    pts = (units @ basis) / heights[:, None]
    order = hull_indices(pts)
    # the cross products on the slice, where the chain turned: a ray is (p, 1)
    # in the frame (basis, m), and (p, 1) x (p' - p, 0) points into the cone,
    # accurate in direction even for two rays a rounding apart
    p = pts[order]
    e = np.roll(p, -1, axis=0) - p
    normals = (np.stack([-e[:, 1], e[:, 0]], axis=1) @ basis.T
               + np.outer(p[:, 0] * e[:, 1] - p[:, 1] * e[:, 0], m))
    size = np.linalg.norm(normals, axis=1)
    # a hull of two vertices has m on both of its facets
    if np.any(normals @ m <= 1e-12 * size):
        raise TrivialCone("directions span a flat cone; its dual contains a line")
    return units[order], normals / size[:, None]


def admissible_cone(pair: ShockPair, resolution: float = 1e-4) -> AdmissibleCone:
    """Locate the admissibility cone of a shock pair.

    d = 2: circular scan of 1024 directions for an admissible seed, then
    bisection of the two boundary angles down to `resolution` radians, or
    to adjacent floats if that comes first.  The scan is one exact chord-test
    call, and each further call advances both bisections by BISECT_LEVELS
    levels (`_bisect`): six calls for the resolution 1e-8.
    d = 3: the exact test on a quasi-uniform direction grid sized from
    `resolution` as an angular spacing (`direction_count`), so a resolution
    below about 0.0554 rad gives the same cone; the cone is the hull of the
    admitted directions (`_cone_rays`).

    In 2-D a resolution below about 1e-7 rad buys no accuracy: the exact test,
    `oleinik_admissible_many`, admits directions up to about 8.4e-8
    rad outside the cone (for the 2-D Burgers pair (1, -1)), since its
    violation grows quadratically in the angle past the boundary and only
    exceeds its rounding tolerance beyond that.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if pair.d == 2:
        return _admissible_cone_2d(pair, resolution)
    return _admissible_cone_nd(pair, resolution)


# bisection levels that one chord-test call advances both 2-D boundaries by:
# it tests the 2**4 - 1 = 15 midpoints each boundary's next four levels can
# reach, 30 rows, whose exact test costs little more than the call itself
BISECT_LEVELS = 4


def _midpoint(theta_in: float, theta_out: float, resolution: float) -> float | None:
    """The angle that bisection tests next in a bracket, or None where it
    stops: at width <= resolution, or at adjacent floats, where no
    resolution closes the gap further."""
    if not abs(theta_out - theta_in) > resolution:
        return None
    mid = 0.5 * (theta_in + theta_out)
    return None if mid == theta_in or mid == theta_out else mid


def _bisect(pair: ShockPair, brackets: list, resolution: float) -> list:
    """Bisect each bracket (theta_in, theta_out) of the admissibility
    boundary; returns the midpoint of each final bracket.

    Each round tests, in one exact chord-test call, every midpoint that the
    next BISECT_LEVELS levels of every open bracket can reach: a tree whose
    node k holds a bracket, with the bracket after an admissible midpoint at
    2k + 1 and after an inadmissible one at 2k + 2.  Walking each tree by the
    results gives the brackets and stops of one midpoint per call, bit for
    bit.
    """
    inner = 2**BISECT_LEVELS - 1
    brackets, final = list(brackets), [None] * len(brackets)
    while None in final:
        trees = {}
        for j in (j for j, f in enumerate(final) if f is None):
            nodes, mids = [brackets[j]], []
            for k in range(inner):
                mid = None if nodes[k] is None else _midpoint(*nodes[k], resolution)
                mids.append(mid)
                nodes += [None, None] if mid is None else [(mid, nodes[k][1]), (nodes[k][0], mid)]
            trees[j] = nodes, mids
        tested = [m for _, mids in trees.values() for m in mids if m is not None]
        results = iter(oleinik_admissible_many(pair, _unit(np.array(tested))).admissible
                       if tested else ())
        for j, (nodes, mids) in trees.items():
            admissible = [m is not None and next(results) for m in mids]
            k = 0
            while k < inner and mids[k] is not None:
                k = 2 * k + 1 if admissible[k] else 2 * k + 2
            brackets[j] = nodes[k]
            if k < inner:
                final[j] = 0.5 * (nodes[k][0] + nodes[k][1])
    return final


def _admissible_cone_2d(pair: ShockPair, resolution: float) -> AdmissibleCone:
    n_scan = 1024
    # exact excess maximization keeps the predicate sharp enough for deep bisection
    thetas = np.linspace(-np.pi, np.pi, n_scan, endpoint=False)
    mask = oleinik_admissible_many(pair, _unit(thetas)).admissible
    if not mask.any():
        return AdmissibleCone(2, pair, trivial=True)
    if mask.all():
        raise DegenerateFlux("every sampled direction is admissible; flux violates non-degeneracy")

    # longest circular run of admissible samples
    idx = np.arange(n_scan)
    runs = []
    in_run = False
    for i in np.concatenate([idx, idx]):
        if mask[i] and not in_run:
            start = i
            in_run = True
        elif not mask[i] and in_run:
            runs.append((start, i))
            in_run = False
    start, end = max(runs, key=lambda r: (r[1] - r[0]) % n_scan)

    step = TWO_PI / n_scan
    lo_in = thetas[start % n_scan]
    hi_in = lo_in + step * ((end - 1 - start) % n_scan)
    theta1, theta2 = _bisect(pair, [(lo_in, lo_in - step), (hi_in, hi_in + step)], resolution)
    if theta2 < theta1:
        theta2 += TWO_PI
    theta2 = theta1 + min(theta2 - theta1, np.pi * (1 - 1e-12))
    return sector_cone(theta1, theta2, pair)


def direction_count(resolution: float) -> int:
    """The number n of directions a 3-D cone samples at an angular resolution;
    their spacing is sqrt(4 pi / n), which stops shrinking at n = 4096."""
    return int(np.clip(4.0 * np.pi / resolution**2, 256, 4096))


def _admissible_cone_nd(pair: ShockPair, resolution: float) -> AdmissibleCone:
    if pair.d != 3:
        raise NotImplementedError("direction sampling implemented for d in {2, 3}")
    dirs = _fibonacci_sphere(direction_count(resolution))
    mask = oleinik_admissible_many(pair, dirs).admissible
    if not mask.any():
        return AdmissibleCone(3, pair, trivial=True)
    adm = dirs[mask]
    gens, dual_gens = _cone_rays(adm)
    return AdmissibleCone(3, pair, directions=adm, generators=gens, dual_generators=dual_gens)


def _interior_direction(generators: np.ndarray) -> np.ndarray:
    """Among 4,096 probes of S^2 and the rays, the direction maximizing the worst inner product."""
    probes = np.vstack([_fibonacci_sphere(4096), generators])
    probes = probes / np.linalg.norm(probes, axis=1, keepdims=True)
    score = (probes @ generators.T).min(axis=1)
    return probes[int(np.argmax(score))]


@dataclass(frozen=True, eq=False)
class DualCone:
    """Dual cone with its frame and gauge.

    generators: unit extreme rays of the dual cone.
    W: unit interior axis; lam: unit supporting direction in the primal cone.
    H: (d, d-1) orthonormal basis of the complement of W; `frame` maps world
    points to (r, y).
    facet_slopes: rows c_i with gauge(y) = max_i c_i . y; one row per primal
    generator xi, c_i = -(H^T xi)/(xi . W).
    """

    d: int
    generators: np.ndarray
    W: np.ndarray
    lam: np.ndarray
    H: np.ndarray
    facet_slopes: np.ndarray
    primal_generators: np.ndarray
    degenerate: bool = False

    def frame(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(r, y) = (x . W, x H) of world points x, shape (..., d); y has the
        shape `gauge` and the front functions take, (...) for d = 2."""
        x = np.asarray(x, dtype=float)
        y = x @ self.H
        return x @ self.W, (y[..., 0] if self.d == 2 else y)

    @property
    def grid_axis(self) -> tuple[int, float] | None:
        """(axis, sign) if W is sign times a grid axis to within 1e-12, else None."""
        axis = int(np.argmax(np.abs(self.W)))
        if abs(abs(self.W[axis]) - 1.0) > 1e-12:
            return None
        return axis, float(np.sign(self.W[axis]))

    def gauge(self, y) -> np.ndarray:
        """gauge(y) = min { r : y + r W in dual cone } = max over facets of c_i . y."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0 or (y.ndim == 1 and self.d > 2 and y.shape[0] == self.d - 1)
        if self.d == 2:
            vals = np.multiply.outer(y, self.facet_slopes[:, 0]).max(axis=-1)
            return float(vals) if np.ndim(y) == 0 else vals
        y2 = np.atleast_2d(y)
        vals = (y2 @ self.facet_slopes.T).max(axis=-1)
        return float(vals[0]) if scalar else vals.reshape(y.shape[:-1])

    def same_frame(self, other: "DualCone") -> bool:
        return (
            self.d == other.d
            and np.max(np.abs(self.W - other.W)) <= 1e-9
            and np.max(np.abs(self.H - other.H)) <= 1e-9
        )


def _complement_basis(w: np.ndarray) -> np.ndarray:
    d = len(w)
    if d == 2:
        return np.array([[-w[1]], [w[0]]])
    q, _ = np.linalg.qr(np.column_stack([w, np.eye(d)[:, : d - 1]]))
    basis = q[:, 1:]
    # fix signs for determinism
    for j in range(basis.shape[1]):
        k = int(np.argmax(np.abs(basis[:, j])))
        if basis[k, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis


def _frame(dual_gens: np.ndarray, primal_gens: np.ndarray, lam: np.ndarray,
           degenerate: bool = False, w: np.ndarray | None = None) -> DualCone:
    d = dual_gens.shape[1]
    if w is None:
        w = dual_gens.sum(axis=0)
        norm = np.linalg.norm(w)
        if norm == 0:
            raise TrivialCone("dual generators cancel; no interior axis")
        w = w / norm
    wg = primal_gens @ w
    if not degenerate and np.any(wg <= -1e-9):
        raise TrivialCone("axis candidate is not interior to the dual cone")
    basis = _complement_basis(w)
    denom = np.where(np.abs(wg) <= 1e-12, 1.0, wg)
    slopes = -(primal_gens @ basis) / denom[:, None]
    return DualCone(d, dual_gens, w, lam, basis, slopes, primal_gens, degenerate)


def dual_cone(cone: AdmissibleCone) -> DualCone:
    """Dual of the admissibility cone, with frame and gauge attached."""
    if cone.trivial:
        raise TrivialCone("admissible cone is {0}")
    if cone.degenerate_ray:
        # dual of a single ray is the halfspace {n . lam >= 0}; the only
        # canonical axis is lam itself (flagged: no interior theory here)
        t1 = cone.sector[0]
        lam = _unit(t1)
        gens = np.stack([_unit(t1 - np.pi / 2), _unit(t1 + np.pi / 2)])
        return _frame(gens, lam[None, :], lam, degenerate=True, w=lam)
    if cone.d == 2:
        t1, t2 = cone.sector
        lam = _unit(0.5 * (t1 + t2))  # Chebyshev pick: bisector maximizes the margin
    else:
        lam = _interior_direction(cone.dual_generators)  # in (A dual) dual = primal hull
    return _frame(cone.dual_generators, cone.generators, lam)


def dual_cone_from_flux(pair: ShockPair) -> DualCone:
    """Dual cone spanned directly by the chords f_bar - F(s), s in [u_plus, u_minus],
    at 512 Chebyshev nodes."""
    # Chebyshev nodes: the chord vectors vanish at the end states, so the
    # extreme directions are only reached in the limit; quadratic clustering
    # keeps the angular truncation error at O(1/n^2).  F(s) is stacked into
    # C-contiguous (n, d) rows: the summation order of the mean chord
    # direction below depends on the layout.
    s = pair.chebyshev_nodes(512)
    vecs = pair.f_bar[None, :] - np.stack(pair.reduced.value(s), axis=1)
    norms = np.linalg.norm(vecs, axis=1)
    scale = float(norms.max())
    if scale <= 0:
        raise TrivialCone("all chord vectors vanish; degenerate data")
    vecs = vecs[norms > 1e-13 * scale]
    if pair.d == 2:
        ang = np.arctan2(vecs[:, 1], vecs[:, 0])
        mean_vec = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).sum(axis=0)
        phi0 = np.arctan2(mean_vec[1], mean_vec[0])
        rel = _wrap(ang - phi0)
        lo, hi = phi0 + rel.min(), phi0 + rel.max()
        if hi - lo >= np.pi:
            raise TrivialCone("chord directions span a halfplane or more")
        dual_gens = np.stack([_unit(lo), _unit(hi)])
        # primal cone = dual of the span: sector [hi - pi/2, lo + pi/2]
        p1, p2 = hi - np.pi / 2, lo + np.pi / 2
        primal = np.stack([_unit(p1), _unit(p2)])
        lam = _unit(0.5 * (p1 + p2))
        return _frame(dual_gens, primal, lam)
    gens, primal = _cone_rays(vecs)
    return _frame(gens, primal, _interior_direction(gens))


def cone_contains(cone: AdmissibleCone, nu) -> bool:
    """Membership of a direction in the closed cone: no unit dual generator
    has a negative inner product with unit nu (False when that is NaN).  The
    arcsine of the least one is nu's angle to the nearest facet plane."""
    if cone.trivial:
        return False
    nu = np.asarray(nu, dtype=float)
    return float((cone.dual_generators @ (nu / np.linalg.norm(nu))).min()) >= 0
