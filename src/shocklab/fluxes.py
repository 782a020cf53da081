"""Polynomial fluxes, shock kinematics, and the Burgers frame normalization.

A flux is a smooth map R -> R^d; restricting to polynomial components keeps
derivatives, chord slopes, and the reduced flux exact, and makes the
non-degeneracy test decidable by linear algebra on the coefficient matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DegenerateFlux, EqualStates, WrongOrder

__all__ = [
    "Flux",
    "ShockPair",
    "Normalization",
    "OleinikResult",
    "OleinikBatch",
    "NondegeneracyResult",
    "burgers_flux",
    "critical_points",
    "component_abs_max",
    "make_shock_pair",
    "oleinik_admissible",
    "oleinik_admissible_many",
    "check_nondegeneracy",
    "burgers_normalization",
]


@dataclass(frozen=True)
class Flux:
    """Flux with one polynomial per spatial component, coefficients ascending."""

    coeffs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("flux needs at least one component")
        clean = []
        for c in self.coeffs:
            c = tuple(float(x) for x in c)
            if len(c) == 0:
                raise ValueError("every component needs at least one coefficient")
            clean.append(c)
        object.__setattr__(self, "coeffs", tuple(clean))

    @property
    def d(self) -> int:
        return len(self.coeffs)

    @cached_property
    def keys(self) -> tuple[bytes, ...]:
        """The cache key of each component (see `_key`), made once per flux."""
        return tuple(_key(c) for c in self.coeffs)

    def component(self, axis: int, order: int = 0) -> np.ndarray:
        """Coefficient array of the axis-th component, differentiated `order` times."""
        c = np.asarray(self.coeffs[axis], dtype=float)
        return P.polyder(c, order) if order > 0 else c

    def padded(self, order: int = 0) -> np.ndarray:
        """The coefficients of every f_i^(order) (`component`), one row each,
        padded with zeros to one width of at least 2 columns."""
        rows = [self.component(i, order) for i in range(self.d)]
        out = np.zeros((self.d, max(2, *map(len, rows))))
        for row, c in zip(out, rows):
            row[: len(c)] = c
        return out

    def value(self, s, order: int = 0) -> np.ndarray:
        """Evaluate f, f', or f'' at s; scalar s gives shape (d,), arrays give (d, ...)."""
        return np.array([P.polyval(s, self.component(i, order)) for i in range(self.d)])


def burgers_flux(d: int) -> Flux:
    """Multi-D Burgers flux: component i is s^(i+1) for i = 1..d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return Flux(tuple((0.0,) * (i + 1) + (1.0,) for i in range(1, d + 1)))


def is_burgers(flux: Flux) -> bool:
    return flux.coeffs == burgers_flux(flux.d).coeffs


def _key(coeffs) -> bytes:
    # the cache key of a coefficient sequence: -0.0 and 0.0 compare and hash
    # equal, so a tuple key would let one answer for the other
    return np.asarray(coeffs, dtype=float).tobytes()


def critical_points(coeffs) -> np.ndarray:
    """Sorted real roots of p' for p with ascending coefficients (read-only):
    `_derivative_roots` of the one row p, cached.

    Raises DegenerateFlux when p' or its roots overflow: the companion matrix
    of p' divides by its leading coefficient, so a tiny one makes it infinite.
    """
    return _critical_points(_key(coeffs))


@lru_cache(maxsize=256)
def _critical_points(key: bytes) -> np.ndarray:
    roots, counts = _derivative_roots(np.frombuffer(key)[None])
    r = roots[0, : counts[0]]
    r.flags.writeable = False
    return r


def _derivative_roots(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted real roots of p' for every row p of ascending coefficients,
    shape (m, n): an (m, k) array whose row i holds its counts[i] roots
    first and NaN after them, and the counts.

    Every row gets the floating-point operations of `P.polyroots(P.polyder(p))`
    on p alone.  `P.polyder` runs on the whole array; each row is trimmed of
    trailing zeros as polyroots trims it, and the rows of one trimmed length
    stack their companion matrices into one `np.linalg.eigvals` call, which
    runs LAPACK's geev on each matrix as on that matrix alone.  A row's
    eigenvalues are sorted as reals when all of them are real (eigvals then
    returns reals for that matrix alone), as complex numbers otherwise, and
    the real ones among them are sorted again; a 2-D `np.sort` sorts each row
    as it sorts that row alone.

    Raises DegenerateFlux for the first row whose derivative or roots
    overflow, as a loop over the rows would.
    """
    dc = P.polyder(rows, axis=1)
    finite = np.isfinite(dc).all(axis=1)
    # the lengths polyroots trims the rows to, at least 1
    nonzero = dc != 0
    length = np.where(nonzero.any(axis=1), dc.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 1)
    roots = np.full((len(dc), max(int(length.max(initial=1)) - 1, 0)), np.nan)
    counts = np.zeros(len(dc), dtype=int)
    failed = np.flatnonzero(~finite).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        # sets, not np.unique, whose first call imports numpy.ma (2.7 MiB, 25 ms)
        for n in sorted(set(length[finite & (length > 1)].tolist())):
            idx = np.flatnonzero(finite & (length == n))
            c = dc[idx, :n]
            if n == 2:
                roots[idx, 0] = -c[:, 0] / c[:, 1]
                counts[idx] = 1
                continue
            # `P.polycompanion` of each row: ones below the diagonal, and the
            # last column 0 - c[:-1] / c[-1]
            mats = np.zeros((len(idx), n - 1, n - 1))
            mats[:, np.arange(1, n - 1), np.arange(n - 2)] = 1.0
            mats[:, :, -1] -= c[:, :-1] / c[:, -1:]
            try:
                w = np.linalg.eigvals(mats)
            except np.linalg.LinAlgError:
                # a matrix overflowed or did not converge: find which, one by one
                for i, mat in zip(idx, mats):
                    try:
                        np.linalg.eigvals(mat)
                    except np.linalg.LinAlgError:
                        failed.append(i)
                continue
            real = np.all(w.imag == 0, axis=1)
            roots[idx[real], : n - 1] = np.sort(np.sort(w.real[real], axis=1), axis=1)
            counts[idx[real]] = n - 1
            cplx = np.sort(w[~real], axis=1)
            keep = np.abs(cplx.imag) < 1e-9
            kept = keep.sum(axis=1)
            for k in set(kept.tolist()):
                sel = kept == k
                vals = cplx.real[sel][keep[sel]].reshape(np.count_nonzero(sel), k)
                roots[idx[~real][sel], :k] = np.sort(vals, axis=1)
                counts[idx[~real][sel]] = k
    if failed:
        first = min(failed)
        if not finite[first]:
            raise DegenerateFlux(f"the derivative {dc[first].tolist()} overflows: "
                                 "a coefficient is too large")
        raise DegenerateFlux(f"the roots of the derivative {dc[first].tolist()} overflow: "
                             "its leading coefficient is too small")
    return roots, counts


def _extremal_values(rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The values of every row p of ascending coefficients, shape (m, n), at
    its critical points inside (lo, hi) in order, hi in the columns after
    them (a candidate pads ragged sets), and lo and hi last: shape (m, k + 2).

    One `_derivative_roots` call gives each row the roots that
    `critical_points` gives it, and each value is P.polyval's; zeros that pad
    a row past its degree change only the sign of a zero value.
    """
    roots, _ = _derivative_roots(rows)
    inside = (roots > lo) & (roots < hi)  # NaN pads fail
    n_in = inside.sum(axis=1)
    pts = np.full((len(rows), n_in.max(initial=0) + 2), float(hi))
    pts[np.arange(pts.shape[1]) < n_in[:, None]] = roots[inside]
    pts[:, -2] = lo
    return P.polyval(pts, rows.T[..., None], tensor=False)


def component_abs_max(flux: Flux, order: int, lo: float, hi: float) -> np.ndarray:
    """Exact max |f_i^(order)| over [lo, hi] of every component i, shape (d,)."""
    return np.max(np.abs(_extremal_values(flux.padded(order), lo, hi)), axis=1)


@dataclass(frozen=True)
class ShockPair:
    """Ordered end states u_plus < u_minus with jump velocity and reduced flux.

    The reduced flux F(s) = f(s) - s*v is stored with exact coefficients, so
    F(u_minus) = F(u_plus) = f_bar up to rounding in the chord slope itself.
    """

    flux: Flux
    u_minus: float
    u_plus: float
    velocity: np.ndarray
    reduced: Flux
    f_bar: np.ndarray

    @property
    def d(self) -> int:
        return self.flux.d

    @property
    def jump(self) -> float:
        return self.u_minus - self.u_plus

    @cached_property
    def end_speeds(self) -> tuple[np.ndarray, np.ndarray]:
        """The characteristic speeds f'(u_plus) and f'(u_minus), shape (d,)
        each (read-only)."""
        speeds = self.flux.value(self.u_plus, 1), self.flux.value(self.u_minus, 1)
        for s in speeds:
            s.flags.writeable = False
        return speeds

    def chebyshev_nodes(self, n: int) -> np.ndarray:
        """The n Chebyshev nodes on (u_plus, u_minus), clustered toward both ends."""
        mid = 0.5 * (self.u_minus + self.u_plus)
        half = 0.5 * (self.u_minus - self.u_plus)
        k = np.arange(n)
        return mid + half * np.cos((2 * k + 1) * np.pi / (2 * n))


def make_shock_pair(flux: Flux, u_minus: float, u_plus: float) -> ShockPair:
    """Build a ShockPair; rejects equal or wrongly ordered states, and states
    whose reduced flux values differ or are not finite (overflow)."""
    u_minus = float(u_minus)
    u_plus = float(u_plus)
    if u_minus == u_plus:
        raise EqualStates(f"end states coincide: {u_minus}")
    if u_plus > u_minus:
        raise WrongOrder(f"need u_plus < u_minus, got ({u_minus}, {u_plus})")
    v = (flux.value(u_plus) - flux.value(u_minus)) / (u_plus - u_minus)
    red = [list(c) + [0.0] * (2 - len(c)) for c in flux.coeffs]
    for c, v_i in zip(red, v):
        c[1] -= v_i
    reduced = Flux(tuple(map(tuple, red)))
    f_bar = reduced.value(u_minus)
    mismatch = np.max(np.abs(reduced.value(u_plus) - f_bar))
    scale = max(1.0, float(np.max(np.abs(f_bar))))
    if not mismatch <= 1e-12 * scale:  # NaN when a flux value overflowed
        raise ValueError(f"reduced flux end values differ by {mismatch} (scale {scale})")
    return ShockPair(flux, u_minus, u_plus, v, reduced, f_bar)


@dataclass(frozen=True)
class OleinikResult:
    admissible: bool
    worst_violation: float
    lax_margins: tuple[float, float]


@dataclass(frozen=True)
class OleinikBatch:
    """Per-direction results of `oleinik_admissible_many`, one row per direction."""

    admissible: np.ndarray   # (n,) bool
    worst: np.ndarray        # (n,) largest chord excess, clipped below at 0
    lax: np.ndarray          # (n, 2) endpoint characteristic margins


def oleinik_admissible_many(pair: ShockPair, xis) -> OleinikBatch:
    """Chord admissibility of every row of xis, shape (n, d).

    Checks xi.f(s) - sigma*s <= xi.f(u_pm) - sigma*u_pm on (u_plus, u_minus)
    exactly, at the critical points of the excess polynomial and the end
    states (`_extremal_values`), up to a slack of 1e-14 times max(1,
    |xi.f(u_pm) - sigma*u_pm|, the largest |excess polynomial| at those
    points).  Also returns the endpoint characteristic margins (sigma -
    xi.f'(u_plus), xi.f'(u_minus) - sigma), nonnegative whenever the chord
    condition holds.

    Every row gets the same floating-point operations as a test of that row
    alone: `np.vecdot` is `np.dot` per row; the stacked companion matrices
    of `_derivative_roots` share one `np.linalg.eigvals` call per degree and
    give each row the roots that `critical_points` gives it; and f'(u_pm)
    are the pair's cached `end_speeds`.  e sums each component's own slice
    of coefficients, as a zero that pads a component times an overflowed
    direction would be NaN.
    """
    xis = np.asarray(xis, dtype=float)
    if xis.ndim != 2 or xis.shape[1] != pair.d:
        raise ValueError(f"directions must have shape (n, {pair.d}), got {xis.shape}")
    sigma = np.vecdot(xis, pair.velocity)
    # coefficients of s -> xi.f(s) - sigma*s and the common end value
    e = np.zeros((len(xis), pair.flux.padded().shape[1]))
    for i, c in enumerate(pair.flux.coeffs):
        e[:, : len(c)] += xis[:, i : i + 1] * np.asarray(c)
    e[:, 1] -= sigma
    vals = _extremal_values(e, pair.u_plus, pair.u_minus)
    ref = vals[:, -1]
    worst = np.maximum(np.max(vals - ref[:, None], axis=1), 0.0)
    peak = np.max(np.abs(vals), axis=1)
    # max(1, |ref|, peak), ignoring NaN like the builtin max does here; exact
    # critical-point evaluation carries only rounding noise, so the slack can
    # sit just above machine precision
    tol = 1e-14 * np.fmax(np.fmax(1.0, np.abs(ref)), peak)
    speed_plus, speed_minus = pair.end_speeds
    lax = np.stack([sigma - np.vecdot(xis, speed_plus),
                    np.vecdot(xis, speed_minus) - sigma], axis=1)
    return OleinikBatch(worst <= tol, worst, lax)


def oleinik_admissible(pair: ShockPair, xi) -> OleinikResult:
    """Chord admissibility of one direction xi; see `oleinik_admissible_many`."""
    res = oleinik_admissible_many(pair, np.asarray(xi, dtype=float).reshape(1, -1))
    return OleinikResult(bool(res.admissible[0]), float(res.worst[0]),
                         (float(res.lax[0, 0]), float(res.lax[0, 1])))


@dataclass(frozen=True)
class NondegeneracyResult:
    passed: bool
    failures: tuple[tuple[float, tuple[float, ...]], ...]


def check_nondegeneracy(flux: Flux) -> NondegeneracyResult:
    """Certify that tau + f'(s).xi is never the zero polynomial for (tau, xi) != 0.

    It asks whether any real xi annihilates every non-constant coefficient of
    f': with each component scaled to unit max, the coefficient matrix must
    have full column rank, every singular value above 1e-12 times the
    largest.  So a failure means that the flux is within a relative 1e-12 of
    a degenerate flux (each component scaled to unit max), which it need not
    be itself, and reports the unit (tau, xi) at which tau + f'(s).xi is
    the zero polynomial for that degenerate flux: the singular direction of
    the least singular value.
    """
    d = flux.d
    mat = flux.padded(1)
    higher = mat[:, 1:]
    # xi annihilates all non-constant coefficients iff xi is in the kernel of
    # higher^T; rows of unit max make the rank blind to each component's
    # scale, as the question is (xi_i -> xi_i / c for f_i -> c f_i)
    size = np.abs(higher).max(axis=1)
    size[size == 0] = 1.0
    _, sv, vh = np.linalg.svd((higher / size[:, None]).T, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * sv[0]))
    if rank == d:
        return NondegeneracyResult(True, ())
    xi = vh[-1] / size
    tau = -float(np.dot(xi, mat[:, 0]))
    vec = np.concatenate([[tau], xi])
    vec = vec / np.abs(vec).max()  # no overflow in the norm
    vec = vec / np.linalg.norm(vec)
    return NondegeneracyResult(False, ((float(vec[0]), tuple(float(x) for x in vec[1:])),))


@dataclass(frozen=True)
class Normalization:
    """Unit lower-triangular frame change absorbing a constant reference state.

    For the multi-D Burgers flux, v(t, x) = u(t, M x + t Z) - u_ref solves the
    same equation whenever u does.  The matrix and shift come from matching the
    binomial expansion of the flux components around u_ref; the construction is
    certified by the finite-difference residual study in the experiments module.
    """

    matrix: np.ndarray
    shift: np.ndarray
    u_ref: float

    @property
    def d(self) -> int:
        return len(self.shift)

    def map_point(self, t, x) -> np.ndarray:
        """Image M x + t Z of a point (array shape (..., d))."""
        x = np.asarray(x, dtype=float)
        return x @ self.matrix.T + np.multiply.outer(np.asarray(t, dtype=float), self.shift)

    def transform(self, u_callable):
        """Wrap a solution u(t, x) into the transformed field v(t, x)."""

        def v(t, x):
            return u_callable(t, self.map_point(t, x)) - self.u_ref

        return v


def burgers_normalization(u_ref: float, d: int) -> Normalization:
    """Frame normalization (M, Z) for the multi-D Burgers flux at state u_ref.

    M[j, i] = binom(j+2, i+2) * u_ref^(j-i) for i <= j (0-based; unit diagonal),
    Z[j] = (j+2) * u_ref^(j+1).
    """
    u_ref = float(u_ref)
    m = np.zeros((d, d))
    for j in range(d):
        for i in range(j + 1):
            m[j, i] = comb(j + 2, i + 2) * u_ref ** (j - i)
    z = np.array([(j + 2) * u_ref ** (j + 1) for j in range(d)])
    return Normalization(m, z, u_ref)
