"""Polynomial fluxes, shock kinematics, and the Burgers frame normalization.

A flux is a smooth map R -> R^d; restricting to polynomial components keeps
derivatives, chord slopes, and the reduced flux exact, and makes the
non-degeneracy test decidable by linear algebra on the coefficient matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import EqualStates, NotBurgers, WrongOrder

__all__ = [
    "Flux",
    "ShockPair",
    "Normalization",
    "OleinikResult",
    "NondegeneracyResult",
    "burgers_flux",
    "eval_flux",
    "critical_points",
    "poly_abs_max",
    "make_shock_pair",
    "normal_speed",
    "oleinik_admissible",
    "check_nondegeneracy",
    "burgers_normalization",
]


@dataclass(frozen=True)
class Flux:
    """Flux with one polynomial per spatial component, coefficients ascending."""

    coeffs: tuple[tuple[float, ...], ...]
    label: str = ""

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

    def component(self, axis: int, order: int = 0) -> np.ndarray:
        """Coefficient array of the axis-th component, differentiated `order` times."""
        c = np.asarray(self.coeffs[axis], dtype=float)
        return P.polyder(c, order) if order > 0 else c

    def value(self, s, order: int = 0) -> np.ndarray:
        """Evaluate f, f', or f'' at s; scalar s gives shape (d,), arrays give (d, ...)."""
        return np.array([P.polyval(s, self.component(i, order)) for i in range(self.d)])


def burgers_flux(d: int) -> Flux:
    """Multi-D Burgers flux: component i is s^(i+1) for i = 1..d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return Flux(tuple((0.0,) * (i + 1) + (1.0,) for i in range(1, d + 1)), label=f"burgers{d}d")


def is_burgers(flux: Flux) -> bool:
    return flux.coeffs == burgers_flux(flux.d).coeffs


def eval_flux(flux: Flux, s, order: int = 0) -> np.ndarray:
    """f(s), f'(s) or f''(s) by exact polynomial evaluation."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    return flux.value(s, order)


def critical_points(coeffs) -> np.ndarray:
    """Sorted real roots of p' for p with ascending coefficients (read-only)."""
    # keyed by the bytes: -0.0 and 0.0 compare and hash equal but can give
    # roots of different sign
    return _critical_points(np.asarray(coeffs, dtype=float).tobytes())


@lru_cache(maxsize=256)
def _critical_points(key: bytes) -> np.ndarray:
    dc = np.trim_zeros(P.polyder(np.frombuffer(key)), "b")
    r = P.polyroots(dc) if len(dc) > 1 else np.empty(0, dtype=complex)
    r = np.sort(r[np.abs(r.imag) < 1e-9].real)
    r.flags.writeable = False
    return r


def poly_abs_max(coeffs, lo, hi):
    """Exact max of |p| over [lo, hi] via the critical points of p; elementwise for arrays."""
    c = np.asarray(coeffs, dtype=float)
    cand = np.maximum(np.abs(P.polyval(lo, c)), np.abs(P.polyval(hi, c)))
    for r in critical_points(c):
        inside = (lo <= r) & (r <= hi)
        if np.any(inside):
            cand = np.where(inside, np.maximum(cand, abs(float(P.polyval(r, c)))), cand)
    return cand


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


def make_shock_pair(flux: Flux, u_minus: float, u_plus: float) -> ShockPair:
    """Build a ShockPair; rejects equal or wrongly ordered states."""
    u_minus = float(u_minus)
    u_plus = float(u_plus)
    if u_minus == u_plus:
        raise EqualStates(f"end states coincide: {u_minus}")
    if u_plus > u_minus:
        raise WrongOrder(f"need u_plus < u_minus, got ({u_minus}, {u_plus})")
    v = (flux.value(u_plus) - flux.value(u_minus)) / (u_plus - u_minus)
    red = []
    for i in range(flux.d):
        c = list(flux.coeffs[i])
        while len(c) < 2:
            c.append(0.0)
        c[1] -= v[i]
        red.append(tuple(c))
    reduced = Flux(tuple(red), label=flux.label + ":reduced" if flux.label else "reduced")
    f_bar = reduced.value(u_minus)
    mismatch = np.max(np.abs(reduced.value(u_plus) - f_bar))
    scale = max(1.0, float(np.max(np.abs(f_bar))))
    if mismatch > 1e-12 * scale:
        raise ValueError(f"reduced flux end values differ by {mismatch} (scale {scale})")
    return ShockPair(flux, u_minus, u_plus, v, reduced, f_bar)


def normal_speed(pair: ShockPair, xi) -> float:
    """Rankine-Hugoniot normal velocity xi . v, extended to arbitrary xi."""
    return float(np.dot(np.asarray(xi, dtype=float), pair.velocity))


@dataclass(frozen=True)
class OleinikResult:
    admissible: bool
    worst_violation: float
    lax_margins: tuple[float, float]


def _excess_coeffs(pair: ShockPair, xi: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients of s -> xi.f(s) - sigma*s and the common end value."""
    sigma = normal_speed(pair, xi)
    n = max(len(c) for c in pair.flux.coeffs)
    e = np.zeros(max(n, 2))
    for i in range(pair.d):
        c = pair.flux.coeffs[i]
        e[: len(c)] += xi[i] * np.asarray(c)
    e[1] -= sigma
    ref = float(P.polyval(pair.u_minus, e))
    return e, ref


def oleinik_admissible(
    pair: ShockPair,
    xi,
    n_samples: int = 1024,
    tol: float | None = None,
    exact: bool = False,
) -> OleinikResult:
    """Chord admissibility of direction xi.

    Checks xi.f(s) - sigma*s <= xi.f(u_pm) - sigma*u_pm on (u_plus, u_minus) at
    Chebyshev-distributed sample points, or exactly via the critical points of
    the excess polynomial when exact=True.  Also returns the endpoint
    characteristic margins (sigma - xi.f'(u_plus), xi.f'(u_minus) - sigma),
    which are nonnegative whenever the chord condition holds.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    xi = np.asarray(xi, dtype=float)
    e, ref = _excess_coeffs(pair, xi)
    mid = 0.5 * (pair.u_minus + pair.u_plus)
    half = 0.5 * (pair.u_minus - pair.u_plus)
    if exact:
        crit = P.polyroots(P.polyder(e))
        crit = crit[np.abs(crit.imag) < 1e-10].real
        crit = crit[(crit > pair.u_plus) & (crit < pair.u_minus)]
        pts = np.concatenate([crit, [pair.u_plus, pair.u_minus]])
    else:
        k = np.arange(n_samples)
        pts = mid + half * np.cos((2 * k + 1) * np.pi / (2 * n_samples))
    excess = P.polyval(pts, e) - ref
    worst = float(max(np.max(excess), 0.0))
    if tol is None:
        scale = max(1.0, abs(ref), float(np.max(np.abs(P.polyval(pts, e)))))
        # exact critical-point evaluation carries only rounding noise, so the
        # slack can sit just above machine precision
        tol = (1e-14 if exact else 1e-12) * scale
    sigma = normal_speed(pair, xi)
    lax = (
        float(sigma - np.dot(xi, pair.flux.value(pair.u_plus, 1))),
        float(np.dot(xi, pair.flux.value(pair.u_minus, 1)) - sigma),
    )
    return OleinikResult(bool(worst <= tol), worst, lax)


@dataclass(frozen=True)
class NondegeneracyResult:
    passed: bool
    failures: tuple[tuple[float, tuple[float, ...]], ...]


def check_nondegeneracy(flux: Flux, n_directions: int = 64) -> NondegeneracyResult:
    """Certify that tau + f'(s).xi is never the zero polynomial for (tau, xi) != 0.

    A symbolic pass asks whether any real xi annihilates every non-constant
    coefficient of f'; the coefficient matrix has full column rank exactly when
    no such xi exists.  Sampled unit directions provide the spot check the
    symbolic pass certifies.
    """
    if n_directions < 1:
        raise ValueError("n_directions must be >= 1")
    d = flux.d
    ncols = max(len(flux.component(i, 1)) for i in range(d))
    mat = np.zeros((d, ncols))
    for i in range(d):
        c = flux.component(i, 1)
        mat[i, : len(c)] = c
    failures: list[tuple[float, tuple[float, ...]]] = []
    higher = mat[:, 1:]
    if higher.size == 0:
        higher = np.zeros((d, 1))
    # xi annihilates all non-constant coefficients iff xi is in the kernel of higher^T
    _, sv, vh = np.linalg.svd(higher.T, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0)))
    if rank < d:
        xi = vh[-1]
        tau = -float(np.dot(xi, mat[:, 0]))
        vec = np.concatenate([[tau], xi])
        vec = vec / np.linalg.norm(vec)
        failures.append((float(vec[0]), tuple(float(x) for x in vec[1:])))
    rng = np.random.default_rng(0)
    scale = max(1.0, float(np.max(np.abs(mat))))
    for _ in range(n_directions):
        v = rng.normal(size=1 + d)
        v /= np.linalg.norm(v)
        coeffs = v[1:] @ mat
        coeffs[0] += v[0]
        if np.max(np.abs(coeffs)) <= 1e-14 * scale:
            failures.append((float(v[0]), tuple(float(x) for x in v[1:])))
    return NondegeneracyResult(len(failures) == 0, tuple(failures))


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


def burgers_normalization(u_ref: float, d: int | None = None, flux: Flux | None = None) -> Normalization:
    """Frame normalization (M, Z) for the multi-D Burgers flux at state u_ref.

    M[j, i] = binom(j+2, i+2) * u_ref^(j-i) for i <= j (0-based; unit diagonal),
    Z[j] = (j+2) * u_ref^(j+1).
    """
    if flux is not None:
        if not is_burgers(flux):
            raise NotBurgers(f"normalization requires the Burgers flux, got {flux.coeffs}")
        d = flux.d
    if d is None:
        raise ValueError("pass either d or flux")
    u_ref = float(u_ref)
    m = np.zeros((d, d))
    for j in range(d):
        for i in range(j + 1):
            m[j, i] = comb(j + 2, i + 2) * u_ref ** (j - i)
    z = np.array([(j + 2) * u_ref ** (j + 1) for j in range(d)])
    return Normalization(m, z, u_ref)
