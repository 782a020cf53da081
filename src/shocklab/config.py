"""Flat `section.key = value` run configuration: parsing, validation, builders.

The format is line-oriented and greppable: one assignment per line, `#`
comments, no nesting.  Unknown keys are hard errors so a typo can never fall
back to a silent default, and so is a key the command does not read (see
`cli.COMMANDS`) or the chosen profile.front or perturbation.shape does not
read (see `VARIANTS`), so that no key is set to no effect.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .cones import admissible_cone, dual_cone
from .errors import ConfigError, DegenerateFlux, ShockLabError
from .fluxes import (Flux, burgers_flux, check_nondegeneracy, critical_points,
                     make_shock_pair)
from .profiles import PerturbationSpec, ShockProfile, make_graph, make_planar, make_scaled_gauge
from .solver import Grid, SchemeConfig, stable_dt, wave_speed

__all__ = ["RunConfig", "parse_config", "emit_config", "tokenize", "validate"]


def _finite(s: str) -> float:
    x = float(s)
    if not np.isfinite(x):
        raise ValueError(f"must be finite, got {x!r}")
    return x


def _positive(s: str) -> float:
    x = _finite(s)
    if not x > 0:
        raise ValueError(f"must be positive, got {x!r}")
    return x


def _nonnegative(s: str) -> float:
    x = _finite(s)
    if not x >= 0:
        raise ValueError(f"must be at least 0, got {x!r}")
    return x


# the work ceiling of a run: cells of its grid, and steps of one time loop
MAX_CELLS = 1 << 24
MAX_STEPS = 1_000_000


def _count(s: str) -> int:
    """A number of steps."""
    n = int(s)
    if not 1 <= n <= MAX_STEPS:
        raise ValueError(f"must be at least 1 and at most {MAX_STEPS}, got {n}")
    return n


def _dimension(s: str) -> int:
    """flux.burgers_d: every grid and cone is built for 2 or 3 dimensions."""
    d = int(s)
    if d not in (2, 3):
        raise ValueError(f"must be 2 or 3, got {d}")
    return d


def _fraction(s: str) -> float:
    x = _positive(s)
    if not x < 1:
        raise ValueError(f"must be less than 1, got {x!r}")
    return x


def _path(s: str) -> str:
    if not s:
        raise ValueError("expected a file path")
    return s


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(_finite(x) for x in s.split(","))


def _parse_direction(s: str) -> tuple[float, ...]:
    v = _parse_floats(s)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if not (norm > 0 and np.isfinite(norm)):
        raise ValueError(f"expected a vector of positive, finite length, got {v}")
    return v


def _parse_counts(s: str) -> tuple[int, ...]:
    counts = tuple(int(x) for x in s.split(","))
    if len(counts) not in (2, 3) or min(counts) < 4:
        raise ValueError(f"expected 2 or 3 counts of at least 4 cells each, got {counts}")
    if math.prod(counts) > MAX_CELLS:
        raise ValueError(f"{counts} is {math.prod(counts)} cells, more than {MAX_CELLS}")
    return counts


def _parse_box(s: str) -> tuple[float, ...]:
    box = _parse_floats(s)
    extents = [hi - lo for lo, hi in zip(box[::2], box[1::2])]
    if len(box) not in (4, 6) or not all(0 < e < math.inf for e in extents):
        raise ValueError(f"expected lo,hi of positive, finite extent, 2 entries per axis, "
                         f"got {box}")
    return box


def _parse_terms(s: str) -> tuple[tuple[str, tuple[float, ...]], ...]:
    """`shape:c_1,...,c_d,radius,amplitude` terms separated by `;`."""
    terms = []
    for part in s.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, rest = part.partition(":")
        kind = kind.strip()
        if kind not in ("bump", "indicator"):
            raise ValueError(f"term {part!r}: shape must be bump or indicator, got {kind!r}")
        try:
            nums = _parse_floats(rest)
        except ValueError:
            raise ValueError(f"term {part!r}: expected finite numbers after the shape") from None
        if len(nums) < 3:
            raise ValueError(f"term {part!r}: expected a center, a radius and an amplitude")
        if not nums[-2] > 0:
            raise ValueError(f"term {part!r}: radius must be positive")
        terms.append((kind, nums))
    if not terms:
        raise ValueError("expected at least one term")
    return tuple(terms)


def _parse_poly(s: str) -> tuple[tuple[float, ...], ...]:
    val = ast.literal_eval(s)
    if not (isinstance(val, (list, tuple)) and val and all(
            isinstance(comp, (list, tuple)) and comp
            and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in comp)
            for comp in val)):
        raise ValueError("expected a list of non-empty lists of numbers")
    coeffs = tuple(tuple(float(c) for c in comp) for comp in val)
    if not np.all(np.isfinite(np.concatenate(coeffs))):
        raise ValueError(f"coefficients must be finite, got {list(map(list, coeffs))}")
    # the program roots f_i' (`critical_points` of f_i) and f_i'' (of f_i'),
    # and no other polynomial of a component
    with np.errstate(over="ignore", invalid="ignore"):
        for i, comp in enumerate(coeffs):
            for order in range(2):
                try:
                    critical_points(P.polyder(comp, order))
                except DegenerateFlux as exc:
                    raise ValueError(f"component {i}: {exc}") from None
    return coeffs


def _enum(*options):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    return parse


# key -> (parser, default); default None means "unset"
KEYS = {
    "flux.burgers_d": (_dimension, None),
    "flux.poly": (_parse_poly, None),
    "pair.u_minus": (_finite, None),
    "pair.u_plus": (_finite, None),
    # radians; a value below about 1e-7 in 2-D, or 0.0554 in 3-D, gives no finer
    # cone (see cones.admissible_cone)
    "cone.resolution": (_positive, 1e-4),
    "profile.front": (_enum("planar", "abs_scaled", "pwl_file"), "planar"),
    "profile.nu": (_parse_direction, None),
    "profile.offset": (_finite, 0.0),
    "profile.slope": (_finite, None),
    "profile.pwl_path": (_path, None),
    "perturbation.shape": (_enum("bump", "indicator", "sum"), None),
    "perturbation.center": (_parse_floats, None),
    "perturbation.radius": (_positive, None),
    "perturbation.amplitude": (_finite, None),
    "perturbation.terms": (_parse_terms, None),
    "grid.counts": (_parse_counts, None),
    "grid.box": (_parse_box, None),
    "scheme.numerical_flux": (_enum("rusanov", "engquist-osher"), "rusanov"),
    "scheme.cfl": (_finite, None),
    "scheme.boundary": (_enum("dirichlet-profile", "outflow"), "dirichlet-profile"),
    "scheme.frame": (_enum("reduced", "original"), "reduced"),
    "experiment.horizon": (_positive, 10.0),
    "experiment.snapshot_interval": (_nonnegative, 0.0),  # 0: no snapshots
    "experiment.threshold": (_fraction, 1e-3),
    "experiment.eta": (_finite, 0.05),
    "experiment.t0": (_positive, 10.0),
    # normalize-check refuses |u_ref| above 2 in 2-D and above 1.5 in 3-D, where
    # its residuals are not yet asymptotic (see normalization_residual_study)
    "experiment.u_ref": (_finite, 0.0),
    "experiment.settle_steps": (_count, 1500),
    "output.dir": (str, "out"),
}

# the keys that each variant of profile.front and of perturbation.shape reads;
# a variant refuses its section's keys that only the other variants read
_CRA = "perturbation.center perturbation.radius perturbation.amplitude"
VARIANTS = {
    "profile.front": {"planar": "profile.nu profile.offset",
                      "abs_scaled": "profile.slope profile.offset",
                      "pwl_file": "profile.pwl_path"},
    "perturbation.shape": {"bump": _CRA, "indicator": _CRA, "sum": "perturbation.terms"},
}


@dataclass(eq=False)
class RunConfig:
    """Validated run description; objects are built lazily by the builders."""

    raw: dict[str, object]
    lines: dict[str, int] = field(default_factory=dict, init=False)  # 0: from --set

    def get(self, key: str):
        if key in self.raw:
            return self.raw[key]
        return KEYS[key][1]

    def has(self, key: str) -> bool:
        return key in self.raw

    def error(self, key: str, msg: str) -> ConfigError:
        """A ConfigError about key, at its line."""
        return ConfigError([(self.lines.get(key, 0), f"{key}: {msg}")])

    def require(self, *keys: str) -> list:
        """The values of keys; a ConfigError naming each one that is not set."""
        missing = [(0, f"{k} is required") for k in keys if not self.has(k)]
        if missing:
            raise ConfigError(missing)
        return [self.get(k) for k in keys]

    def flux_key(self) -> str | None:
        """The key that gives the flux, flux.poly or flux.burgers_d; None if neither."""
        given = [k for k in ("flux.poly", "flux.burgers_d") if self.has(k)]
        if len(given) == 2:
            raise self.error("flux.poly", "give either flux.poly or flux.burgers_d, not both")
        return given[0] if given else None

    def flux_dimension(self) -> int | None:
        """The flux's number of components as its key gives it; None if no key does."""
        key = self.flux_key()
        value = self.get(key) if key else None
        return len(value) if key == "flux.poly" else value

    # -- builders -----------------------------------------------------------

    def build_flux(self) -> Flux:
        key = self.flux_key()
        if key is None:
            raise ConfigError([(0, "flux.poly or flux.burgers_d is required")])
        return Flux(self.get(key)) if key == "flux.poly" else burgers_flux(self.get(key))

    def state(self, key: str, flux: Flux) -> float:
        """The state given by key; one at which a flux value overflows is an
        error at key's line."""
        u = self.get(key)
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(flux.value(u))):
                raise self.error(key, f"the flux values at {u!r} overflow")
        return u

    def build_pair(self):
        """The shock pair.  A flux within a relative 1e-12 of one that the
        paper's non-degeneracy excludes (`check_nondegeneracy`) is an error at
        the flux key's line, naming that flux's kernel direction; a state at
        which a flux value overflows is an error at that state's line."""
        flux = self.build_flux()
        nondegeneracy = check_nondegeneracy(flux)
        if not nondegeneracy.passed:
            tau, *xi = (f"{v + 0.0:.6g}" for v in np.hstack(nondegeneracy.failures[0]))
            raise self.error(self.flux_key(), "the flux is within a relative 1e-12 of a "
                             "degenerate flux (each component scaled to unit max), whose "
                             "tau + f'(s) . xi is 0 for every s at the unit (tau, xi) = "
                             f"({tau}, ({', '.join(xi)}))")
        self.require("pair.u_minus", "pair.u_plus")
        return make_shock_pair(flux, self.state("pair.u_minus", flux),
                               self.state("pair.u_plus", flux))

    def build_grid(self) -> Grid:
        counts, box = self.require("grid.counts", "grid.box")
        return Grid.from_box(box, counts)

    def build_scheme(self) -> SchemeConfig:
        return SchemeConfig(
            numerical_flux=self.get("scheme.numerical_flux"),
            cfl=self.get("scheme.cfl"),
            boundary=self.get("scheme.boundary"),
            frame=self.get("scheme.frame"),
        )

    def build_profile(self, pair=None, dual=None) -> ShockProfile:
        """The profile of the profile.* keys; a profile that cannot exist (an
        inadmissible normal, a front ratio above 1, a bad front file) is an
        error at the key that gives its front."""
        self._refuse_unread("profile.front")
        pair = pair or self.build_pair()
        if dual is None:
            dual = dual_cone(admissible_cone(pair, self.get("cone.resolution")))
        y_extent = (-8.0, 8.0)
        if self.has("grid.box"):
            box = self.get("grid.box")
            span = max(box[1] - box[0], box[3] - box[2])
            y_extent = (-span, span)
        kind = self.get("profile.front")
        key = {"planar": "profile.nu", "abs_scaled": "profile.slope",
               "pwl_file": "profile.pwl_path"}[kind]
        value = self.require(key)[0]
        try:
            if kind == "planar":
                return make_planar(pair, dual, value, self.get("profile.offset"),
                                   y_extent=y_extent)
            if kind == "abs_scaled":
                return make_scaled_gauge(pair, dual, value, self.get("profile.offset"),
                                         y_extent=y_extent)
            rows = np.loadtxt(value, delimiter=",", skiprows=1, ndmin=2)
            if rows.shape[1] < 2:
                raise ValueError("expected a header and then rows of y,psi")
            return make_graph(pair, dual, (rows[:, 0], rows[:, 1]), y_extent=y_extent)
        except (ShockLabError, ValueError) as exc:
            raise self.error(key, f"{value}: {exc}") from exc

    def _refuse_unread(self, key: str) -> None:
        """A ConfigError at the line of each key that the variant chosen by
        key does not read (see VARIANTS); with no variant chosen, nothing
        reads any of them."""
        choice, options = self.get(key), VARIANTS[key]
        reads = options[choice].split() if choice is not None else []
        unread = {k for keys in options.values() for k in keys.split()} - set(reads)
        why = (f"{key} = {choice} does not read this key" if choice is not None
               else f"without {key} nothing reads this key")
        errors = [(self.lines.get(k, 0), f"{k}: {why}") for k in unread if self.has(k)]
        if errors:
            raise ConfigError(sorted(errors))

    def build_perturbation(self, required: bool = True) -> PerturbationSpec | None:
        """The perturbation of the perturbation.* keys.  When it is not
        required, a config without perturbation.shape has none (None), and
        each other perturbation key it sets is an error at its line."""
        if not required and not self.has("perturbation.shape"):
            self._refuse_unread("perturbation.shape")
            return None
        shape = self.require("perturbation.shape")[0]
        self._refuse_unread("perturbation.shape")
        if shape == "sum":
            return PerturbationSpec("sum", terms=tuple(
                PerturbationSpec(kind, nums[:-2], nums[-2], nums[-1])
                for kind, nums in self.require("perturbation.terms")[0]))
        center, radius, amplitude = self.require(
            "perturbation.center", "perturbation.radius", "perturbation.amplitude")
        return PerturbationSpec(shape, tuple(center), radius, amplitude)

    def check_amplitude(self, lo: float, hi: float, flux: Flux, grid: Grid,
                        scale: float = 1.0) -> None:
        """Reject a perturbation whose cell averages or wave speed would overflow,
        and then a run of too many steps over the perturbed range (`check_steps`).

        A bump's peak and an indicator's value are its amplitude, so a base
        in [lo, hi] plus up to `scale` times the perturbation stays in [lo, hi]
        widened by scale * (the sum of |amplitude| over the terms, 0 if none).
        """
        shape = self.get("perturbation.shape")
        if shape == "sum":
            key = "perturbation.terms"
            a = scale * sum(abs(nums[-1]) for _, nums in self.get(key))
        else:
            key = "perturbation.amplitude"
            a = scale * abs(self.get(key)) if shape else 0.0
        lo, hi = lo - a, hi + a
        with np.errstate(over="ignore", invalid="ignore"):
            # sample_function sums 4 subsamples per axis before it divides
            ok = (np.isfinite(4.0 * max(abs(lo), abs(hi)))
                  and np.isfinite(wave_speed(flux, grid, lo, hi)))
        if not ok:
            raise self.error(key, f"a total |amplitude| of {a!r} overflows the cell averages "
                             f"or the wave speed of data in [{lo!r}, {hi!r}]")
        self.check_steps(lo, hi, flux, grid)

    def check_steps(self, lo: float, hi: float, flux: Flux, grid: Grid) -> None:
        """Reject a run that needs more than MAX_STEPS steps to reach
        experiment.horizon: the steps of the stable dt over data in [lo, hi],
        which is no longer than the dt of a run whose data stays there.  The
        error is at grid.box if one unit of time alone takes more steps than
        that, and at experiment.horizon otherwise."""
        dt = stable_dt(flux, grid, self.build_scheme(), lo, hi)
        horizon = self.get("experiment.horizon")
        with np.errstate(over="ignore"):
            n, per_unit = horizon / dt, 1.0 / dt
        if not n <= MAX_STEPS:
            key = "experiment.horizon" if per_unit <= MAX_STEPS else "grid.box"
            raise self.error(key, f"a horizon of {horizon!r} takes about {n:.3g} steps of "
                             f"dt = {dt!r} (dx = {grid.dx!r}), more than {MAX_STEPS}")


def tokenize(text: str) -> dict[str, tuple[str, int]]:
    """First stage: key -> (raw value, line number); later lines win."""
    out: dict[str, tuple[str, int]] = {}
    errors = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append((ln, f"expected `section.key = value`, got {body!r}"))
            continue
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            errors.append((ln, f"malformed key {key!r}"))
            continue
        out[key] = (value, ln)
    if errors:
        raise ConfigError(errors)
    return out


def _check_dimensions(cfg: RunConfig, entries: dict[str, tuple[str, int]]) -> None:
    """grid.counts, profile.nu, perturbation.center: one entry per flux component; grid.box two."""
    d = cfg.flux_dimension()
    if d is None:
        return  # build_flux reports a missing flux
    flux_key = cfg.flux_key()
    errors = []
    for key, per_axis in (("grid.counts", 1), ("grid.box", 2), ("profile.nu", 1),
                          ("perturbation.center", 1)):
        if cfg.has(key) and len(cfg.get(key)) != per_axis * d:
            errors.append((entries[key][1], f"{key} has {len(cfg.get(key))} entries, but "
                           f"the flux ({flux_key}) has {d} components"))
    for kind, nums in cfg.get("perturbation.terms") or ():
        if len(nums) != d + 2:
            errors.append((entries["perturbation.terms"][1],
                           f"perturbation.terms: a {kind} term has {len(nums)} numbers, but "
                           f"the flux ({flux_key}) has {d} components, so it needs {d + 2}"))
    if errors:
        raise ConfigError(errors)


def validate(entries: dict[str, tuple[str, int]]) -> RunConfig:
    """Second stage: parse every value with its registered type."""
    errors = []
    raw: dict[str, object] = {}
    for key, (value, ln) in entries.items():
        if key not in KEYS:
            errors.append((ln, f"unknown key {key!r}"))
            continue
        parser, _ = KEYS[key]
        try:
            raw[key] = parser(value)
        except (ValueError, SyntaxError, OverflowError) as exc:
            errors.append((ln, f"{key}: {exc}"))
    if errors:
        raise ConfigError(errors)
    cfg = RunConfig(raw)
    cfg.lines.update((key, ln) for key, (_, ln) in entries.items())
    _check_dimensions(cfg, entries)
    # cross-key validation through the real constructors: each builder that
    # has its keys runs, and its error is pinned to the line of its own key
    # (grid.counts has its own range check in its parser, so what the grid
    # still rejects is the box)
    for build, needs, key in ((cfg.build_pair, ("pair.u_minus", "pair.u_plus"), "pair.u_plus"),
                              (cfg.build_grid, ("grid.counts", "grid.box"), "grid.box"),
                              (cfg.build_scheme, (), "scheme.cfl")):
        if all(cfg.has(k) for k in needs):
            try:
                build()
            except ConfigError:
                raise
            except (ShockLabError, ValueError) as exc:
                errors.append((cfg.lines.get(key, 0), str(exc)))
    if errors:
        raise ConfigError(errors)
    return cfg


def parse_config(text: str) -> RunConfig:
    return validate(tokenize(text))


def _emit_value(key: str, value) -> str:
    if KEYS[key][0] is _parse_terms:
        return "; ".join(f"{kind}:" + ",".join(map(repr, nums)) for kind, nums in value)
    if isinstance(value, tuple) and KEYS[key][0] is _parse_poly:
        return "[" + ",".join("[" + ",".join(repr(c) for c in comp) + "]" for comp in value) + "]"
    if isinstance(value, tuple):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(cfg: RunConfig) -> str:
    lines = [f"{key} = {_emit_value(key, cfg.raw[key])}" for key in sorted(cfg.raw)]
    return "\n".join(lines) + "\n"
