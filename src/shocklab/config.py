"""Flat `section.key = value` run configuration: parsing, validation, builders.

The format is line-oriented and greppable: one assignment per line, `#`
comments, no nesting.  Unknown keys are hard errors so a typo can never fall
back to a silent default.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

import numpy as np

from .cones import admissible_cone, dual_cone
from .errors import ConfigError, ShockLabError
from .fluxes import Flux, burgers_flux, make_shock_pair
from .profiles import PerturbationSpec, ShockProfile, make_graph, make_planar, make_scaled_gauge
from .solver import Grid, SchemeConfig

__all__ = ["RunConfig", "parse_config", "emit_config", "tokenize", "validate"]


def _parse_float(s: str) -> float:
    return float(s)


def _parse_int(s: str) -> int:
    return int(s)


def _parse_str(s: str) -> str:
    return s


def _parse_floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.split(","))


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


def _parse_poly(s: str) -> tuple[tuple[float, ...], ...]:
    val = ast.literal_eval(s)
    if not isinstance(val, (list, tuple)):
        raise ValueError("expected a list of coefficient lists")
    return tuple(tuple(float(c) for c in comp) for comp in val)


def _enum(*options):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s

    return parse


# key -> (parser, default); default None means "unset"
KEYS = {
    "flux.burgers_d": (_parse_int, None),
    "flux.poly": (_parse_poly, None),
    "flux.label": (_parse_str, None),
    "pair.u_minus": (_parse_float, None),
    "pair.u_plus": (_parse_float, None),
    "cone.resolution": (_parse_float, 1e-4),
    "cone.sphere_samples": (_parse_int, 4096),
    "profile.front": (_enum("planar", "abs_scaled", "pwl_file"), "planar"),
    "profile.nu": (_parse_floats, None),
    "profile.offset": (_parse_float, 0.0),
    "profile.slope": (_parse_float, None),
    "profile.pwl_path": (_parse_str, None),
    "perturbation.shape": (_enum("bump", "indicator", "sum"), None),
    "perturbation.center": (_parse_floats, None),
    "perturbation.radius": (_parse_float, None),
    "perturbation.amplitude": (_parse_float, None),
    "perturbation.terms": (_parse_str, None),
    "grid.counts": (_parse_ints, None),
    "grid.box": (_parse_floats, None),
    "scheme.numerical_flux": (_enum("rusanov", "engquist-osher"), "rusanov"),
    "scheme.cfl": (_parse_float, None),
    "scheme.boundary": (_enum("dirichlet-profile", "outflow"), "dirichlet-profile"),
    "scheme.frame": (_enum("reduced", "original"), "reduced"),
    "experiment.kind": (
        _enum("simulate", "stability", "overhead", "dispersion", "support", "normalize-check"),
        None,
    ),
    "experiment.horizon": (_parse_float, 10.0),
    "experiment.snapshot_interval": (_parse_float, 0.0),
    "experiment.threshold": (_parse_float, 1e-3),
    "experiment.eta": (_parse_float, 0.05),
    "experiment.t0": (_parse_float, 10.0),
    "experiment.u_ref": (_parse_float, 0.0),
    "experiment.settle_steps": (_parse_int, 1500),
    "experiment.comparisons": (_parse_int, 5),
    "experiment.unc_margin": (_parse_float, 0.05),
    "output.dir": (_parse_str, "out"),
    "run.seed": (_parse_int, 0),
    "run.threads": (_parse_int, None),
}


@dataclass(eq=False)
class RunConfig:
    """Validated run description; objects are built lazily by the builders."""

    raw: dict[str, object]

    def get(self, key: str):
        if key in self.raw:
            return self.raw[key]
        return KEYS[key][1]

    def has(self, key: str) -> bool:
        return key in self.raw

    # -- builders -----------------------------------------------------------

    def build_flux(self) -> Flux:
        if self.has("flux.poly") and self.has("flux.burgers_d"):
            raise ConfigError([(0, "give either flux.poly or flux.burgers_d, not both")])
        label = self.get("flux.label") or ""
        if self.has("flux.poly"):
            return Flux(self.get("flux.poly"), label=label)
        if self.has("flux.burgers_d"):
            f = burgers_flux(self.get("flux.burgers_d"))
            return Flux(f.coeffs, label=label) if label else f
        raise ConfigError([(0, "flux.poly or flux.burgers_d is required")])

    def build_pair(self):
        for k in ("pair.u_minus", "pair.u_plus"):
            if not self.has(k):
                raise ConfigError([(0, f"{k} is required")])
        return make_shock_pair(self.build_flux(), self.get("pair.u_minus"), self.get("pair.u_plus"))

    def build_cone_and_dual(self, pair=None):
        pair = pair or self.build_pair()
        cone = admissible_cone(pair, self.get("cone.resolution"))
        return cone, dual_cone(cone)

    def build_grid(self) -> Grid:
        for k in ("grid.counts", "grid.box"):
            if not self.has(k):
                raise ConfigError([(0, f"{k} is required")])
        return Grid.from_box(self.get("grid.box"), self.get("grid.counts"))

    def build_scheme(self) -> SchemeConfig:
        return SchemeConfig(
            numerical_flux=self.get("scheme.numerical_flux"),
            cfl=self.get("scheme.cfl"),
            boundary=self.get("scheme.boundary"),
            frame=self.get("scheme.frame"),
        )

    def build_profile(self, pair=None, dual=None, cone=None, y_extent=None) -> ShockProfile:
        pair = pair or self.build_pair()
        if dual is None or cone is None:
            cone, dual = self.build_cone_and_dual(pair)
        if y_extent is None and self.has("grid.box"):
            box = self.get("grid.box")
            span = max(box[1] - box[0], box[3] - box[2])
            y_extent = (-span, span)
        y_extent = y_extent or (-8.0, 8.0)
        kind = self.get("profile.front")
        if kind == "planar":
            if not self.has("profile.nu"):
                raise ConfigError([(0, "profile.nu is required for a planar front")])
            return make_planar(pair, dual, self.get("profile.nu"), self.get("profile.offset"),
                               cone=cone, y_extent=y_extent)
        if kind == "abs_scaled":
            if not self.has("profile.slope"):
                raise ConfigError([(0, "profile.slope is required for an abs_scaled front")])
            return make_scaled_gauge(pair, dual, self.get("profile.slope"),
                                     self.get("profile.offset"), y_extent=y_extent)
        path = self.get("profile.pwl_path")
        if not path:
            raise ConfigError([(0, "profile.pwl_path is required for a pwl_file front")])
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return make_graph(pair, dual, (rows[:, 0], rows[:, 1]), y_extent=y_extent)

    def build_perturbation(self) -> PerturbationSpec | None:
        if not self.has("perturbation.shape"):
            return None
        shape = self.get("perturbation.shape")
        if shape == "sum":
            terms = []
            for part in (self.get("perturbation.terms") or "").split(";"):
                part = part.strip()
                if not part:
                    continue
                kind, _, rest = part.partition(":")
                nums = [float(x) for x in rest.split(",")]
                terms.append(PerturbationSpec(kind.strip(), tuple(nums[:-2]),
                                              nums[-2], nums[-1]))
            if not terms:
                raise ConfigError([(0, "perturbation.terms is required for shape=sum")])
            return PerturbationSpec("sum", terms=tuple(terms))
        for k in ("perturbation.center", "perturbation.radius", "perturbation.amplitude"):
            if not self.has(k):
                raise ConfigError([(0, f"{k} is required")])
        return PerturbationSpec(shape, tuple(self.get("perturbation.center")),
                                self.get("perturbation.radius"), self.get("perturbation.amplitude"))


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
        except (ValueError, SyntaxError) as exc:
            errors.append((ln, f"{key}: {exc}"))
    if errors:
        raise ConfigError(errors)
    cfg = RunConfig(raw)
    # cross-key validation through the real constructors, pinned to lines
    try:
        if cfg.has("pair.u_minus") and cfg.has("pair.u_plus"):
            cfg.build_pair()
        if cfg.has("grid.counts") and cfg.has("grid.box"):
            cfg.build_grid()
        cfg.build_scheme()
    except ConfigError:
        raise
    except (ShockLabError, ValueError) as exc:
        ln = 0
        for key in ("pair.u_plus", "grid.box", "scheme.cfl"):
            if key in entries:
                ln = entries[key][1]
                break
        raise ConfigError([(ln, str(exc))]) from exc
    return cfg


def parse_config(text: str) -> RunConfig:
    return validate(tokenize(text))


def _emit_value(key: str, value) -> str:
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
