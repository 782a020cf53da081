"""Command-line surface: batch runs driven by flat config files.

Exit codes: 0 all checks passed, 1 at least one failed invariant,
2 usage or configuration error.  A flux within a relative 1e-12 of a
degenerate flux (each component scaled to unit max), one that the paper's
non-degeneracy excludes (tau + f'(s) . xi = 0 for all s at some unit
(tau, xi)), is a config error at the flux key's line in every command that
builds a shock pair; support builds none, and dispersion and normalize-check
take only the Burgers flux.  So is a flux whose chord test cannot root its
excess polynomial (its leading coefficient is too small beside the others),
in every command that builds the admissible cone.

A config past the work ceiling is a config error at its key's line, raised
before any work:
- grid.counts of more than 2**24 = 16,777,216 cells (256**3, 4096**2);
- more than 1,000,000 steps in one time loop: experiment.settle_steps, and
  experiment.horizon over the stable dt of the data's range on the grid
  (at grid.box when one unit of time alone takes more steps than that);
- more than 10,000 snapshots: an experiment.horizon /
  experiment.snapshot_interval ratio above that (an interval of 0 writes
  none).

`COMMANDS` holds one row per command: the keys it reads and the flux it is
built for.  A key the command does not read, and a flux it is not built for,
is a config error at that key's line, raised before any work.  A key that
the chosen profile.front or perturbation.shape does not read is one too,
raised when the command builds that profile or perturbation.
`normalize-check` takes d from the flux key, 2 without one, and refuses an
|experiment.u_ref| above 2 at d = 2 and above 1.5 at d = 3.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from pathlib import Path

import numpy as np

from . import experiments as xp
from .config import KEYS, RunConfig, tokenize, validate
from .cones import cone_contains, direction_count, dual_cone, dual_cone_from_flux
from .errors import ConfigError, ShockLabError, TrivialCone
from .experiments import Check, ExperimentReport
from .fluxes import burgers_flux, is_burgers
from .profiles import front_normals
from .snapshots import format_verdict, write_probes_csv, write_snapshot
from .solver import Field, Shifted, profile_background, run, sample_function, sample_profile


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.get("output.dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_report(cfg: RunConfig, report: ExperimentReport, stderr) -> int:
    out = _outdir(cfg)
    if report.series is not None:
        write_probes_csv(report.series[0], report.series[1], out / "probes.csv")
    for t, f in report.snapshots:
        write_snapshot(f, out / f"snap_{t:012.6f}.shkw", t)
    final = report.extras.get("final")
    if isinstance(final, Field):
        write_snapshot(final, out / "final.shkw")
    verdict = format_verdict(report)
    (out / "verdict.txt").write_text(verdict, encoding="utf-8")
    stderr.write(verdict)
    return 0 if report.passed else 1


MAX_SNAPSHOTS = 10_000


def _snapshot_times(cfg: RunConfig) -> list[float]:
    horizon = cfg.get("experiment.horizon")
    dt = cfg.get("experiment.snapshot_interval")
    if dt == 0:
        return []
    if horizon / dt > MAX_SNAPSHOTS:
        raise cfg.error("experiment.snapshot_interval", f"experiment.horizon / {dt!r} "
                        f"asks for more than {MAX_SNAPSHOTS} snapshots")
    return list(np.arange(dt, horizon + 1e-12, dt))


def cmd_cone(cfg: RunConfig, stdout, stderr) -> int:
    pair = cfg.build_pair()
    resolution = cfg.get("cone.resolution")
    cone = cfg.build_cone(pair)
    if pair.d == 3:  # the spacing of the sampled directions
        resolution = np.sqrt(4.0 * np.pi / direction_count(resolution))
    tol = 2 * resolution + 1e-3
    if cone.trivial:
        stdout.write("trivial," + ",".join(["0.0"] * pair.d) + "\n")
        # the dual of {0} is the whole space: the routes agree only when the
        # chord route finds no proper dual cone either
        try:
            dual_cone_from_flux(pair)
            gap = np.pi / 2
        except TrivialCone:
            gap = 0.0
        note = "the admissible cone is {0}: 0 when the chord route finds it trivial too"
    else:
        dual = dual_cone(cone)
        rows = [("primal_ray", g) for g in cone.generators]
        rows.extend(("dual_ray", g) for g in dual.generators)
        rows.append(("axis_W", dual.W))
        rows.append(("lambda", dual.lam))
        for kind, vec in rows:
            stdout.write(kind + "," + ",".join(repr(float(v)) for v in vec) + "\n")
        # a dual cone is {n : n . xi >= 0} over its unit primal rays xi, so the
        # gap is 0 exactly when the two constructions' cones coincide
        flux_dual = dual_cone_from_flux(pair)
        reach = max(float(-np.min(a.generators @ b.primal_generators.T))
                    for a, b in ((dual, flux_dual), (flux_dual, dual)))
        gap = float(np.arcsin(np.clip(reach, 0.0, 1.0)))
        note = "largest angle of a dual ray of one construction outside the other's dual cone"
    report = ExperimentReport("cone", [Check("dual_routes_agree", gap <= tol, gap, tol, note)])
    return _emit_report(cfg, report, stderr)


def cmd_profile(cfg: RunConfig, stdout, stderr) -> int:
    pair = cfg.build_pair()
    cone = cfg.build_cone(pair)
    prof = cfg.build_profile(pair, dual_cone(cone))
    out = _outdir(cfg)
    ys = np.linspace(prof.y_extent[0], prof.y_extent[1], 257)
    psis = prof.front.value(ys)
    write_probes_csv(["y", "psi"], np.stack([ys, psis], axis=1), out / "front.csv")
    normals_ok = all(cone_contains(cone, nu) for nu in front_normals(prof))
    report = ExperimentReport("profile", [
        Check("gauge_lipschitz", prof.rho <= 1.0 + 1e-9, prof.rho, 1.0, "front ratio"),
        Check("normals_admissible", normals_ok, 1.0 if normals_ok else 0.0, 1.0),
    ], extras={"unc": prof.unc})
    stdout.write(f"rho,{prof.rho!r}\nunc,{int(prof.unc)}\n")
    return _emit_report(cfg, report, stderr)


def cmd_simulate(cfg: RunConfig, stdout, stderr) -> int:
    pair = cfg.build_pair()
    grid = cfg.build_grid()
    scheme = cfg.build_scheme()
    flux = scheme.flux_of(pair)
    phi = cfg.build_perturbation(required=False)
    cfg.check_amplitude(pair.u_plus, pair.u_minus, flux, grid)
    snapshot_times = _snapshot_times(cfg)
    prof = cfg.build_profile(pair)
    bg = profile_background(prof, moving=scheme.frame == "original")
    u0 = sample_profile(prof, grid)
    if phi is not None:
        u0 = Field(grid, u0.values + sample_function(phi, grid).values)
    rep = run(u0, scheme, flux, cfg.get("experiment.horizon"), bg,
              snapshot_times=snapshot_times)
    drift = float(np.max(np.abs((rep.mass - rep.mass[0]) - rep.boundary_inflow)))
    scale = max(1.0, abs(rep.mass[0]))
    checks = [Check("mass_conservation", drift <= 1e-10 * scale, drift, 1e-10 * scale,
                    "interior mass change vs net boundary flux")]
    header, rows = rep.series_rows()
    report = ExperimentReport("simulate", checks, (header, rows),
                              extras={"final": rep.final, "dt": rep.dt},
                              snapshots=rep.snapshots)
    return _emit_report(cfg, report, stderr)


def cmd_stability(cfg: RunConfig, stdout, stderr) -> int:
    pair = cfg.build_pair()
    phi = cfg.build_perturbation()
    if phi.shape != "sum" and abs(phi.amplitude) > pair.jump:
        # the bump's peak (the indicator's value) is its amplitude, and the
        # perturbed data must stay in [u_plus, u_minus] at that point
        raise cfg.error("perturbation.amplitude", f"the perturbed data must stay between "
                        f"pair.u_plus and pair.u_minus, so |amplitude| may not exceed the "
                        f"jump {pair.jump!r}")
    grid = cfg.build_grid()
    cfg.check_amplitude(pair.u_plus, pair.u_minus, pair.reduced, grid)
    snapshot_times = _snapshot_times(cfg)
    prof = cfg.build_profile(pair)
    report = xp.stability_experiment(
        prof, phi, grid, cfg.build_scheme(), cfg.get("experiment.horizon"),
        settle_steps=cfg.get("experiment.settle_steps"),
        snapshot_times=snapshot_times,
    )
    return _emit_report(cfg, report, stderr)


def cmd_overhead(cfg: RunConfig, stdout, stderr) -> int:
    phi = cfg.build_perturbation()
    pair, grid, scheme = cfg.build_pair(), cfg.build_grid(), cfg.build_scheme()
    cfg.check_amplitude(pair.u_plus, pair.u_minus, scheme.flux_of(pair), grid)
    prof = cfg.build_profile(pair)
    report = xp.overhead_experiment(
        prof, phi, grid, scheme, cfg.get("experiment.horizon"),
        eta=cfg.get("experiment.eta"), settle_steps=cfg.get("experiment.settle_steps"),
    )
    for name in ("t_ext", "t_eta", "t_star", "predicted_total", "absorption_note"):
        if name in report.extras:
            stdout.write(f"{name},{report.extras[name]!r}\n")
    return _emit_report(cfg, report, stderr)


def cmd_dispersion(cfg: RunConfig, stdout, stderr) -> int:
    if cfg.get("experiment.t0") >= cfg.get("experiment.horizon"):
        raise cfg.error("experiment.t0", "the measurement window must start before "
                        "experiment.horizon")
    grid = cfg.build_grid()
    phi = cfg.build_perturbation()
    flux = burgers_flux(grid.d)
    u_ref = cfg.state("experiment.u_ref", flux)
    # the experiment also evolves the doubled data
    cfg.check_amplitude(u_ref, u_ref, flux, grid, scale=2.0)
    data = sample_function(Shifted(u_ref, phi), grid)
    report = xp.dispersion_experiment(
        data, cfg.build_scheme(), cfg.get("experiment.horizon"),
        u_ref=u_ref, t0=cfg.get("experiment.t0"),
    )
    return _emit_report(cfg, report, stderr)


def cmd_support(cfg: RunConfig, stdout, stderr) -> int:
    grid = cfg.build_grid()
    flux = cfg.build_flux()
    phi = cfg.build_perturbation()
    base = cfg.state("pair.u_minus", flux) if cfg.has("pair.u_minus") else 1.0
    cfg.check_amplitude(base, base, flux, grid)
    b1 = Field(grid, np.full(grid.counts, float(base)))
    b2 = Field(grid, b1.values + sample_function(phi, grid).values)
    report = xp.support_experiment(
        flux, b1, b2, cfg.build_scheme(), cfg.get("experiment.horizon"),
        threshold=cfg.get("experiment.threshold"),
    )
    return _emit_report(cfg, report, stderr)


def cmd_normalize_check(cfg: RunConfig, stdout, stderr) -> int:
    d = cfg.flux_dimension() or 2
    u_ref, bound = cfg.get("experiment.u_ref"), {2: 2.0, 3: 1.5}[d]
    if abs(u_ref) > bound:
        # the study's first halvings are not asymptotic there, so a failed
        # check would say nothing (see xp.normalization_residual_study)
        raise cfg.error("experiment.u_ref", f"normalize-check measures the order of its "
                        f"residuals for |u_ref| <= {bound} at d = {d}, not at {u_ref!r}")
    residuals = xp.normalization_residual_study(u_ref, d)
    ratios = [residuals[k] / residuals[k + 1] for k in range(len(residuals) - 1)]
    checks = [
        Check(f"refinement_{k}", r >= 1.7, r, 1.7, "residual shrink factor per grid halving")
        for k, r in enumerate(ratios)
    ]
    for k, res in enumerate(residuals):
        stdout.write(f"residual_level_{k},{res!r}\n")
    report = ExperimentReport("normalize-check", checks, extras={"residuals": residuals})
    return _emit_report(cfg, report, stderr)


# One row per command: its handler, what it needs of the flux besides 2 or 3
# components ("d = 2", "burgers" for the multi-D Burgers flux, or nothing),
# and the keys it reads besides flux.* and output.dir: sections such as
# "profile." and single keys such as "grid.box".  Any other key is an error.
# scheme.frame is read only where the background moves with the frame:
# stability runs in the steady frame, and the others against a constant state.
PROFILE = "pair. cone. profile. grid.box "
EVOLVE = "perturbation. grid. experiment.horizon scheme.numerical_flux scheme.cfl scheme.boundary "
COMMANDS = {
    "cone": (cmd_cone, "", "pair. cone."),
    "profile": (cmd_profile, "d = 2", PROFILE),
    "simulate": (cmd_simulate, "", PROFILE + EVOLVE + "scheme.frame experiment.snapshot_interval"),
    "stability": (cmd_stability, "d = 2",
                  PROFILE + EVOLVE + "experiment.snapshot_interval experiment.settle_steps"),
    "overhead": (cmd_overhead, "burgers",
                 PROFILE + EVOLVE + "scheme.frame experiment.eta experiment.settle_steps"),
    # the flux key is checked, and the grid gives d
    "dispersion": (cmd_dispersion, "burgers", EVOLVE + "experiment.t0 experiment.u_ref"),
    # pair.u_minus is the base state
    "support": (cmd_support, "d = 2", EVOLVE + "pair.u_minus experiment.threshold"),
    "normalize-check": (cmd_normalize_check, "burgers", "experiment.u_ref"),
}


def _load_config(path: str, overrides: list[str], name: str) -> RunConfig:
    """The config of command `name`, checked against its row of COMMANDS."""
    entries = tokenize(Path(path).read_text(encoding="utf-8"))
    for item in overrides:
        if "=" not in item:
            raise ConfigError([(0, f"--set expects key=value, got {item!r}")])
        key, _, value = item.partition("=")
        entries[key.strip()] = (value.strip(), 0)
    _, needs, reads = COMMANDS[name]
    reads = reads.split() + ["flux.", "output.dir"]
    unread = [k for k in entries
              if k in KEYS and k not in reads and k.split(".")[0] + "." not in reads]
    errors = [(entries[k][1], f"{k}: {name} does not read this key") for k in unread]
    try:
        cfg = validate({k: v for k, v in entries.items() if k not in unread})
        key, d = cfg.flux_key(), cfg.flux_dimension()  # None without one: build_flux reports it
        if needs == "burgers" and key and not is_burgers(cfg.build_flux()):
            raise cfg.error(key, f"{name} is built for the multi-D Burgers flux")
        if needs == "d = 2" and d not in (None, 2):
            raise cfg.error(key, f"{name} is built for d = 2, and the flux has {d} components")
        if d not in (None, 2, 3):
            raise cfg.error(key, f"the number of components must be 2 or 3, got {d}")
    except ConfigError as exc:
        errors.extend(exc.diagnostics)
    if errors:
        raise ConfigError(sorted(errors, key=lambda e: e[0]))
    return cfg


# glibc's mallopt parameter numbers
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    glibc raises both when a large block is freed, and until then maps each
    grid-sized temporary of a step afresh and faults its pages in again: how
    fast `step` ran depended on whether the run had freed a large block
    before.  A libc without mallopt keeps its own policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None, stdout=None, stderr=None) -> int:
    _fix_malloc_thresholds()
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = argparse.ArgumentParser(prog="shocklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a flat config file")
        p.add_argument("--set", action="append", default=[], metavar="section.key=value",
                       help="override a config entry")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = _load_config(args.config, args.set, args.command)
        return COMMANDS[args.command][0](cfg, stdout, stderr)
    except ConfigError as exc:
        for ln, msg in exc.diagnostics:
            where = f"line {ln}: " if ln else ""
            stderr.write(f"config error: {where}{msg}\n")
        return 2
    except FileNotFoundError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except ShockLabError as exc:
        stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
