"""Command-line surface: batch runs driven by flat config files.

Exit codes: 0 all checks passed, 1 at least one failed invariant,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments as xp
from .config import RunConfig, tokenize, validate
from .cones import dual_cone_from_flux
from .errors import ConfigError, ShockLabError
from .experiments import Check, ExperimentReport
from .profiles import front_normals
from .snapshots import format_verdict, write_probes_csv, write_snapshot, write_verdict
from .solver import Field, profile_background, run, sample_function, sample_profile

COMMANDS = ("cone", "profile", "simulate", "stability", "overhead",
            "dispersion", "support", "normalize-check")


def _load_config(path: str, overrides: list[str]) -> RunConfig:
    entries = tokenize(Path(path).read_text(encoding="utf-8"))
    for i, item in enumerate(overrides):
        if "=" not in item:
            raise ConfigError([(0, f"--set expects key=value, got {item!r}")])
        key, _, value = item.partition("=")
        entries[key.strip()] = (value.strip(), 0)
    return validate(entries)


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
    write_verdict(report, out / "verdict.txt")
    stderr.write(format_verdict(report))
    return 0 if report.passed else 1


def _snapshot_times(cfg: RunConfig) -> list[float]:
    horizon = cfg.get("experiment.horizon")
    dt = cfg.get("experiment.snapshot_interval")
    if dt and dt > 0:
        return list(np.arange(dt, horizon + 1e-12, dt))
    return []


def cmd_cone(cfg: RunConfig, stdout, stderr) -> int:
    pair = cfg.build_pair()
    cone, dual = cfg.build_cone_and_dual(pair)
    if cone.trivial:
        stdout.write("trivial," + ",".join(["0.0"] * pair.d) + "\n")
        return 0
    rows = []
    if cone.d == 2:
        t1, t2 = cone.sector
        rows.append(("primal_ray", np.array([np.cos(t1), np.sin(t1)])))
        rows.append(("primal_ray", np.array([np.cos(t2), np.sin(t2)])))
    else:
        rows.extend(("primal_ray", g) for g in cone.generators)
    rows.extend(("dual_ray", g) for g in dual.generators)
    rows.append(("axis_W", dual.W))
    rows.append(("lambda", dual.lam))
    for kind, vec in rows:
        stdout.write(kind + "," + ",".join(repr(float(v)) for v in vec) + "\n")

    flux_dual = dual_cone_from_flux(pair)
    if cone.d == 2:
        a1 = np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0]))
        a2 = np.sort(np.arctan2(flux_dual.generators[:, 1], flux_dual.generators[:, 0]))
        haus = float(np.max(np.abs(a1 - a2)))
    else:
        haus = float(np.max(np.abs(dual.W - flux_dual.W)))
    report = ExperimentReport("cone", [
        Check("dual_routes_agree", haus <= 2 * cfg.get("cone.resolution") + 1e-3, haus,
              2 * cfg.get("cone.resolution") + 1e-3,
              "angular Hausdorff distance between the two dual constructions"),
    ])
    write_verdict(report, _outdir(cfg) / "verdict.txt")
    stderr.write(format_verdict(report))
    return 0 if report.passed else 1


def cmd_profile(cfg: RunConfig, stdout, stderr) -> int:
    pair = cfg.build_pair()
    cone, dual = cfg.build_cone_and_dual(pair)
    prof = cfg.build_profile(pair, dual, cone)
    out = _outdir(cfg)
    ys = np.linspace(prof.y_extent[0], prof.y_extent[1], 257)
    psis = prof.front.value(ys)
    write_probes_csv(["y", "psi"], np.stack([ys, psis], axis=1), out / "front.csv")
    from .cones import cone_contains

    normals_ok = all(cone_contains(cone, nu, 0.0) for nu in front_normals(prof))
    report = ExperimentReport("profile", [
        Check("gauge_lipschitz", prof.rho <= 1.0 + 1e-9, prof.rho, 1.0, "front ratio"),
        Check("normals_admissible", normals_ok, 1.0 if normals_ok else 0.0, 1.0),
    ], extras={"unc": prof.unc})
    stdout.write(f"rho,{prof.rho!r}\nunc,{int(prof.unc)}\n")
    write_verdict(report, out / "verdict.txt")
    stderr.write(format_verdict(report))
    return 0 if report.passed else 1


def cmd_simulate(cfg: RunConfig, stdout, stderr) -> int:
    pair = cfg.build_pair()
    cone, dual = cfg.build_cone_and_dual(pair)
    prof = cfg.build_profile(pair, dual, cone)
    grid = cfg.build_grid()
    scheme = cfg.build_scheme()
    flux = scheme.flux_of(pair)
    bg = profile_background(prof, moving=scheme.frame == "original")
    u0 = sample_profile(prof, grid)
    phi = cfg.build_perturbation()
    if phi is not None:
        u0 = Field(grid, u0.values + sample_function(phi, grid).values)
    rep = run(u0, scheme, flux, cfg.get("experiment.horizon"), bg,
              snapshot_times=_snapshot_times(cfg))
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
    cone, dual = cfg.build_cone_and_dual(pair)
    prof = cfg.build_profile(pair, dual, cone)
    phi = cfg.build_perturbation()
    if phi is None:
        raise ConfigError([(0, "stability requires a perturbation")])
    report = xp.stability_experiment(
        prof, phi, cfg.build_grid(), cfg.build_scheme(), cfg.get("experiment.horizon"),
        settle_steps=cfg.get("experiment.settle_steps"),
        snapshot_times=_snapshot_times(cfg),
    )
    return _emit_report(cfg, report, stderr)


def cmd_overhead(cfg: RunConfig, stdout, stderr) -> int:
    pair = cfg.build_pair()
    cone, dual = cfg.build_cone_and_dual(pair)
    prof = cfg.build_profile(pair, dual, cone)
    phi = cfg.build_perturbation()
    if phi is None:
        raise ConfigError([(0, "overhead requires a perturbation")])
    report = xp.overhead_experiment(
        prof, phi, cfg.build_grid(), cfg.build_scheme(), cfg.get("experiment.horizon"),
        eta=cfg.get("experiment.eta"), settle_steps=cfg.get("experiment.settle_steps"),
    )
    return _emit_report(cfg, report, stderr)


def cmd_dispersion(cfg: RunConfig, stdout, stderr) -> int:
    grid = cfg.build_grid()
    phi = cfg.build_perturbation()
    if phi is None:
        raise ConfigError([(0, "dispersion requires a perturbation")])
    u_ref = cfg.get("experiment.u_ref")
    data = sample_function(lambda p: u_ref + phi(p), grid)
    report = xp.dispersion_experiment(
        data, cfg.build_scheme(), cfg.get("experiment.horizon"),
        u_ref=u_ref, t0=cfg.get("experiment.t0"),
    )
    return _emit_report(cfg, report, stderr)


def cmd_support(cfg: RunConfig, stdout, stderr) -> int:
    grid = cfg.build_grid()
    flux = cfg.build_flux()
    phi = cfg.build_perturbation()
    if phi is None:
        raise ConfigError([(0, "support requires a perturbation")])
    base = cfg.get("pair.u_minus") if cfg.has("pair.u_minus") else 1.0
    b1 = Field(grid, np.full(grid.counts, float(base)))
    b2 = Field(grid, b1.values + sample_function(phi, grid).values)
    report = xp.support_experiment(
        flux, b1, b2, cfg.build_scheme(), cfg.get("experiment.horizon"),
        threshold=cfg.get("experiment.threshold"),
    )
    return _emit_report(cfg, report, stderr)


def cmd_normalize_check(cfg: RunConfig, stdout, stderr) -> int:
    d = cfg.get("flux.burgers_d") if cfg.has("flux.burgers_d") else 2
    residuals = xp.normalization_residual_study(cfg.get("experiment.u_ref"), d)
    ratios = [residuals[k] / residuals[k + 1] for k in range(len(residuals) - 1)]
    checks = [
        Check(f"refinement_{k}", r >= 1.7, r, 1.7, "residual shrink factor per grid halving")
        for k, r in enumerate(ratios)
    ]
    for k, res in enumerate(residuals):
        stdout.write(f"residual_level_{k},{res!r}\n")
    report = ExperimentReport("normalize-check", checks, extras={"residuals": residuals})
    write_verdict(report, _outdir(cfg) / "verdict.txt")
    stderr.write(format_verdict(report))
    return 0 if report.passed else 1


HANDLERS = {
    "cone": cmd_cone,
    "profile": cmd_profile,
    "simulate": cmd_simulate,
    "stability": cmd_stability,
    "overhead": cmd_overhead,
    "dispersion": cmd_dispersion,
    "support": cmd_support,
    "normalize-check": cmd_normalize_check,
}


def main(argv=None, stdout=None, stderr=None) -> int:
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

    threads = os.environ.get("SHOCKLAB_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            stderr.write(f"SHOCKLAB_THREADS must be a positive integer, got {threads!r}\n")
            return 2
        # evolution is vectorized on one lane; any positive cap is honored as-is

    try:
        cfg = _load_config(args.config, args.set)
        return HANDLERS[args.command](cfg, stdout, stderr)
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
