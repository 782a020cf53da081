import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shocklab as sl
from shocklab import cli, config, solver
from shocklab import experiments as xp
from shocklab.errors import NoCrossing
from shocklab.cli import main

CONE_CFG = """\
flux.burgers_d = 2
pair.u_minus = 1.0
pair.u_plus = -1.0
cone.resolution = 1e-6
output.dir = {out}
"""

SIM_CFG = """\
flux.burgers_d = 2
pair.u_minus = 1.0
pair.u_plus = -1.0
profile.front = planar
profile.nu = 1,0
grid.counts = 48,48
grid.box = -1.5,1.5,-1.5,1.5
experiment.horizon = 0.4
experiment.snapshot_interval = 0.2
output.dir = {out}
"""


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    code = main(args, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_cone_command(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONE_CFG.format(out=tmp_path / "out"))
    code, out, err = run_cli(["cone", "--config", str(cfg)])
    assert code == 0
    rays = [line.split(",") for line in out.splitlines() if line.startswith("primal_ray")]
    angles = sorted(np.arctan2(float(r[2]), float(r[1])) for r in rays)
    assert angles[0] == pytest.approx(-np.pi / 4, abs=1e-5)
    assert angles[1] == pytest.approx(np.pi / 4, abs=1e-5)
    assert (tmp_path / "out" / "verdict.txt").read_text().splitlines()[-1] == "overall: pass"


def test_unknown_subcommand():
    code, _, _ = run_cli(["explode", "--config", "x.cfg"])
    assert code == 2


def test_missing_config(tmp_path):
    code, _, err = run_cli(["cone", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_config_error_exit(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flux.burgers_d = 2\npair.u_minus = -1\npair.u_plus = 1\n")
    code, _, err = run_cli(["cone", "--config", str(cfg)])
    assert code == 2
    assert "config error" in err


def test_unknown_key_exit(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("flux.burgers_d = 2\nnope.key = 1\n")
    code, _, err = run_cli(["cone", "--config", str(cfg)])
    assert code == 2
    assert "unknown key" in err


def test_set_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(CONE_CFG.format(out=tmp_path / "out"))
    code, out, _ = run_cli(["cone", "--config", str(cfg),
                            "--set", "pair.u_minus=1.5", "--set", "pair.u_plus=0.5"])
    assert code == 0
    # the sector is no longer symmetric about the first axis
    rays = [line.split(",") for line in out.splitlines() if line.startswith("primal_ray")]
    angles = sorted(np.arctan2(float(r[2]), float(r[1])) for r in rays)
    assert abs(angles[0] + angles[1]) > 1e-3


def test_cone_of_a_trivial_pair(tmp_path):
    # (s^3, s^5) admits no direction for the pair (1, -1): `cone` says so,
    # and the chord route agrees, and `profile`, which needs the dual, fails
    cfg = tmp_path / "c.cfg"
    cfg.write_text("flux.poly = [[0,0,0,1],[0,0,0,0,0,1]]\npair.u_minus = 1\n"
                   f"pair.u_plus = -1\noutput.dir = {tmp_path / 'out'}\n")
    code, out, err = run_cli(["cone", "--config", str(cfg)])
    assert (code, out) == (0, "trivial,0.0,0.0\n")
    verdict = (tmp_path / "out" / "verdict.txt").read_text()
    assert err == verdict
    assert verdict.splitlines()[1].startswith("dual_routes_agree: pass measured=0.0 ")
    code, _, err = run_cli(["profile", "--config", str(cfg),
                            "--set", "profile.front=planar", "--set", "profile.nu=1,0"])
    assert code == 1
    assert err == "error: TrivialCone: admissible cone is {0}\n"


def test_cone_of_a_trivial_pair_fails_when_the_chord_route_spans_a_cone(tmp_path, monkeypatch):
    pair = sl.make_shock_pair(sl.burgers_flux(2), 1.0, -1.0)
    monkeypatch.setattr(cli, "dual_cone_from_flux", lambda _: sl.dual_cone_from_flux(pair))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("flux.poly = [[0,0,0,1],[0,0,0,0,0,1]]\npair.u_minus = 1\n"
                   f"pair.u_plus = -1\noutput.dir = {tmp_path / 'out'}\n")
    code, out, _ = run_cli(["cone", "--config", str(cfg)])
    assert (code, out) == (1, "trivial,0.0,0.0\n")
    line = (tmp_path / "out" / "verdict.txt").read_text().splitlines()[1]
    assert line.startswith(f"dual_routes_agree: fail measured={np.pi / 2!r} ")


def _route_gap(cfg_text, tmp_path):
    """Run `cone`; return its exit code and the measured dual_routes_agree gap."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(cfg_text + f"output.dir = {tmp_path / 'out'}\n")
    code, _, _ = run_cli(["cone", "--config", str(cfg)])
    line = (tmp_path / "out" / "verdict.txt").read_text().splitlines()[1]
    assert line.startswith("dual_routes_agree: ")
    return code, float(line.split("measured=")[1].split()[0])


@pytest.mark.parametrize("states", [(1.5, -1.0), (0.5, -0.8)])
@pytest.mark.parametrize("resolution", [0.1, 0.05])
def test_cone_routes_agree_for_a_3d_flux_of_odd_powers(states, resolution, tmp_path):
    # the two constructions' axes weight their rays differently and differ
    # by up to 0.63 here; their cones agree to within the tolerance
    code, gap = _route_gap("flux.poly = [[0,0,1],[0,0,0,1],[0,0,0,0,0,1]]\n"
                           f"pair.u_minus = {states[0]}\npair.u_plus = {states[1]}\n"
                           f"cone.resolution = {resolution}\n", tmp_path)
    assert code == 0
    assert gap <= 2 * resolution + 1e-3


@pytest.mark.parametrize("resolution", ["", "cone.resolution = 0.01\n", "cone.resolution = 0.05\n"])
def test_a_3d_cone_is_checked_at_the_spacing_of_its_sample(resolution, tmp_path):
    # 4,096 directions are at most what a 3-D cone samples, about 0.0554 rad
    # apart; below that a finer resolution builds the same cone, and the
    # tolerance must not shrink with it (the default once failed: 0.0321
    # against 0.0012)
    code, gap = _route_gap("flux.burgers_d = 3\npair.u_minus = 1.0\npair.u_plus = -1.0\n"
                           + resolution, tmp_path)
    line = (tmp_path / "out" / "verdict.txt").read_text().splitlines()[1]
    assert code == 0
    assert float(line.split("tol=")[1].split()[0]) == 2 * np.sqrt(4 * np.pi / 4096) + 1e-3
    assert gap == pytest.approx(0.0321, abs=1e-4)


@pytest.mark.parametrize("states", [(1.0, -1.0), (1.0, 0.0), (0.5, -1.5), (2.0, 1.0)])
def test_cone_route_gap_in_2d_is_the_angular_hausdorff_distance(states, tmp_path):
    # no dual ray of these pairs lies near the angle +-pi, so sorting the
    # angles pairs each ray with its counterpart
    code, gap = _route_gap(f"flux.burgers_d = 2\npair.u_minus = {states[0]}\n"
                           f"pair.u_plus = {states[1]}\ncone.resolution = 1e-6\n", tmp_path)
    pair = sl.make_shock_pair(sl.burgers_flux(2), *states)
    angles = [np.sort(np.arctan2(dual.generators[:, 1], dual.generators[:, 0])) for dual in
              (sl.dual_cone(sl.admissible_cone(pair, 1e-6)), sl.dual_cone_from_flux(pair))]
    assert code == 0
    assert gap == pytest.approx(np.max(np.abs(angles[0] - angles[1])), abs=1e-12)


def test_simulate_writes_outputs_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SIM_CFG.format(out=out1))
    code, _, _ = run_cli(["simulate", "--config", str(cfg)])
    assert code == 0
    assert (out1 / "probes.csv").exists()
    assert (out1 / "final.shkw").exists()
    snaps = sorted(out1.glob("snap_*.shkw"))
    assert len(snaps) == 2
    field, t = sl.read_snapshot(snaps[-1])
    assert t == pytest.approx(0.4)
    code, _, _ = run_cli(["simulate", "--config", str(cfg), "--set", f"output.dir={out2}"])
    assert code == 0
    assert (out1 / "probes.csv").read_bytes() == (out2 / "probes.csv").read_bytes()
    assert (out1 / "final.shkw").read_bytes() == (out2 / "final.shkw").read_bytes()


def test_profile_command(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(CONE_CFG.format(out=tmp_path / "out"))
    code, out, _ = run_cli(["profile", "--config", str(cfg),
                            "--set", "profile.front=abs_scaled", "--set", "profile.slope=0.5"])
    assert code == 0
    rho = float([l for l in out.splitlines() if l.startswith("rho")][0].split(",")[1])
    assert rho == pytest.approx(0.5, abs=1e-6)
    front = (tmp_path / "out" / "front.csv").read_text().splitlines()
    assert front[0] == "y,psi"


def test_support_command(tmp_path):
    cfg = tmp_path / "sup.cfg"
    cfg.write_text(
        "flux.burgers_d = 2\n"
        "pair.u_minus = 1.0\n"
        "grid.counts = 96,96\n"
        "grid.box = -3,9,-3,9\n"
        "perturbation.shape = bump\n"
        "perturbation.center = 0,0\n"
        "perturbation.radius = 0.8\n"
        "perturbation.amplitude = 0.1\n"
        "experiment.horizon = 1.0\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    code, _, err = run_cli(["support", "--config", str(cfg)])
    assert code == 0
    assert "containment: pass" in (tmp_path / "out" / "verdict.txt").read_text()


def test_support_with_a_3d_flux_on_a_2d_grid_is_a_config_error(tmp_path):
    # without the check this evolved to the first checkpoint and then died in
    # the hull sum with a raw NumPy ValueError
    cfg = tmp_path / "sup.cfg"
    cfg.write_text(
        "flux.burgers_d = 3\n"
        "pair.u_minus = 1.0\n"
        "pair.u_plus = -1.0\n"
        "grid.counts = 48,48\n"
        "grid.box = -3,9,-3,9\n"
        "perturbation.shape = bump\n"
        "perturbation.center = 0,0\n"
        "perturbation.radius = 0.8\n"
        "perturbation.amplitude = 0.1\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    code, _, err = run_cli(["support", "--config", str(cfg)])
    assert code == 2
    assert "config error: line 4: grid.counts has 2 entries" in err
    assert "config error: line 7: perturbation.center has 2 entries" in err
    assert "flux.burgers_d" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_with_a_2d_flux_on_a_3d_grid_is_a_config_error(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CFG.format(out=tmp_path / "out")
                   .replace("grid.counts = 48,48", "grid.counts = 12,12,12")
                   .replace("grid.box = -1.5,1.5,-1.5,1.5", "grid.box = -1.5,1.5,-1.5,1.5,-1.5,1.5"))
    code, _, err = run_cli(["simulate", "--config", str(cfg)])
    assert code == 2
    assert err == ("config error: line 6: grid.counts has 3 entries, but the flux "
                   "(flux.burgers_d) has 2 components\n"
                   "config error: line 7: grid.box has 6 entries, but the flux "
                   "(flux.burgers_d) has 2 components\n")
    assert not (tmp_path / "out").exists()


def test_normalize_check_command(tmp_path):
    cfg = tmp_path / "n.cfg"
    cfg.write_text(f"flux.burgers_d = 2\nexperiment.u_ref = 0.8\noutput.dir = {tmp_path / 'out'}\n")
    code, out, _ = run_cli(["normalize-check", "--config", str(cfg)])
    assert code == 0
    levels = [float(l.split(",")[1]) for l in out.splitlines() if l.startswith("residual_level")]
    assert len(levels) == 4
    assert levels[0] > levels[-1]


def test_overhead_command(tmp_path):
    cfg = tmp_path / "ov.cfg"
    cfg.write_text(
        "flux.burgers_d = 2\n"
        "pair.u_minus = 1.0\n"
        "pair.u_plus = -1.0\n"
        "profile.front = planar\n"
        "profile.nu = 1,0\n"
        "grid.counts = 64,96\n"
        "grid.box = -2.5,1.5,-3,3\n"
        "perturbation.shape = bump\n"
        "perturbation.center = -1.2,-0.8\n"
        "perturbation.radius = 0.7\n"
        "perturbation.amplitude = 0.5\n"
        "experiment.horizon = 5.0\n"
        "experiment.settle_steps = 600\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    code, _, _ = run_cli(["overhead", "--config", str(cfg)])
    assert code == 0
    verdict = (tmp_path / "out" / "verdict.txt").read_text()
    assert "extinction: pass" in verdict
    assert "domination: pass" in verdict


def _no_evolution(*args, **kwargs):
    raise AssertionError("a broken config reached solver.step")


# one broken key per case, appended to a config of tests/test_cli_digests.py
# (later lines win); "{csv}" is a front file holding a non-number, "{steep}"
# one whose ratio to the gauge is 5.  A case of several lines gives, as its
# third entry, the key on whose line the error must be.
SUM = "perturbation.shape = sum\nperturbation.terms = {}\n"
TERMS = "perturbation.terms"
BROKEN = {
    "terms-non-number": ("simulate", SUM.format("bump:0.4,abc,0.5,0.3"), TERMS),
    "terms-unknown-shape": ("simulate", SUM.format("blob:0.4,0.2,0.5,0.3"), TERMS),
    "terms-one-number-too-many": ("simulate", SUM.format("bump:0.4,0.2,0.1,0.5,0.3"), TERMS),
    "horizon-zero": ("simulate", "experiment.horizon = 0\n"),
    "radius-negative": ("simulate", "perturbation.radius = -0.5\n"),
    "amplitude-nan": ("simulate", "perturbation.amplitude = nan\n"),
    "horizon-infinite": ("simulate", "experiment.horizon = inf\n"),
    "center-nan": ("simulate", "perturbation.center = nan,0\n"),  # silently drops the bump
    "resolution-zero": ("cone", "cone.resolution = 0\n"),
    "pwl-file-non-number": ("profile", "profile.front = pwl_file\nprofile.pwl_path = {csv}\n",
                            "profile.pwl_path"),
    "pwl-path-empty": ("profile", "profile.front = pwl_file\nprofile.pwl_path = \n",
                       "profile.pwl_path"),
    # checks of keys that one command reads, made before it does any work
    "t0-past-horizon": ("dispersion", "experiment.t0 = 100\n"),
    "threshold-negative": ("support", "experiment.threshold = -1\n"),
    "threshold-zero": ("support", "experiment.threshold = 0\n"),
    "threshold-one": ("support", "experiment.threshold = 1\n"),  # no cell above it at t = 0
    "stability-original-frame": ("stability", "scheme.frame = original\n"),
    "overhead-not-burgers": ("overhead", "flux.poly = [[0,0,1],[0,0,0,2]]\n"),
    "cone-5d": ("cone", "flux.burgers_d = 5\n"),
    # the Burgers flux of a dimension that flux.burgers_d refuses
    "normalize-check-poly-1d": ("normalize-check", "flux.poly = [[0,0,1]]\n"),
    "normalize-check-poly-4d": ("normalize-check",
                                "flux.poly = [[0,0,1],[0,0,0,1],[0,0,0,0,1],[0,0,0,0,0,1]]\n"),
    "poly-infinite": ("cone", "flux.poly = [[0,0,1e999],[0,0,0,1]]\n"),
    "poly-not-nested": ("cone", "flux.poly = [1,2]\n"),
    "poly-integer-past-float": ("cone", "flux.poly = [[0,0,1%s],[0,0,0,1]]\n" % ("0" * 400)),
    "stability-amplitude-huge": ("stability", "perturbation.amplitude = 1e308\n"),
    # a huge but finite amplitude overflows the sampled data (1e308) or the
    # wave speed (1e200, where dt became 0)
    "amplitude-1e308-simulate": ("simulate", "perturbation.amplitude = 1e308\n"),
    "amplitude-1e308-overhead": ("overhead", "perturbation.amplitude = 1e308\n"),
    "amplitude-1e308-dispersion": ("dispersion", "perturbation.amplitude = 1e308\n"),
    "amplitude-1e308-support": ("support", "perturbation.amplitude = 1e308\n"),
    "amplitude-1e200-simulate": ("simulate", "perturbation.amplitude = 1e200\n"),
    "amplitude-1e200-overhead": ("overhead", "perturbation.amplitude = 1e200\n"),
    "amplitude-1e200-dispersion": ("dispersion", "perturbation.amplitude = 1e200\n"),
    "amplitude-1e200-support": ("support", "perturbation.amplitude = 1e200\n"),
    "stability-terms-amplitude-huge": ("stability", SUM.format("bump:2.7,0.0,1.6,1e308"), TERMS),
    # a companion matrix that divides by a leading coefficient tiny next to the others
    "poly-leading-subnormal": ("cone", "flux.poly = [[0,0,1,2.2e-313],[0,0,0,1]]\n"),
    "poly-leading-tiny": ("cone", "flux.poly = [[0,0,1e10,1e-300],[0,0,0,1]]\n"),
    # experiment numbers out of range: a raw ZeroDivisionError after 40 steps,
    # a failed check or a settle of no step, and a raw ValueError from np.arange
    # or no snapshot at all
    "t0-negative": ("dispersion", "experiment.t0 = -5\n"),
    "t0-zero": ("dispersion", "experiment.t0 = 0\n"),
    "settle-steps-negative-stability": ("stability", "experiment.settle_steps = -5\n"),
    "settle-steps-negative-overhead": ("overhead", "experiment.settle_steps = -5\n"),
    "settle-steps-zero-overhead": ("overhead", "experiment.settle_steps = 0\n"),
    "snapshot-interval-tiny": ("simulate", "experiment.snapshot_interval = 1e-300\n"),
    "snapshot-interval-negative": ("simulate", "experiment.snapshot_interval = -0.1\n"),
    # a state whose flux values overflow (a raw LinAlgError from the cone), and
    # profiles that cannot exist (exit 1, as if an invariant had failed)
    "u-minus-overflows": ("simulate", "pair.u_minus = 1e200\n"),
    "nu-zero": ("simulate", "profile.nu = 0,0\n"),
    "nu-inadmissible": ("simulate", "profile.nu = 0,1\n"),
    "slope-past-1-stability": ("stability", "profile.slope = 1.5\n"),
    "slope-past-1-profile": ("profile", "profile.slope = 1.5\n"),
    "pwl-file-too-steep": ("profile", "profile.front = pwl_file\nprofile.pwl_path = {steep}\n",
                           "profile.pwl_path"),
    # past the work ceiling: a raw MemoryError (1.16 TiB), a run of about
    # 1e302 steps, and a horizon once reported at the snapshot interval's line
    "counts-huge": ("simulate", "grid.counts = 100000,100000\n"),
    "box-tiny": ("simulate", "grid.box = -1e-300,1e-300,-1e-300,1e-300\n"),
    "box-tiny-3d": ("simulate-3d", "grid.box = -1e-300,1e-300,-1e-300,1e-300,-1e-300,1e-300\n"),
    "horizon-huge-snapshots": ("simulate", "experiment.horizon = 1e300\n"),
    "settle-steps-huge": ("overhead", "experiment.settle_steps = 1000001\n"),
    # a reference state whose flux values overflow: a raw OverflowError, a
    # failed check with measured=nan, and an error at the amplitude's line;
    # and one that carries the residual study's points off its data (a raw
    # ZeroDivisionError)
    "u-ref-huge-normalize": ("normalize-check", "experiment.u_ref = 1e300\n"),
    "u-ref-cube-overflows-normalize": ("normalize-check", "experiment.u_ref = 1e150\n"),
    "u-ref-huge-dispersion": ("dispersion", "experiment.u_ref = 1e300\n"),
    "u-ref-off-the-data-normalize": ("normalize-check", "experiment.u_ref = 100\n"),
    # a dimension without grids or cones: a raw ValueError, an error at
    # pair.u_plus's line, and a residual study in 1-D
    "burgers-d-zero-normalize": ("normalize-check", "flux.burgers_d = 0\n"),
    "burgers-d-negative-normalize": ("normalize-check", "flux.burgers_d = -1\n"),
    "burgers-d-zero-cone": ("cone", "flux.burgers_d = 0\n"),
    "burgers-d-one-normalize": ("normalize-check", "flux.burgers_d = 1\n"),
    # commands built for d = 2, on a whole 3-D config: a raw NotImplementedError
    # and two raw ValueErrors from matmul on fronts sampled along a 1-D y line
    "support-3d": ("support", "flux.burgers_d = 3\ngrid.counts = 12,12,12\n"
                   "grid.box = -3,9,-3,9,-3,9\nperturbation.center = 0,0,0\n", "flux.burgers_d"),
    "stability-3d": ("stability", "flux.burgers_d = 3\nprofile.front = planar\n"
                     "profile.nu = 0.58,0.0,0.81\ngrid.counts = 8,16,16\n"
                     "grid.box = -3,5,-8,8,-8,8\nperturbation.center = 2.7,0,0\n",
                     "flux.burgers_d"),
    "profile-3d": ("profile", "flux.burgers_d = 3\nprofile.front = planar\n"
                   "profile.nu = 0.58,0.0,0.81\ngrid.box = -2,2,-2,2,-2,2\n",
                   "flux.burgers_d"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_a_broken_key_is_a_config_error(case, tmp_path, monkeypatch):
    from test_cli_digests import CASES

    monkeypatch.setattr(solver, "step", _no_evolution)

    base, broken, *key = BROKEN[case]
    command, cfg = CASES[base]
    if "flux.poly" in broken:  # it takes the place of the base's flux
        cfg = "".join(ln for ln in cfg.splitlines(True) if not ln.startswith("flux.burgers_d"))
    for variant_key, options in config.VARIANTS.items():
        # another front or perturbation shape drops the base's keys it does not read
        chosen = [v.strip() for k, _, v in (ln.partition("=") for ln in broken.splitlines())
                  if k.strip() == variant_key]
        if chosen:
            unread = {k for keys in options.values() for k in keys.split()} - \
                set(options[chosen[0]].split())
            cfg = "".join(ln for ln in cfg.splitlines(True)
                          if ln.partition("=")[0].strip() not in unread)
    csv = tmp_path / "front.csv"
    csv.write_text("y,psi\n-1,0\n0,abc\n1,0\n")
    steep = tmp_path / "steep.csv"
    steep.write_text("y,psi\n-1,0\n0,5\n1,0\n")
    out = tmp_path / "out"
    path = tmp_path / "c.cfg"
    path.write_text(cfg + broken.format(csv=csv, steep=steep) + f"output.dir = {out}\n")
    code, _, err = run_cli([command, "--config", str(path)])
    assert code == 2
    lines = broken.splitlines()
    assert len(lines) == 1 or key, "a case of several lines names the key of its error"
    at = [ln.split(" =")[0] for ln in lines].index(key[0]) if key else 0
    # the broken lines follow the base config
    assert err.startswith(f"config error: line {len(cfg.splitlines()) + 1 + at}:"), err
    assert not (out / "verdict.txt").exists()


@pytest.mark.parametrize("case", ["support-3d", "stability-3d", "profile-3d"])
def test_a_two_dimensional_command_rejects_a_3d_flux_at_its_line(case, tmp_path, monkeypatch):
    from test_cli_digests import CASES

    monkeypatch.setattr(solver, "step", _no_evolution)
    base, broken, _ = BROKEN[case]
    command, cfg = CASES[base]
    path = tmp_path / "c.cfg"
    path.write_text(cfg + broken + f"output.dir = {tmp_path / 'out'}\n")
    code, _, err = run_cli([command, "--config", str(path)])
    assert code == 2
    assert err == (f"config error: line {len(cfg.splitlines()) + 1}: flux.burgers_d: "
                   f"{command} is built for d = 2, and the flux has 3 components\n")


@pytest.mark.parametrize("case", ["overhead", "dispersion", "normalize-check"])
def test_a_burgers_command_rejects_another_flux_at_its_line(case, tmp_path, monkeypatch):
    from test_cli_digests import CASES

    monkeypatch.setattr(solver, "step", _no_evolution)
    command, cfg = CASES[case]
    cfg = "".join(ln for ln in cfg.splitlines(True) if not ln.startswith("flux.burgers_d"))
    path = tmp_path / "c.cfg"
    path.write_text(cfg + f"flux.poly = [[0,0,1],[0,0,0,5]]\noutput.dir = {tmp_path / 'out'}\n")
    code, out, err = run_cli([command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == (f"config error: line {len(cfg.splitlines()) + 1}: flux.poly: "
                   f"{command} is built for the multi-D Burgers flux\n")
    assert not (tmp_path / "out" / "verdict.txt").exists()


# fluxes that the paper's non-degeneracy excludes, or within a relative 1e-12
# of one, with the unit (tau, xi) at which tau + f'(s) . xi is 0 for every s
# for that degenerate flux: a linear flux, two equal components, a linear and
# a quadratic one, three multiples of s^2, and s^2 beside s^2 + 1e-13 s^3
DEGENERATE = {
    "[[0,1],[0,2]]": "(-0.894427, (0, 0.447214))",
    "[[0,0,1],[0,0,1]]": "(0, (-0.707107, 0.707107))",
    "[[0,1],[0,0,1]]": "(0.707107, (-0.707107, 0))",
    "[[0,0,1],[0,0,2],[0,0,3]]": "(0, (-0.897726, -0.164295, 0.408772))",
    "[[0,0,1],[0,0,1,1e-13]]": "(0, (-0.707107, 0.707107))",
}


def _refuses_a_degenerate_flux(case, flux, tmp_path):
    from test_cli_digests import CASES

    command, cfg = CASES[case]
    cfg = "".join(ln for ln in cfg.splitlines(True) if not ln.startswith("flux.burgers_d"))
    path = tmp_path / "c.cfg"
    path.write_text(cfg + f"flux.poly = {flux}\noutput.dir = {tmp_path / 'out'}\n")
    code, out, err = run_cli([command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == (f"config error: line {len(cfg.splitlines()) + 1}: flux.poly: the flux is "
                   "within a relative 1e-12 of a degenerate flux (each component scaled to "
                   "unit max), whose tau + f'(s) . xi is 0 for every s at the unit (tau, xi) = "
                   f"{DEGENERATE[flux]}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flux", sorted(DEGENERATE))
def test_cone_refuses_a_degenerate_flux_at_its_line(flux, tmp_path):
    _refuses_a_degenerate_flux("cone", flux, tmp_path)


def test_cone_accepts_a_flux_further_than_1e_12_from_a_degenerate_one(tmp_path):
    # s^2 + 1e-9 s^3 beside s^2: its scaled coefficient matrix has a least
    # singular value of about 1e-9 of its largest; 1e-13 s^3 is refused above
    from test_cli_digests import CASES

    _, cfg = CASES["cone"]
    cfg = "".join(ln for ln in cfg.splitlines(True) if not ln.startswith("flux.burgers_d"))
    path = tmp_path / "c.cfg"
    path.write_text(cfg + f"flux.poly = [[0,0,1],[0,0,1,1e-9]]\noutput.dir = {tmp_path / 'out'}\n")
    code, _, err = run_cli(["cone", "--config", str(path)])
    assert code == 0, err
    assert (tmp_path / "out" / "verdict.txt").read_text().endswith("overall: pass\n")


@pytest.mark.parametrize("case", ["profile", "simulate", "stability", "overhead"])
def test_a_command_that_builds_a_pair_refuses_a_linear_flux_at_its_line(case, tmp_path,
                                                                         monkeypatch):
    monkeypatch.setattr(solver, "step", _no_evolution)
    _refuses_a_degenerate_flux(case, "[[0,1],[0,2]]", tmp_path)


# fluxes whose excess polynomial the chord test cannot root in some direction:
# its leading coefficient is too small beside the others, so its roots overflow
UNROOTABLE = ["[[0,0,1],[0,0,0,1e-300]]", "[[1,0,0,1e-310],[0,0,1]]"]


@pytest.mark.parametrize("flux", UNROOTABLE)
@pytest.mark.parametrize("case", ["cone", "profile", "stability"])
def test_a_flux_the_chord_test_cannot_root_is_refused_at_its_line(case, flux, tmp_path,
                                                                  monkeypatch):
    from test_cli_digests import CASES

    monkeypatch.setattr(solver, "step", _no_evolution)
    command, cfg = CASES[case]
    cfg = "".join(ln for ln in cfg.splitlines(True) if not ln.startswith("flux.burgers_d"))
    path = tmp_path / "c.cfg"
    path.write_text(f"flux.poly = {flux}\n" + cfg + f"output.dir = {tmp_path / 'out'}\n")
    code, out, err = run_cli([command, "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("config error: line 1: flux.poly: the chord test cannot be "
                          "computed: the roots of the derivative "), err
    assert err.endswith(" overflow: its leading coefficient is too small\n"), err
    assert not (tmp_path / "out" / "verdict.txt").exists()


def test_support_runs_on_a_linear_flux(tmp_path):
    # support builds no shock pair: a linear flux transports its data
    from test_cli_digests import CASES

    _, cfg = CASES["support"]
    cfg = cfg.replace("flux.burgers_d = 2", "flux.poly = [[0,1],[0,2]]")
    path = tmp_path / "c.cfg"
    path.write_text(cfg + f"output.dir = {tmp_path / 'out'}\n")
    code, _, err = run_cli(["support", "--config", str(path)])
    assert code == 0, err


def test_support_runs_a_flux_whose_third_derivative_overflows(tmp_path):
    # f''' = (4.8e308 s^2, 0) overflows, and no path of support roots it: the
    # flux key checks f' and f'', the roots the program takes
    poly = "[[0,0,0,0,0,8e306],[0,0,1]]"
    path = tmp_path / "c.cfg"
    path.write_text(f"flux.poly = {poly}\npair.u_minus = 0\nperturbation.shape = bump\n"
                    "perturbation.center = 0,0\nperturbation.radius = 1\n"
                    "perturbation.amplitude = 1e-80\ngrid.counts = 32,32\n"
                    "grid.box = -5,15,-5,15\nexperiment.horizon = 2.5\n"
                    f"output.dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no raw numpy warning either
        code, _, err = run_cli(["support", "--config", str(path)])
    assert code == 0, err
    assert (tmp_path / "out" / "verdict.txt").read_text().endswith("overall: pass\n")


STABILITY_CHECKS = [f"lyapunov_cmp{i}" for i in range(5)] + [
    "confinement", "convergence", "mass_identity"]


def _run_stability_short(tmp_path):
    """Run the stability-short digest case; its exit code and verdict lines."""
    from test_cli_digests import CASES

    _, cfg = CASES["stability-short"]
    out = tmp_path / "out"
    path = tmp_path / "c.cfg"
    path.write_text(cfg + f"output.dir = {out}\n")
    code, _, err = run_cli(["stability", "--config", str(path)])
    assert sorted(p.name for p in out.iterdir()) == [
        "final.shkw", "probes.csv", "snap_00000.050000.shkw", "snap_00000.100000.shkw",
        "verdict.txt"], err
    lines = (out / "verdict.txt").read_text().splitlines()
    assert [ln.split(":")[0] for ln in lines[1:-1]] == STABILITY_CHECKS
    return code, lines


def test_stability_writes_its_verdict_when_the_front_is_no_steady_shocks(tmp_path):
    # at horizon 0.1 the bump still bends u(T)'s front, whose ratio is far
    # above 1: the run's checks and outputs stand, and the two checks that
    # read the limit shock fail
    code, lines = _run_stability_short(tmp_path)
    assert code == 1
    assert all(" pass " in ln for ln in lines[1:-3])
    for name, line in zip(("convergence", "mass_identity"), lines[-3:-1]):
        assert line.startswith(f"{name}: fail measured=nan ")
        assert line.endswith("note=no limit shock: the front of u(T) has ratio 10.7711, "
                             "above 1.1"), line


def test_stability_fails_both_limit_checks_when_no_column_crosses(tmp_path, monkeypatch):
    def no_crossing(*args):
        raise NoCrossing("no column of the field crosses the mid level")

    monkeypatch.setattr(xp, "extract_front", no_crossing)
    code, lines = _run_stability_short(tmp_path)
    assert code == 1
    for name, line in zip(("convergence", "mass_identity"), lines[-3:-1]):
        assert line.startswith(f"{name}: fail measured=nan ")
        assert line.endswith("note=no limit shock: u(T) has no crossing of the mid level")


def test_the_cli_module_runs_main(tmp_path):
    # `python -m shocklab.cli` once imported the module and exited 0
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "shocklab.cli", "stability", "--config", str(tmp_path / "absent.cfg")],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 2, proc.stderr
    assert "absent.cfg" in proc.stderr


@pytest.mark.parametrize("case, d", [("normalize-check-poly-1d", 1), ("normalize-check-poly-4d", 4)])
def test_normalize_check_refuses_a_burgers_poly_as_burgers_d_would(case, d, tmp_path):
    _, broken = BROKEN[case]
    path = tmp_path / "c.cfg"
    path.write_text(broken + f"output.dir = {tmp_path / 'out'}\n")
    code, out, err = run_cli(["normalize-check", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == ("config error: line 1: flux.poly: the number of components must be 2 or 3, "
                   f"got {d}\n")


@pytest.mark.parametrize("d, u_ref", [(2, 2.0), (2, -2.0), (3, 1.5), (3, -1.5)] + [
    (2, u) for u in (2.5, -2.5, 3.0, -3.0)] + [(3, u) for u in (2.0, -2.0, 2.5, -2.5)])
def test_normalize_check_refuses_a_u_ref_past_its_asymptotic_range(d, u_ref, tmp_path):
    # past |u_ref| = 2 in 2-D and 1.5 in 3-D the study's first halvings are
    # not yet asymptotic, and a correct normalization read as a failed check
    bound = {2: 2.0, 3: 1.5}[d]
    path = tmp_path / "n.cfg"
    path.write_text(f"flux.burgers_d = {d}\nexperiment.u_ref = {u_ref}\n"
                    f"output.dir = {tmp_path / 'out'}\n")
    code, _, err = run_cli(["normalize-check", "--config", str(path)])
    if abs(u_ref) <= bound:
        assert code == 0, err
    else:
        assert (code, err) == (2, f"config error: line 2: experiment.u_ref: normalize-check "
                                  f"measures the order of its residuals for |u_ref| <= {bound} "
                                  f"at d = {d}, not at {u_ref!r}\n")


def test_normalize_check_takes_d_from_the_flux(tmp_path):
    # a Burgers flux.poly of 3 components is checked at d = 3, as flux.burgers_d = 3 is
    outs = []
    for flux in ("flux.burgers_d = 3", "flux.poly = [[0,0,1],[0,0,0,1],[0,0,0,0,1]]",
                 "flux.burgers_d = 2"):
        cfg = tmp_path / "n.cfg"
        cfg.write_text(f"{flux}\nexperiment.u_ref = 0.8\noutput.dir = {tmp_path / 'out'}\n")
        code, out, _ = run_cli(["normalize-check", "--config", str(cfg)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] != outs[2]


def test_overhead_prints_its_absorption_estimate(tmp_path):
    from test_cli_digests import CASES

    command, cfg = CASES["overhead"]
    outs = []
    for eta in ("0.001", "0.2"):
        path = tmp_path / "c.cfg"
        path.write_text(cfg + f"experiment.eta = {eta}\noutput.dir = {tmp_path / 'out'}\n")
        code, out, _ = run_cli([command, "--config", str(path)])
        assert code == 0
        outs.append([line.split(",", 1)[0] for line in out.splitlines()])
    # a small eta is reached later and predicts an absorption time; a large
    # one makes the drift ball swallow the absorption rate
    assert outs[0] == ["t_ext", "t_eta", "t_star", "predicted_total"]
    assert outs[1] == ["t_ext", "absorption_note"]


# (digest case, the required key deleted from it)
MISSING = [("simulate", "flux.burgers_d"), ("simulate", "pair.u_minus"),
           ("simulate", "grid.box"), ("simulate", "perturbation.amplitude"),
           ("simulate", "profile.nu"), ("stability", "profile.slope")] + [
    (case, "perturbation.shape") for case in ("stability", "overhead", "dispersion", "support")]


@pytest.mark.parametrize("case, key", MISSING)
def test_a_missing_key_is_a_config_error(case, key, tmp_path, monkeypatch):
    from test_cli_digests import CASES

    monkeypatch.setattr(solver, "step", _no_evolution)
    command, cfg = CASES[case]
    assert f"{key} = " in cfg
    cfg = "".join(ln for ln in cfg.splitlines(True) if not ln.startswith(f"{key} = "))
    out = tmp_path / "out"
    path = tmp_path / "c.cfg"
    path.write_text(cfg + f"output.dir = {out}\n")
    code, _, err = run_cli([command, "--config", str(path)])
    assert code == 2
    assert err.startswith("config error: ") and key in err, err
    assert not (out / "verdict.txt").exists()


def test_both_flux_keys_are_a_config_error(tmp_path, monkeypatch):
    from test_cli_digests import CASES

    monkeypatch.setattr(solver, "step", _no_evolution)
    command, cfg = CASES["simulate"]
    out = tmp_path / "out"
    path = tmp_path / "c.cfg"
    path.write_text(cfg + f"flux.poly = [[0,0,1],[0,0,0,1]]\noutput.dir = {out}\n")
    code, _, err = run_cli([command, "--config", str(path)])
    assert code == 2
    assert err.startswith(f"config error: line {len(cfg.splitlines()) + 1}: flux.poly:"), err
    assert "flux.burgers_d" in err
    assert not (out / "verdict.txt").exists()


def test_a_run_past_the_step_ceiling_without_a_perturbation(tmp_path, monkeypatch):
    from test_cli_digests import CASES

    monkeypatch.setattr(solver, "step", _no_evolution)
    command, cfg = CASES["simulate"]
    cfg = "".join(ln for ln in cfg.splitlines(True) if not ln.startswith("perturbation."))
    out = tmp_path / "out"
    path = tmp_path / "c.cfg"
    path.write_text(cfg + f"experiment.horizon = 1e300\noutput.dir = {out}\n")
    code, _, err = run_cli([command, "--config", str(path)])
    assert code == 2
    assert err.startswith(f"config error: line {len(cfg.splitlines()) + 1}: "
                          "experiment.horizon: a horizon of 1e+300 takes about"), err
    assert not (out / "verdict.txt").exists()


SCALARS = (config._dimension, config._count, config._finite, config._positive,
           config._nonnegative, config._fraction)
LISTS = (config._parse_floats, config._parse_counts, config._parse_direction,
         config._parse_box)

# finite values out of range, by the keys of the digest configs whose rule
# rejects them before any work; a list key takes the value in every entry,
# and a callable value gives the whole list from the number of entries.
# A key whose rule accepts a value never draws it
OUT_OF_RANGE = {
    "flux.burgers_d": ("-5", "0", "4", "1e300", "1e-300"),   # not 2 or 3; not integers
    "pair.u_minus": ("1e300",),                                # the flux overflows
    "pair.u_plus": ("1e300",),
    "cone.resolution": ("-5", "0"),
    "profile.nu": ("-5", "0", "1e300"),          # inadmissible, no direction, norm overflows
    "profile.slope": ("-5", "1e300"),                          # front ratio above 1
    "perturbation.radius": ("-5", "0"),
    "perturbation.amplitude": ("1e300",),        # overflows the cell averages or wave speed
    "grid.counts": ("-5", "0", "1e300", "1e-300", "100000"),   # 100000: past 2**24 cells
    "experiment.horizon": ("-5", "0"),
    "experiment.snapshot_interval": ("-5", "1e-300"),     # 1e-300: over 10,000 snapshots
    "experiment.threshold": ("-5", "0", "1e300"),
    "experiment.t0": ("-5", "0", "1e300"),                     # 1e300: past the horizon
    # the flux overflows; 100: no residual; 2.5: past the range normalize-check measures
    "experiment.u_ref": ("1e300", "1e150", "100", "2.5"),
    "experiment.settle_steps": ("-5", "0", "1e300", "1e-300", "1000001"),
}
# values past the work ceiling on the number of steps, drawn for the cases
# whose command steps a field: a tiny box makes dx, and so dt, tiny
STEP_CEILING = {
    "grid.box": (lambda n: ",".join(["-1e-300", "1e-300"] * (n // 2)),
                 lambda n: ",".join(["0", "1e-200"] * (n // 2))),
    "experiment.horizon": ("1e300", "1e12"),
}
STEPPING = ("simulate", "stability", "overhead", "dispersion", "support")


def _numeric_keys():
    """(case, key, holds a list, entries) of every numeric key of the digest configs."""
    from test_cli_digests import CASES

    found = []
    for case, (_, cfg) in sorted(CASES.items()):
        for line in cfg.splitlines():
            key, _, value = (part.strip() for part in line.partition("="))
            parser = config.KEYS[key][0]
            if parser in SCALARS or parser in LISTS:
                found.append((case, key, parser in LISTS, len(value.split(","))))
    return found


NUMERIC_KEYS = _numeric_keys()


@st.composite
def broken_numbers(draw):
    """A digest case, one numeric key of it, and a value that key cannot take."""
    from test_cli_digests import CASES

    case, key, is_list, entries = draw(st.sampled_from(NUMERIC_KEYS))
    numbers = st.integers(4, 9).map(str)  # valid floats and valid cell counts
    wrong_length = st.integers(1 if is_list else 2, 7).filter(
        lambda n: not is_list or n != entries)
    not_finite = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999"])
    if is_list:  # one bad entry among the right number of them
        not_finite = not_finite.map(lambda v: ",".join([v] + ["4"] * (entries - 1)))
    kinds = [
        not_finite,
        st.text(alphabet="abcxyz_-+", min_size=1, max_size=5),
        wrong_length.flatmap(lambda n: st.lists(numbers, min_size=n, max_size=n)).map(",".join),
    ]
    out_of_range = OUT_OF_RANGE.get(key, ())
    if CASES[case][0] in STEPPING:
        out_of_range += STEP_CEILING.get(key, ())
    if out_of_range:
        kinds.append(st.sampled_from(out_of_range).map(
            lambda v: v(entries) if callable(v) else ",".join([v] * entries)))
    value = draw(st.one_of(*kinds))
    return case, key, value


@settings(max_examples=150, deadline=None)
@given(broken_numbers())
def test_a_broken_number_fails_before_any_evolution(broken):
    from test_cli_digests import CASES

    case, key, value = broken
    command, cfg = CASES[case]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "step", _no_evolution)
        out = Path(tmp) / "out"
        path = Path(tmp) / "c.cfg"
        # later lines win: the broken value replaces the config's own
        path.write_text(cfg + f"{key} = {value}\noutput.dir = {out}\n")
        code, _, err = run_cli([command, "--config", str(path)])
        assert code == 2, (case, key, value, err)
        assert err.startswith(f"config error: line {len(cfg.splitlines()) + 1}:"), err
        assert not (out / "verdict.txt").exists()


def _scipy_loaded_by(cases, tmp_path):
    """The scipy subpackages one fresh process has loaded after running cases."""
    code = ("import sys\n"
            "from pathlib import Path\n"
            "from test_cli_digests import run_case\n"
            "for name in sys.argv[1:]:\n"
            "    (Path.cwd() / name).mkdir()\n"
            "    assert run_case(name, Path.cwd() / name)['exit_code'] in (0, 1)\n"
            "print(' '.join(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules\n"
            "                       if m.split('.')[0] == 'scipy'})))\n")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    proc = subprocess.run([sys.executable, "-c", code, *cases], capture_output=True,
                          text=True, timeout=300, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_no_command_loads_scipy(tmp_path):
    # scipy takes about a third of a second of CPU to import, and no command
    # needs it: the 2-D and 3-D hulls are monotone chains, the 3-D dual cone
    # is spanned by cross products, and the gauge ball is read off the dual
    # generators, with no linear program
    from test_cli_digests import CASES

    assert {"cone-3d", "simulate-3d"} <= set(CASES)
    assert _scipy_loaded_by(list(CASES), tmp_path) == set()
