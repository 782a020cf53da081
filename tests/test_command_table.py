"""Each command's row of `cli.COMMANDS` against what the command does.

For every command and every key of `config.KEYS` but output.dir (which every
run sets, and whose directory the pinned outputs are read from):
- a key the row lists is live: changing it changes a pinned output (the exit
  code, stdout or a result file, hashed as in test_cli_digests.py) or is a
  config error at the key's line (or, for a flux of the other dimension, at
  the lines of the keys whose number of entries the flux sets);
- a key the row does not list is a config error at its line, before any work.

So a row cannot list a key that does nothing, and a command cannot accept one.
"""

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import pytest

from shocklab import config, solver
from shocklab import cli
from shocklab.cli import COMMANDS

from test_cli_digests import CASES, TABLE, differing, run_config

# (command, key) -> (digest case, keys set on top of it or dropped (None), a
# new value of key).  A key the case does not make live gets a config that
# does.  {csv} and {csv2} are two front files.
SUM = {"perturbation.shape": "sum", "perturbation.terms": "bump:0.4,0.2,0.5,0.3",
       "perturbation.center": None, "perturbation.radius": None, "perturbation.amplitude": None}
PWL = {"profile.front": "pwl_file", "profile.pwl_path": "{csv}", "profile.nu": None,
       "profile.slope": None, "profile.offset": None}
PLANAR = {"profile.front": "planar", "profile.nu": "1,0", "profile.slope": None}
GAUGE = {"profile.front": "abs_scaled", "profile.slope": "0.5", "profile.nu": None}
POLY = "[[0,0,1],[0,0,0,2]]"   # (s^2, 2 s^3): not Burgers


def _evolving(case, box, counts, center, terms, more=()):
    """The entries shared by the commands that evolve a perturbed field."""
    return {
        "flux.poly": (case, {}, POLY),
        "perturbation.shape": (case, {}, "indicator"),
        "perturbation.center": (case, {}, center),
        "perturbation.radius": (case, {}, "0.45"),
        "perturbation.amplitude": (case, {}, "0.2"),
        "perturbation.terms": (case, dict(SUM, **{"perturbation.terms": terms}),
                               terms.replace("bump", "indicator")),
        "grid.counts": (case, {}, counts),
        "grid.box": (case, {}, box),
        "scheme.numerical_flux": (case, {}, "engquist-osher"),
        "scheme.cfl": (case, {}, "0.2"),
        "scheme.boundary": (case, {}, "outflow"),
        "experiment.horizon": (case, {}, "0.8"),
        **dict(more),
    }


def _profile(case, more=()):
    """The entries shared by the commands that build a shock profile."""
    return {
        "flux.poly": (case, {}, POLY),
        "pair.u_minus": (case, {}, "1.5"),
        "pair.u_plus": (case, {}, "-0.5"),
        "cone.resolution": (case, GAUGE, "0.01"),
        # the keys of one front are refused by another, in errors naming it
        "profile.front": (case, PLANAR, "abs_scaled"),
        "profile.nu": (case, PLANAR, "1,0.2"),
        "profile.offset": (case, {}, "0.2"),
        "profile.slope": (case, GAUGE, "0.3"),
        "profile.pwl_path": (case, PWL, "{csv2}"),
        **dict(more),
    }


LIVE = {}
LIVE.update({("cone", k): v for k, v in {
    "flux.burgers_d": ("cone", {}, "3"),
    "flux.poly": ("cone", {}, POLY),
    "pair.u_minus": ("cone", {}, "1.5"),
    "pair.u_plus": ("cone", {}, "-0.5"),
    "cone.resolution": ("cone", {}, "1e-3"),
}.items()})
LIVE.update({("profile", k): v for k, v in _profile("profile", {
    "flux.burgers_d": ("profile", {}, "3"),
    "grid.box": ("profile", {}, "-3,3,-3,3"),
}.items()).items()})
LIVE.update({("simulate", k): v for k, v in {
    **_profile("simulate"),
    **_evolving("simulate", "-1.5,1.5,-1.2,1.8", "24,24", "0.3,0.2", "bump:0.4,0.2,0.5,0.3", {
        "scheme.frame": ("simulate", {}, "original"),
        "experiment.snapshot_interval": ("simulate", {}, "0.1"),
    }.items()),
    "flux.burgers_d": ("simulate", {}, "3"),
}.items()})
LIVE.update({("stability", k): v for k, v in {
    **_profile("stability"),
    **_evolving("stability", "-4,4,-8,8", "16,32", "2.5,0.5", "bump:2.7,0.0,1.6,1.9", {
        "experiment.snapshot_interval": ("stability", {}, "0.25"),
        # the digest case's stop rule ends its settle before the cap
        "experiment.settle_steps": ("stability", {}, "20"),
    }.items()),
    "flux.burgers_d": ("stability", {}, "3"),
    "perturbation.radius": ("stability", {}, "1.2"),
    "pair.u_plus": ("stability", {}, "-1.5"),  # the amplitude stays below the jump
}.items()})
LIVE.update({("overhead", k): v for k, v in {
    **_profile("overhead"),
    **_evolving("overhead", "-2.5,1.5,-2.5,3.5", "16,24", "-1.0,-0.8", "bump:-1.2,-0.8,0.7,0.5", {
        "scheme.frame": ("overhead", {}, "original"),
        "experiment.eta": ("overhead", {}, "0.2"),
        "experiment.settle_steps": ("overhead", {}, "100"),
    }.items()),
    "flux.burgers_d": ("overhead", {}, "3"),
}.items()})
LIVE.update({("dispersion", k): v for k, v in {
    **_evolving("dispersion", "-7,9,-6.5,6.5", "96,78", "0.5,0.0", "bump:0.0,0.0,1.5,0.25", {
        "experiment.horizon": ("dispersion", {}, "5.0"),
        "experiment.t0": ("dispersion", {}, "3.0"),
        "experiment.u_ref": ("dispersion", {}, "0.1"),
    }.items()),
    "flux.burgers_d": ("dispersion", {}, "3"),
}.items()})
LIVE.update({("support", k): v for k, v in {
    # the containment check reads which cells are above the threshold, so a
    # shift of whole cells would change nothing
    **_evolving("support", "-3.1,8.9,-3,9", "24,24", "0.1,0.05", "bump:0,0,0.8,0.1", {
        "pair.u_minus": ("support", {}, "0.5"),
        "experiment.threshold": ("support", {}, "0.01"),
        # the difference reaches the domain edge only with outflow ghost cells
        "scheme.boundary": ("support", {"perturbation.center": "-1.9,0"}, "outflow"),
        # Rusanov and Engquist-Osher mark the same cells above the threshold
        # at an amplitude of 0.1
        "scheme.numerical_flux": ("support", {"perturbation.amplitude": "0.5"},
                                  "engquist-osher"),
    }.items()),
    "flux.burgers_d": ("support", {}, "3"),
}.items()})
LIVE.update({("normalize-check", k): v for k, v in {
    "flux.burgers_d": ("normalize-check", {}, "3"),
    "flux.poly": ("normalize-check", {}, POLY),
    "experiment.u_ref": ("normalize-check", {}, "0.5"),
}.items()})

# a valid value of each key, given to a command that does not read it
SAMPLE = {
    "flux.burgers_d": "2", "flux.poly": "[[0,0,1],[0,0,0,1]]",
    "pair.u_minus": "1.0", "pair.u_plus": "-1.0", "cone.resolution": "1e-3",
    "profile.front": "planar", "profile.nu": "1,0", "profile.offset": "0.1",
    "profile.slope": "0.5", "profile.pwl_path": "front.csv",
    "perturbation.shape": "bump", "perturbation.center": "0,0", "perturbation.radius": "0.5",
    "perturbation.amplitude": "0.1", "perturbation.terms": "bump:0,0,0.5,0.1",
    "grid.counts": "32,32", "grid.box": "-1,1,-1,1",
    "scheme.numerical_flux": "engquist-osher", "scheme.cfl": "0.2",
    "scheme.boundary": "outflow", "scheme.frame": "original",
    "experiment.horizon": "1.0", "experiment.snapshot_interval": "0.5",
    "experiment.threshold": "0.01", "experiment.eta": "0.1", "experiment.t0": "1.0",
    "experiment.u_ref": "0.5", "experiment.settle_steps": "100",
}

PAIRS = [(command, key) for command in COMMANDS for key in config.KEYS if key != "output.dir"]


def _replace(cfg: str, key: str, value: str | None) -> str:
    """cfg with key set to value on a line of its own at the end, or without
    key if value is None; a flux key takes the place of the other one."""
    drop = {key} | ({"flux.poly", "flux.burgers_d"} if key.startswith("flux.") else set())
    lines = [ln for ln in cfg.splitlines() if ln.partition("=")[0].strip() not in drop]
    return "\n".join(lines + ([] if value is None else [f"{key} = {value}"])) + "\n"


def _line(cfg: str, key: str) -> int:
    return [ln.partition("=")[0].strip() for ln in cfg.splitlines()].index(key) + 1


def _run(command, cfg, files):
    with tempfile.TemporaryDirectory() as tmp:
        return run_config(command, cfg.format(**files), Path(tmp))


BASES = {}  # (command, config) -> its record and standard error, run once


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fronts")
    (root / "front.csv").write_text("y,psi\n-1,0\n0,0.3\n1,0\n")
    (root / "front2.csv").write_text("y,psi\n-1,0\n0,0.2\n1,0\n")
    return {"csv": root / "front.csv", "csv2": root / "front2.csv"}


def test_the_sample_values_parse():
    assert set(SAMPLE) == set(config.KEYS) - {"output.dir"}
    for key, value in SAMPLE.items():
        config.KEYS[key][0](value)


@pytest.mark.parametrize("command, key", PAIRS)
def test_a_key_is_live_or_refused(command, key, files, monkeypatch):
    if (command, key) not in LIVE:
        monkeypatch.setattr(solver, "step", lambda *a, **k: pytest.fail("evolved"))
        cfg = _replace(CASES[command][1], key, SAMPLE[key])
        record, err = _run(command, cfg, files)
        assert record["exit_code"] == 2
        assert err == (f"config error: line {_line(cfg, key)}: {key}: {command} does not "
                       f"read this key\n")
        return
    case, extra, value = LIVE[command, key]
    assert CASES[case][0] == command
    base = CASES[case][1]
    for k, v in extra.items():
        base = _replace(base, k, v)
    if extra:
        if (command, base) not in BASES:
            BASES[command, base] = _run(command, base, files)
        want, err = BASES[command, base]
        assert want["exit_code"] in (0, 1), err
    else:
        want = json.loads(TABLE.read_text())["cases"][case]
    cfg = _replace(base, key, value)
    got, err = _run(command, cfg, files)
    assert f": {command} does not read" not in err
    if got["exit_code"] != 2:
        assert differing(want, got), f"{key} = {value} changes no output of {command}"
    elif key == "flux.burgers_d" and "entries, but the flux" in err:
        # a flux of the other dimension is refused at the lines of the keys
        # whose numbers of entries it sets, each in a message naming it
        assert all(f"the flux ({key}) has 3 components" in ln for ln in err.splitlines()), err
    elif key in config.VARIANTS and "does not read this key" in err:
        # another variant is refused at the lines of the keys it does not read
        assert all(f"{key} = {value} does not read" in ln for ln in err.splitlines()), err
    else:
        assert err.startswith(f"config error: line {_line(cfg, key)}: {key}"), err


def _workloads():
    """perfbench/workloads.py's WORKLOADS, imported without touching perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("name", sorted(_workloads()))
def test_every_benchmark_workload_passes_the_load_path(name, seed, tiny, tmp_path):
    workload = _workloads()[name]
    path = tmp_path / "w.cfg"
    path.write_text(workload.config(seed, str(tmp_path / "out"), tiny=tiny))
    cli._load_config(str(path), [], workload.command)


# (variant key, variant, a key that variant does not read, its value)
UNREAD = [
    ("profile.front", "abs_scaled", "profile.nu", "1,0"),
    ("profile.front", "pwl_file", "profile.nu", "1,0"),
    ("profile.front", "planar", "profile.slope", "0.5"),
    ("profile.front", "pwl_file", "profile.slope", "0.5"),
    ("profile.front", "planar", "profile.pwl_path", "{csv}"),
    ("profile.front", "abs_scaled", "profile.pwl_path", "{csv}"),
    ("profile.front", "pwl_file", "profile.offset", "0.1"),
    ("perturbation.shape", "bump", "perturbation.terms", "bump:2.7,0.0,1.6,1.9"),
    ("perturbation.shape", "indicator", "perturbation.terms", "bump:2.7,0.0,1.6,1.9"),
    ("perturbation.shape", "sum", "perturbation.center", "2.7,0.0"),
    ("perturbation.shape", "sum", "perturbation.radius", "1.6"),
    ("perturbation.shape", "sum", "perturbation.amplitude", "1.9"),
]
# what each variant needs on top of the stability digest case, less what it refuses
NEEDS = {"planar": {"profile.nu": "1,0", "profile.slope": None},
         "abs_scaled": {},
         "pwl_file": {"profile.pwl_path": "{csv}", "profile.slope": None},
         "bump": {}, "indicator": {},
         "sum": {"perturbation.terms": "bump:2.7,0.0,1.6,1.9", "perturbation.center": None,
                 "perturbation.radius": None, "perturbation.amplitude": None}}


@pytest.mark.parametrize("variant_key, variant, key, value", UNREAD)
def test_a_key_the_variant_does_not_read_is_refused(variant_key, variant, key, value, files,
                                                     monkeypatch):
    base = _replace(CASES["stability"][1], variant_key, variant)
    for k, v in NEEDS[variant].items():
        base = _replace(base, k, v)
    if ("stability", base) not in BASES:
        BASES["stability", base] = _run("stability", base, files)
    record, err = BASES["stability", base]
    assert record["exit_code"] in (0, 1), err
    cfg = _replace(base, key, value)
    monkeypatch.setattr(solver, "step", lambda *a, **k: pytest.fail("evolved"))
    record, err = _run("stability", cfg, files)
    assert record["exit_code"] == 2
    assert err == (f"config error: line {_line(cfg, key)}: {key}: {variant_key} = {variant} "
                   f"does not read this key\n")


# simulate builds a perturbation only from a perturbation.shape
ORPHANS = {"perturbation.center": "0.4,0.2", "perturbation.radius": "0.5",
           "perturbation.amplitude": "0.3", "perturbation.terms": "bump:0.4,0.2,0.5,0.3"}


@pytest.mark.parametrize("keys", [[k] for k in ORPHANS] + [list(ORPHANS)])
def test_simulate_refuses_a_perturbation_key_without_a_shape(keys, files, monkeypatch):
    base = _replace(CASES["simulate"][1], "perturbation.shape", None)
    for k in ORPHANS:
        base = _replace(base, k, None)
    if ("simulate", base) not in BASES:
        BASES["simulate", base] = _run("simulate", base, files)
    record, err = BASES["simulate", base]
    assert record["exit_code"] in (0, 1), err  # unperturbed
    cfg = base
    for k in keys:
        cfg = _replace(cfg, k, ORPHANS[k])
    monkeypatch.setattr(solver, "step", lambda *a, **k: pytest.fail("evolved"))
    record, err = _run("simulate", cfg, files)
    assert record["exit_code"] == 2
    assert err == "".join(f"config error: line {_line(cfg, k)}: {k}: without perturbation.shape "
                          f"nothing reads this key\n" for k in keys)
