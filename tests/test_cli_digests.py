"""Every CLI command on a small config, pinned by SHA-256 against a committed table.

Each case runs one command in-process and hashes its exit code, its standard
output and every output file that carries results: verdict.txt (every
measured value and tolerance, so check margins are pinned too), probes.csv,
front.csv, final.shkw and each snap_*.shkw.  The table, cli_digests.json, was
generated by the program as it was before the single evolution engine; a
refactor must leave every digest unchanged.  A change that is meant to move
an output regenerates the table and says which outputs changed and why:

    PYTHONPATH=src python tests/test_cli_digests.py

Digests depend on the numpy build (its SIMD kernels for exp, tanh and sums),
so the table records the numpy version that generated it.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from shocklab.cli import main

TABLE = Path(__file__).with_name("cli_digests.json")
PINNED = ("verdict.txt", "probes.csv", "front.csv", "final.shkw", "snap_*.shkw")

BURGERS2 = "flux.burgers_d = 2\npair.u_minus = 1.0\npair.u_plus = -1.0\n"
BURGERS3 = "flux.burgers_d = 3\npair.u_minus = 1.0\npair.u_plus = -1.0\n"
BUMP = "perturbation.shape = bump\nperturbation.center = {c}\nperturbation.radius = {r}\n" \
       "perturbation.amplitude = {a}\n"
PLANAR = "profile.front = planar\nprofile.nu = 1,0\n"
OVERHEAD = (BURGERS2 + PLANAR + "grid.counts = 32,48\ngrid.box = -2.5,1.5,-3,3\n"
            + BUMP.format(c="-1.2,-0.8", r=0.7, a=0.5)
            + "experiment.horizon = 2.0\nexperiment.settle_steps = 120\n")

# name -> (command, config without output.dir)
CASES = {
    "cone": ("cone", BURGERS2 + "cone.resolution = 1e-6\n"),
    "cone-3d": ("cone", BURGERS3 + "cone.resolution = 0.05\n"),
    "profile": ("profile", BURGERS2 + "profile.front = abs_scaled\nprofile.slope = 0.5\n"
                "grid.counts = 32,32\ngrid.box = -2,2,-2,2\n"),
    "simulate": ("simulate", BURGERS2 + PLANAR + "grid.counts = 32,32\n"
                 "grid.box = -1.5,1.5,-1.5,1.5\n" + BUMP.format(c="0.4,0.2", r=0.5, a=0.3)
                 + "experiment.horizon = 0.4\nexperiment.snapshot_interval = 0.2\n"),
    # moving ghost cells, Engquist-Osher and snapshots in 3-D
    "simulate-3d": ("simulate", BURGERS3 + "cone.resolution = 0.05\nprofile.front = planar\n"
                    "profile.nu = 0.58,0.0,0.81\ngrid.counts = 12,12,12\n"
                    "grid.box = -1.5,1.5,-1.5,1.5,-1.5,1.5\n"
                    + BUMP.format(c="0.0,0.0,0.0", r=0.6, a=0.5)
                    + "scheme.numerical_flux = engquist-osher\nscheme.frame = original\n"
                    "experiment.horizon = 0.3\nexperiment.snapshot_interval = 0.1\n"),
    "stability": ("stability", BURGERS2 + "cone.resolution = 1e-8\nprofile.front = abs_scaled\n"
                  "profile.slope = 0.5\ngrid.counts = 32,64\ngrid.box = -3,5,-8,8\n"
                  + BUMP.format(c="2.7,0.0", r=1.6, a=1.9)
                  + "experiment.horizon = 1.0\nexperiment.settle_steps = 60\n"
                  "experiment.snapshot_interval = 0.5\n"),
    "overhead": ("overhead", OVERHEAD),
    # settle against a moving background
    "overhead-original": ("overhead", OVERHEAD + "scheme.frame = original\n"),
    "dispersion": ("dispersion", "flux.burgers_d = 2\ngrid.counts = 48,39\n"
                   "grid.box = -6,10,-6.5,6.5\n" + BUMP.format(c="0.0,0.0", r=1.5, a=0.25)
                   + "experiment.horizon = 6.0\nexperiment.t0 = 2.0\n"),
    "support": ("support", BURGERS2 + "grid.counts = 48,48\ngrid.box = -3,9,-3,9\n"
                + BUMP.format(c="0,0", r=0.8, a=0.1) + "experiment.horizon = 1.0\n"),
    "normalize-check": ("normalize-check", "flux.burgers_d = 2\nexperiment.u_ref = 0.8\n"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: Path) -> dict[str, object]:
    """Run one case; return its exit code and the digest of each pinned output."""
    command, cfg = CASES[name]
    out = workdir / "out"
    path = workdir / f"{name}.cfg"
    path.write_text(cfg + f"output.dir = {out}\n", encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main([command, "--config", str(path)], stdout=stdout, stderr=stderr)
    record = {"exit_code": code, "stdout": _sha(stdout.getvalue().encode())}
    for pattern in PINNED:
        for p in sorted(out.glob(pattern)):
            record[p.name] = _sha(p.read_bytes())
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_pinned_digests(name, tmp_path):
    table = json.loads(TABLE.read_text())
    want = table["cases"][name]
    got = run_case(name, tmp_path)
    differ = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    assert not differ, (
        f"{name}: {', '.join(differ)} differ from {TABLE.name} (generated with numpy "
        f"{table['numpy']}; this is numpy {np.__version__})")


if __name__ == "__main__":
    import tempfile

    cases = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            cases[name] = run_case(name, Path(tmp))
        print(name, cases[name]["exit_code"], file=sys.stderr)
    TABLE.write_text(json.dumps({"numpy": np.__version__, "cases": cases}, indent=1) + "\n")
