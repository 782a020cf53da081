"""The benchmark's workloads: one `shocklab` CLI command and config each.

Seed 0 gives exactly the configs documented in README.md.  Any other seed
moves the perturbation centre by up to 3% of its radius along every axis and
scales its amplitude by up to 2%, which keeps every check passing and the
amount of work nearly the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # shocklab subcommand
    why: str              # one line, mirrored in BENCHMARK.json
    base: dict            # config keys -> values at seed 0
    tiny: dict            # overrides that shrink the workload for the self-test;
                          # at these sizes not every check is expected to pass
    fields: int           # grid fields resident during evolution (working set)
    checks: tuple         # check names verdict.txt must list
    outputs: tuple        # files the command must write besides verdict.txt
    snapshots: int = 0    # snap_*.shkw files the command must write

    def config(self, seed: int, out_dir: str, tiny: bool = False) -> str:
        keys = dict(self.base)
        if tiny:
            keys.update(self.tiny)
        if seed:
            rng = random.Random(seed)
            radius = float(keys["perturbation.radius"])
            center = [float(c) + rng.uniform(-0.03, 0.03) * radius
                      for c in keys["perturbation.center"].split(",")]
            keys["perturbation.center"] = ",".join(repr(c) for c in center)
            amplitude = float(keys["perturbation.amplitude"]) * (1.0 + rng.uniform(-0.02, 0.02))
            keys["perturbation.amplitude"] = repr(amplitude)
        keys["output.dir"] = out_dir
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def cells(self, tiny: bool = False) -> int:
        counts = (self.tiny if tiny else self.base)["grid.counts"]
        return math.prod(int(c) for c in counts.split(","))


STABILITY_CHECKS = tuple(f"lyapunov_cmp{i}" for i in range(5)) + (
    "confinement", "convergence", "mass_identity")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="stability",
        command="stability",
        why="settle, 9 co-evolved fields and steady profile ghost cells dominate; "
            "criterion-3 non-planar case at acceptance size",
        base={
            "flux.burgers_d": "2",
            "pair.u_minus": "1.0",
            "pair.u_plus": "-1.0",
            "cone.resolution": "1e-8",
            "profile.front": "abs_scaled",
            "profile.slope": "0.5",
            "perturbation.shape": "bump",
            "perturbation.center": "2.7,0.0",
            "perturbation.radius": "1.6",
            "perturbation.amplitude": "1.9",
            "grid.counts": "128,256",
            "grid.box": "-3,5,-8,8",
            "experiment.horizon": "10",
            "experiment.settle_steps": "2000",
        },
        tiny={"grid.counts": "32,64", "experiment.horizon": "1",
              "experiment.settle_steps": "100"},
        fields=9,
        checks=STABILITY_CHECKS,
        outputs=("probes.csv", "final.shkw"),
    ),
    Workload(
        name="dispersion",
        command="dispersion",
        why="isolates the step and numerical_flux kernel: no settle, no profile "
            "evaluation, constant background; criterion-6 size",
        base={
            "flux.burgers_d": "2",
            "perturbation.shape": "bump",
            "perturbation.center": "0.0,0.0",
            "perturbation.radius": "1.5",
            "perturbation.amplitude": "0.25",
            "grid.counts": "256,208",
            "grid.box": "-12,20,-13,13",
            "experiment.horizon": "100",
            "experiment.t0": "10",
        },
        tiny={"grid.counts": "64,52", "experiment.horizon": "14"},
        fields=1,
        checks=("bounded_decay", "mass_scaling"),
        outputs=("probes.csv",),
    ),
    Workload(
        name="simulate-3d",
        command="simulate",
        why="3-D Engquist-Osher steps with moving ghost cells; the only workload "
            "where the 3-D cone, mesh sampling and snapshots show",
        base={
            "flux.burgers_d": "3",
            "pair.u_minus": "1.0",
            "pair.u_plus": "-1.0",
            "cone.resolution": "0.05",
            "profile.front": "planar",
            "profile.nu": "0.58,0.0,0.81",
            "perturbation.shape": "bump",
            "perturbation.center": "0.0,0.0,0.0",
            "perturbation.radius": "0.6",
            "perturbation.amplitude": "0.5",
            "grid.counts": "48,48,48",
            "grid.box": "-1.5,1.5,-1.5,1.5,-1.5,1.5",
            "scheme.numerical_flux": "engquist-osher",
            "scheme.frame": "original",
            "experiment.horizon": "0.5",
            "experiment.snapshot_interval": "0.1",
        },
        tiny={"grid.counts": "12,12,12"},
        fields=1,
        checks=("mass_conservation",),
        outputs=("probes.csv", "final.shkw"),
        snapshots=5,
    ),
    Workload(
        name="support",
        command="support",
        why="the third hand-written time loop (support_experiment) and its "
            "per-checkpoint ConvexHull; criterion-5 size",
        base={
            "flux.burgers_d": "2",
            "perturbation.shape": "bump",
            "perturbation.center": "0.0,0.0",
            "perturbation.radius": "1.0",
            "perturbation.amplitude": "0.1",
            "grid.counts": "256,256",
            "grid.box": "-5,15,-5,15",
            "experiment.horizon": "2.5",
            "experiment.threshold": "1e-3",
        },
        tiny={"grid.counts": "64,64", "experiment.horizon": "1"},
        fields=2,
        checks=("containment",),
        outputs=(),
    ),
)}
