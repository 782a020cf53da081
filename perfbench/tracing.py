"""Spans around the public functions of each `shocklab` module.

The tracer lives in the benchmark's child process.  `install` wraps each
traced function and rebinds the name in the module that defines it and in
every `shocklab` module that imported it by name, so calls made through any
of those names are recorded.  Spans stay in memory as
`[id, parent_id, name, start, end, attrs]` and are written out when the child
ends; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# (metric name, unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = [
    ("solver.step.calls", "count", "lower"),
    ("solver.step.self_s", "s", "lower"),
    ("solver.step.mcells_per_s", "Mcell/s", "higher"),
    ("solver.numerical_flux.self_s", "s", "lower"),
    ("solver.run.self_s", "s", "lower"),
    ("solver.l1_distance.calls", "count", "lower"),
    ("solver.l1_distance.self_s", "s", "lower"),
    ("solver.sample_profile.s", "s", "lower"),
    ("solver.sample_function.s", "s", "lower"),
    ("experiments.settle.calls", "count", "lower"),
    ("experiments.settle.steps", "count", "lower"),
    ("experiments.settle.s", "s", "lower"),
    ("experiments.settle.converged_frac", "frac", "higher"),
    ("experiments.stability_experiment.self_s", "s", "lower"),
    ("experiments.support_experiment.self_s", "s", "lower"),
    ("experiments.support_hull.s", "s", "lower"),
    ("profiles.ShockProfile.eval.calls", "count", "lower"),
    ("profiles.ShockProfile.eval.self_s", "s", "lower"),
    ("profiles.extract_front.s", "s", "lower"),
    ("profiles.make_graph.calls", "count", "lower"),
    ("profiles.make_graph.s", "s", "lower"),
    ("cones.admissible_cone.s", "s", "lower"),
    ("cones.dual_cone.s", "s", "lower"),
    ("fluxes.oleinik_admissible.calls", "count", "lower"),
    ("config.load.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("snapshots.write_snapshot.calls", "count", "lower"),
    ("snapshots.write_snapshot.bytes", "B", "lower"),
    ("snapshots.write_snapshot.s", "s", "lower"),
    ("snapshots.write_probes_csv.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [0]          # ids of the open spans; 0 is the root

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], name, clock(), 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return traced


def rebind(original, replacement) -> None:
    """Point every `shocklab` module-level name bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "shocklab" or modname.startswith("shocklab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _step_attrs(args, kwargs, result):
    return {"cells": args[0].grid.ncells}


def _settle_attrs(signature):
    def attrs(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"max_steps": bound.arguments["max_steps"]}
    return attrs


def _file_attrs(path_index: int):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_index])}
    return attrs


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of an imported `shocklab` package."""
    import shocklab.cli as cli
    import shocklab.cones as cones
    import shocklab.config as config
    import shocklab.experiments as experiments
    import shocklab.fluxes as fluxes
    import shocklab.profiles as profiles
    import shocklab.snapshots as snapshots
    import shocklab.solver as solver

    targets = [
        (solver, "step", _step_attrs),
        (solver, "numerical_flux", None),
        (solver, "run", None),
        (solver, "l1_distance", None),
        (solver, "sample_profile", None),
        (solver, "sample_function", None),
        (experiments, "settle", _settle_attrs(inspect.signature(experiments.settle))),
        (experiments, "stability_experiment", None),
        (experiments, "support_experiment", None),
        (experiments, "support_hull", None),
        (profiles, "extract_front", None),
        (profiles, "make_graph", None),
        (cones, "admissible_cone", None),
        (cones, "dual_cone", None),
        (fluxes, "oleinik_admissible", None),
        (config, "tokenize", None),
        (config, "validate", None),
        (cli, "main", None),
        (snapshots, "write_snapshot", _file_attrs(1)),
        (snapshots, "write_probes_csv", _file_attrs(2)),
    ]
    for module, attr, attrs in targets:
        original = getattr(module, attr)
        short = module.__name__.rsplit(".", 1)[-1]
        rebind(original, tracer.wrap(f"{short}.{attr}", original, attrs))
    # Background captures the bound method, so patch the class itself
    # before any profile is built.
    profiles.ShockProfile.eval = tracer.wrap("profiles.ShockProfile.eval",
                                             profiles.ShockProfile.eval)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s[3], s[4]
        covered, reach = 0.0, lo
        for c in sorted(children.get(s[0], ()), key=lambda c: c[3]):
            start, end = max(c[3], reach), min(c[4], hi)
            if end > start:
                covered += end - start
                reach = end
        out[s[0]] = (hi - lo) - covered
    return out


def layer_metrics(spans, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, each of LAYER_METRICS."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def incl(*names):
        return sum(s[4] - s[3] for n in names for s in by_name.get(n, ()))

    def self_s(name):
        return sum(selfs[s[0]] for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s[5][key] for s in by_name.get(name, ()))

    settles = by_name.get("experiments.settle", [])
    steps_in = {s[0]: 0 for s in settles}
    for s in by_name.get("solver.step", ()):
        if s[1] in steps_in:
            steps_in[s[1]] += 1
    converged = sum(1 for s in settles if steps_in[s[0]] < s[5]["max_steps"])
    step_self = self_s("solver.step")
    step_cells = total("solver.step", "cells")

    return {
        "solver.step.calls": calls("solver.step"),
        "solver.step.self_s": step_self,
        "solver.step.mcells_per_s": step_cells / step_self / 1e6 if step_self > 0 else 0.0,
        "solver.numerical_flux.self_s": self_s("solver.numerical_flux"),
        "solver.run.self_s": self_s("solver.run"),
        "solver.l1_distance.calls": calls("solver.l1_distance"),
        "solver.l1_distance.self_s": self_s("solver.l1_distance"),
        "solver.sample_profile.s": incl("solver.sample_profile"),
        "solver.sample_function.s": incl("solver.sample_function"),
        "experiments.settle.calls": len(settles),
        "experiments.settle.steps": sum(steps_in.values()),
        "experiments.settle.s": incl("experiments.settle"),
        "experiments.settle.converged_frac": converged / len(settles) if settles else 0.0,
        "experiments.stability_experiment.self_s": self_s("experiments.stability_experiment"),
        "experiments.support_experiment.self_s": self_s("experiments.support_experiment"),
        "experiments.support_hull.s": incl("experiments.support_hull"),
        "profiles.ShockProfile.eval.calls": calls("profiles.ShockProfile.eval"),
        "profiles.ShockProfile.eval.self_s": self_s("profiles.ShockProfile.eval"),
        "profiles.extract_front.s": incl("profiles.extract_front"),
        "profiles.make_graph.calls": calls("profiles.make_graph"),
        "profiles.make_graph.s": incl("profiles.make_graph"),
        "cones.admissible_cone.s": incl("cones.admissible_cone"),
        "cones.dual_cone.s": incl("cones.dual_cone"),
        "fluxes.oleinik_admissible.calls": calls("fluxes.oleinik_admissible"),
        "config.load.s": incl("config.tokenize", "config.validate"),
        "cli.main.self_s": self_s("cli.main"),
        "snapshots.write_snapshot.calls": calls("snapshots.write_snapshot"),
        "snapshots.write_snapshot.bytes": total("snapshots.write_snapshot", "bytes"),
        "snapshots.write_snapshot.s": incl("snapshots.write_snapshot"),
        "snapshots.write_probes_csv.s": incl("snapshots.write_probes_csv"),
        "trace.overhead_s": overhead_s,
    }
