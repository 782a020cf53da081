"""Benchmark of the `shocklab` CLI: end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured run is a fresh `python3` process that executes one `shocklab`
command through perfbench/child.py.  With `--trace 0` the benchmark alternates
set-up probes (children that exit at the first `solver.step` call) with full
runs until S seconds have passed, at least one of each, tops the set-up
samples up to SETUP_SAMPLES with more probes, and reports medians of the
end-to-end metrics.  Times are the child's own CPU seconds (user + system,
less its calibrations) scaled to the reference speed by the calibrations the
child makes while it runs (see perfbench/child.py); the raw CPU and wall
times are printed and recorded beside them.  With `--trace 1` it makes one
traced full run, without calibrations, and reports its per-layer metrics.
The tracing overhead is measured against the median own CPU time of the last
passing `--trace 0` run of the same workload and seed, or else against one
more, untraced, full run.  Every run's outputs are checked; the last line of
standard output is the JSON result.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
DEADLINE_S = 170.0   # every run ends well inside the 180 s a run may take
SETUP_SAMPLES = 3    # set-up is timed at least this often per run
# The program's arrays are far too small for threaded BLAS to pay off, but an
# idle OpenBLAS worker thread spins for a while after each call, which adds
# CPU time and competes with the main thread for the host's cores.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")

# (metric name, unit, better); the order is the order of BENCHMARK.json
END_TO_END = [
    ("norm_cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]


class Bench:
    """One invocation: spawns children for one workload and checks their outputs."""

    def __init__(self, workload, seed: int, tiny: bool):
        self.w = workload
        self.seed = seed
        self.tiny = tiny
        tag = f"{workload.name}-seed{seed}" + ("-tiny" if tiny else "")
        self.dir = OUT / tag
        self.ref_path = OUT / "ref" / f"{tag}.json"
        self.t_begin = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.first_digests = None
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def spawn(self, setup_only: bool = False, traced: bool = False) -> dict:
        """Run one child; return its times, peak RSS and any spans it wrote."""
        self.attempted += 1
        run_dir = self.dir / f"run{self.attempted}"
        out_dir = run_dir / "out"
        run_dir.mkdir()
        cfg = run_dir / "workload.cfg"
        cfg.write_text(self.w.config(self.seed, str(out_dir), self.tiny), encoding="utf-8")
        mark, spans = run_dir / "mark", run_dir / "spans.json"
        argv = [sys.executable, str(CHILD), str(SRC), str(mark),
                str(spans) if traced else "-"]
        argv += (["--setup-only"] if setup_only else []) + [
            "--", self.w.command, "--config", str(cfg)]
        remaining = DEADLINE_S - (time.monotonic() - self.t_begin)
        with open(run_dir / "child.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=log,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(max(remaining, 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
        # a child that never reached solver.step fails; its whole run bounds its set-up
        cpu = usage.ru_utime + usage.ru_stime
        reached = mark.is_file()
        lines = [[float(x) for x in ln.split()] for ln in mark.read_text().splitlines()] \
            if reached else [[t0 + wall, cpu, 0, 0.0, 0.0]]
        at_step, cpu_at_step, *calib_at_step = lines[0]
        calib_end = lines[-1][2:]   # a set-up probe exits right after its first line
        res = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "setup_wall_s": at_step - t0}
        res["cpu_s"], res["norm_cpu_s"], res["speed"] = own_time(cpu, calib_end)
        res["setup_cpu_s"], res["setup_s"], _ = own_time(cpu_at_step, calib_at_step)
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}")
        if not reached:
            problems.append("never reached solver.step")
        if not setup_only and not problems:
            problems += self.check_outputs(out_dir)
        if spans.is_file():
            res["spans"] = json.loads(spans.read_text())
        if problems:
            kind = "setup probe" if setup_only else "traced run" if traced else "run"
            self.failures.append(f"{kind} {self.attempted}: " + "; ".join(problems)
                                 + f" (log kept in {run_dir})")
        else:
            shutil.rmtree(run_dir)
        return res

    def check_outputs(self, out_dir: Path) -> list[str]:
        problems = []
        verdict = out_dir / "verdict.txt"
        lines = verdict.read_text().splitlines() if verdict.is_file() else []
        if not lines or lines[-1] != "overall: pass":
            problems.append("verdict.txt does not end in 'overall: pass'")
        listed = {ln.split(":", 1)[0] for ln in lines}
        missing = [c for c in self.w.checks if c not in listed]
        if missing:
            problems.append(f"checks missing from verdict.txt: {missing}")
        absent = [f for f in self.w.outputs if not (out_dir / f).is_file()]
        if absent:
            problems.append(f"outputs missing: {absent}")
        snaps = len(list(out_dir.glob("snap_*.shkw")))
        if snaps != self.w.snapshots:
            problems.append(f"{snaps} snapshots written, expected {self.w.snapshots}")
        if problems:
            return problems
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.iterdir())}
        if self.first_digests is None:
            self.first_digests = digests
            if self.ref_path.is_file():
                ref = json.loads(self.ref_path.read_text())
                if ref != digests:
                    problems.append(f"outputs differ from an earlier run ({self.ref_path})")
            else:
                self.ref_path.parent.mkdir(parents=True, exist_ok=True)
                self.ref_path.write_text(json.dumps(digests, indent=1))
        elif digests != self.first_digests:
            problems.append("outputs differ from the first run of this invocation")
        return problems

    def elapsed(self) -> float:
        return time.monotonic() - self.t_begin


def own_time(cpu: float, calib) -> tuple[float, float, float]:
    """The program's own CPU time, that time at the reference speed, and the speed.

    `calib` is a child's calibration state `count cpu speed_sum`.  The
    calibrations' own CPU time is taken off; the rest is scaled by their mean
    speed relative to the reference machine.  Without calibrations the speed
    is taken as 1.
    """
    count, calib_cpu, speed_sum = calib
    speed = speed_sum / count if count else 1.0
    own = cpu - calib_cpu
    return own, own * speed, speed


def machine_record() -> dict:
    def cache(level):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
            return int(out) if out else None
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "l2_bytes": cache(2),
        "l3_bytes": cache(3),
    }


def warm_up() -> None:
    """Import the package once, untimed, so every timed child finds its bytecode.

    The bytecode is written even where PYTHONDONTWRITEBYTECODE is set, so that
    set-up time does not depend on the caller's environment.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import shocklab.cli"
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120)


def untraced_median(tag: str) -> float | None:
    """Median own CPU time of the last passing `--trace 0` run of this workload and seed."""
    path = OUT / f"{tag}-trace0.json"
    if not path.is_file():
        return None
    record = json.loads(path.read_text())
    if not record["result"]["correct"]:
        return None
    return statistics.median(record["samples"]["cpu_s"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to seconds; used by perfbench/selftest.py")
    args = ap.parse_args(argv)

    if not (SRC / "shocklab" / "cli.py").is_file():
        print(f"error: the shocklab package is not at {SRC / 'shocklab'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    machine = machine_record()
    cells = w.cells(args.tiny)
    working_set_mb = cells * 8 * w.fields / 1e6
    print("machine " + json.dumps(machine))
    print(f"working_set {working_set_mb:.3f} MB = {cells} cells x 8 B x {w.fields} fields")
    llc = machine["l3_bytes"] or machine["l2_bytes"]
    if llc and cells * 8 * w.fields < 4 * llc:
        print(f"roofline omitted: the working set is smaller than 4x the last-level cache "
              f"({llc / 1e6:.1f} MB), so no bandwidth bound applies")

    warm_up()
    bench = Bench(w, args.seed, args.tiny)
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "machine": machine, "working_set_mb": working_set_mb}
    if args.trace == 0:
        full_keys = ("norm_cpu_s", "cpu_s", "wall_s", "speed", "peak_rss_mb")
        setup_keys = ("setup_s", "setup_cpu_s", "setup_wall_s")
        samples = {k: [] for k in full_keys + setup_keys}

        def measure(setup_only=False):
            res = bench.spawn(setup_only=setup_only)
            for k in setup_keys if setup_only else full_keys + setup_keys:
                samples[k].append(res[k])

        while True:
            measure(setup_only=True)
            measure()
            if bench.failures or bench.elapsed() >= args.seconds:
                break
        while len(samples["setup_s"]) < SETUP_SAMPLES and not bench.failures:
            measure(setup_only=True)
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit, _ in END_TO_END}
        record["samples"] = samples
        # the raw times and the speeds are printed for reference, not reported as metrics
        for name, v in samples.items():
            unit = {"peak_rss_mb": "MiB", "speed": "x"}.get(name, "s")
            print(f"{name} median={statistics.median(v)!r} {unit} n={len(v)} "
                  f"min={min(v)!r} max={max(v)!r}")
    else:
        untraced = untraced_median(bench.dir.name)
        if untraced is None:
            untraced = bench.spawn()["cpu_s"]
        traced = bench.spawn(traced=True)
        spans = traced.get("spans", [])
        values = layer_metrics(spans, traced["cpu_s"] - untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        record.update(untraced_cpu_s=untraced, traced_cpu_s=traced["cpu_s"],
                      traced_wall_s=traced["wall_s"], spans=len(spans))
        for name, unit, _ in LAYER_METRICS:
            print(f"{name} {values[name]!r} {unit}")

    failed = len(bench.failures)
    for f in bench.failures:
        print(f"FAILED {f}")
    print(f"failed_frac {failed}/{bench.attempted} = {failed / bench.attempted!r}")
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    record["failures"] = bench.failures
    (OUT / f"{bench.dir.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
