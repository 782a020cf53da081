"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that self time is duration minus child spans on a hand-built span
tree, that times are scaled by the calibrated speed, that the correctness
gate flags bad outputs, and that every workload, in both trace modes,
prints exactly the metric names and units of BENCHMARK.json.  At tiny sizes
some experiment checks fail by design; the result must then report the
failures.  Runs in about half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LAYER_METRICS, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def test_self_times() -> None:
    # [id, parent, name, start, end, attrs]
    spans = [
        [1, 0, "cli.main", 0.0, 10.0, None],
        [2, 1, "experiments.settle", 1.0, 4.0, {"max_steps": 3}],
        [3, 2, "solver.step", 1.5, 2.0, {"cells": 100}],
        [4, 2, "solver.step", 2.5, 3.5, {"cells": 100}],
        [5, 1, "solver.run", 5.0, 9.0, None],
        [6, 5, "solver.step", 5.0, 6.0, {"cells": 100}],
        [7, 0, "profiles.ShockProfile.eval", 11.0, 11.25, None],
    ]
    got = self_times(spans)
    want = {1: 10.0 - 3.0 - 4.0, 2: 3.0 - 0.5 - 1.0, 3: 0.5, 4: 1.0,
            5: 4.0 - 1.0, 6: 1.0, 7: 0.25}
    check(got == want, f"self time = duration - child spans: {got}")
    # overlapping children are counted once
    overlap = [[1, 0, "a", 0.0, 10.0, None], [2, 1, "b", 1.0, 4.0, None],
               [3, 1, "c", 3.0, 6.0, None]]
    check(self_times(overlap)[1] == 5.0, "overlapping child spans are counted once")

    m = layer_metrics(spans, overhead_s=0.5)
    check(list(m) == [name for name, _, _ in LAYER_METRICS], "layer_metrics covers LAYER_METRICS")
    check(m["solver.step.calls"] == 3 and m["experiments.settle.steps"] == 2,
          "step calls and settle steps are counted")
    check(m["experiments.settle.converged_frac"] == 1.0, "a settle below its cap converged")
    check(m["solver.step.self_s"] == 2.5
          and m["solver.step.mcells_per_s"] == 300 / 2.5 / 1e6, "step rate from self time")
    check(m["cli.main.self_s"] == 3.0 and m["trace.overhead_s"] == 0.5, "main self time")


def test_own_time() -> None:
    # 10 s of CPU, 0.5 s of it in 4 calibrations with speeds 0.5, 1, 1, 1.5
    check(run.own_time(10.0, [4, 0.5, 4.0]) == (9.5, 9.5, 1.0),
          "calibration time is taken off and the rest scaled by the mean speed")
    check(run.own_time(10.0, [2, 0.5, 1.0]) == (9.5, 4.75, 0.5), "a slow core scales down")
    check(run.own_time(3.0, [0, 0.0, 0.0]) == (3.0, 3.0, 1.0), "no calibration means speed 1")


def test_gate() -> None:
    bench = run.Bench(WORKLOADS["simulate-3d"], seed=0, tiny=True)
    bench.ref_path = bench.dir / "ref.json"
    verdict = "experiment: simulate\nmass_conservation: pass measured=0.0 tol=1e-10\n"

    def outputs(name, verdict_text, files=("probes.csv", "final.shkw"), snaps=5):
        out = bench.dir / name
        out.mkdir()
        (out / "verdict.txt").write_text(verdict_text)
        for f in files:
            (out / f).write_bytes(b"data")
        for k in range(snaps):
            (out / f"snap_{k}.shkw").write_bytes(b"snap")
        return bench.check_outputs(out)

    check(outputs("good", verdict + "overall: pass\n") == [], "passing outputs are accepted")
    check(json.loads(bench.ref_path.read_text()) == bench.first_digests,
          "the first run's digests are stored")
    check(outputs("again", verdict + "overall: pass\n") == [], "identical outputs are accepted")
    gate_cases = [
        ("failed", dict(verdict_text=verdict + "overall: fail\n"), "overall: pass"),
        ("nocheck", dict(verdict_text="overall: pass\n"), "checks missing"),
        ("nofinal", dict(verdict_text=verdict + "overall: pass\n", files=("probes.csv",)),
         "outputs missing"),
        ("snaps", dict(verdict_text=verdict + "overall: pass\n", snaps=4), "snapshots"),
        ("differ", dict(verdict_text=verdict.replace("0.0", "1e-30") + "overall: pass\n"),
         "differ"),
    ]
    for name, kwargs, expect in gate_cases:
        problems = outputs(name, **kwargs)
        check(len(problems) == 1 and expect in problems[0], f"gate flags {name}: {problems}")
    shutil.rmtree(bench.dir)


def test_names_match_benchmark_json() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {w["name"]: w["why"] for w in bench["workloads"]}
    check(listed == {w.name: w.why for w in WORKLOADS.values()},
          "workload names and reasons match BENCHMARK.json")
    check([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == run.END_TO_END,
          "end-to-end metrics match BENCHMARK.json")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == LAYER_METRICS,
          "per-layer metrics match BENCHMARK.json")
    for name in WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                                 "--trace", str(trace), "--tiny"])
            result = json.loads(buf.getvalue().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            check(code == 0 and printed == {m["name"]: m["unit"] for m in declared},
                  f"{name} --trace {trace} prints the declared metrics")
            failed_lines = [ln for ln in buf.getvalue().splitlines() if ln.startswith("FAILED ")]
            check(result["attempted"] >= 1 and result["failed"] == len(failed_lines)
                  and result["correct"] == (result["failed"] == 0),
                  f"{name} --trace {trace} reports {result['failed']} of "
                  f"{result['attempted']} runs failed")


if __name__ == "__main__":
    test_self_times()
    test_own_time()
    test_gate()
    test_names_match_benchmark_json()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
