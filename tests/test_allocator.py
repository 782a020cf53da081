"""The CLI fixes glibc's allocator thresholds, so steps reuse heap memory.

By default glibc maps every block above 128 KiB afresh, and raises that
threshold only once a large block has been freed.  A run that freed none
mapped each grid-sized temporary of each step anew and faulted its pages in
again: about 400 minor page faults per 128x256 step.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# counts the steps of one `shocklab` command and prints the count
CHILD = """
import sys
sys.path.insert(0, {src!r})
from shocklab import cli, solver
calls = 0
inner = solver.step
def counted(*args, **kwargs):
    global calls
    calls += 1
    return inner(*args, **kwargs)
solver.step = counted
code = cli.main(sys.argv[1:])
print(calls)
sys.exit(code)
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _run(tmp_path, horizon: float) -> tuple[int, int]:
    """(steps, minor page faults) of a `support` run to the horizon."""
    # a bump of radius 1.5 spans about 10 rows of 2,048 cells: the banded
    # steps' arrays are above 128 KiB, and the bump's cells are the only
    # ones sampled at their subsamples, in a mesh far below it
    cfg = tmp_path / f"support-{horizon}.cfg"
    cfg.write_text(
        "flux.burgers_d = 2\n"
        "perturbation.shape = bump\nperturbation.center = 0.0,0.0\n"
        "perturbation.radius = 1.5\nperturbation.amplitude = 0.1\n"
        "grid.counts = 64,2048\ngrid.box = -5,15,-320,320\n"
        f"experiment.horizon = {horizon}\nexperiment.threshold = 1e-3\n"
        f"output.dir = {tmp_path / str(horizon)}\n")
    proc = subprocess.Popen([sys.executable, "-c", CHILD.format(src=str(SRC)), "support",
                             "--config", str(cfg)], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.stdout.close()
    assert os.waitstatus_to_exitcode(status) == 0
    return int(out.split()[-1]), usage.ru_minflt


@pytest.mark.skipif(not hasattr(os, "wait4") or not _has_mallopt(),
                    reason="needs os.wait4 and a libc with mallopt")
def test_steps_reuse_heap_memory(tmp_path):
    steps_a, faults_a = _run(tmp_path, 0.3)
    steps_b, faults_b = _run(tmp_path, 0.9)
    assert steps_b > steps_a + 40
    # a fresh mapping per temporary faults in about 600 pages per step here
    assert (faults_b - faults_a) / (steps_b - steps_a) < 50
