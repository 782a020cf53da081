"""Child process: runs one `shocklab` CLI command in a fresh interpreter.

    python3 perfbench/child.py SRC MARK SPANS [--setup-only] -- <shocklab args>

SRC is the directory holding the `shocklab` package.  At the first call into
`solver.step` the child writes a line to MARK (a one-shot timestamp, not a
span) and puts the original function back; with `--setup-only` it exits right
there instead.  When the command returns it appends a second line.  SPANS is
"-" for an untraced run; otherwise every public function of the package is
traced and the spans are written to SPANS as JSON when the command returns.

An untraced child also measures how fast the host runs it: every
CALIB_EVERY_S of CPU time a SIGPROF handler times a fixed kernel (see
`Calibration`).  Each MARK line is `monotonic process_time count cpu speed_sum`:
the clocks, then the calibrations so far, the CPU seconds they took, and the
sum of their speeds relative to the reference machine.
"""

import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, install, rebind

CALIB_EVERY_S = 0.01    # CPU seconds between two calibrations
# CPU seconds of one warm calibration kernel on the reference machine, the
# 2-core x86-64 virtual machine with Python 3.11.7 and numpy 2.4.6 of README.md
CALIB_REF_S = 1.65e-4


class Calibration:
    """Times a fixed kernel every CALIB_EVERY_S of CPU time, from a SIGPROF handler.

    The kernel is one Rusanov step of 2-D Burgers along each axis of a 64x64
    grid plus a short interpreter loop: the mix of small numpy operations and
    bytecode a `shocklab` step is made of.  It writes only into buffers it
    allocated up front, and it runs twice per tick with only the second, warm,
    run timed, so it measures the speed of the core at that moment and not the
    state of the heap or the caches the program left.  It does not import
    `shocklab`, so no change to the program moves it.
    """

    N = 64

    def __init__(self):
        x = np.linspace(-1.0, 1.0, self.N)
        self.u0 = 1.0 + 0.5 * np.exp(-4.0 * (x[:, None] ** 2 + x[None, :] ** 2))
        self.u = np.empty_like(self.u0)
        self.f = np.empty_like(self.u0)
        self.g = np.empty_like(self.u0)
        self.count = 0
        self.cpu = 0.0          # CPU seconds spent in the handler
        self.speed_sum = 0.0    # sum of CALIB_REF_S / (time of one warm kernel)
        signal.signal(signal.SIGPROF, self._tick)
        self.start()

    def _kernel(self) -> float:
        np.copyto(self.u, self.u0)
        for u, f, g in ((self.u, self.f, self.g), (self.u.T, self.f.T, self.g.T)):
            left, right, flux, tmp = u[:-1], u[1:], f[:-1], g[:-1]
            np.multiply(left, left, out=flux)
            np.multiply(right, right, out=tmp)
            np.add(flux, tmp, out=flux)
            flux *= 0.25
            np.subtract(right, left, out=tmp)
            tmp *= 0.75                             # half the largest speed, 1.5
            flux -= tmp
            np.subtract(flux[1:], flux[:-1], out=tmp[:-1])
            tmp[:-1] *= 0.4                         # dt / dx
            u[1:-1] -= tmp[:-1]
        s = 0.0
        for i in range(300):
            s += (i % 7) * 0.5
        return float(self.u[0, 0]) + s

    def _tick(self, signum, frame) -> None:
        # thread_time: while the timer is armed, process_time only moves at ticks
        t0 = time.thread_time()
        self._kernel()
        t1 = time.thread_time()
        self._kernel()
        t2 = time.thread_time()
        self.count += 1
        self.cpu += t2 - t0
        self.speed_sum += CALIB_REF_S / max(t2 - t1, 1e-9)

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, CALIB_EVERY_S, CALIB_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def state(self) -> str:
        return f"{self.count} {self.cpu!r} {self.speed_sum!r}"


def mark_line(calib) -> str:
    """Clocks and calibration state; the timer must be stopped for an exact process_time."""
    state = calib.state() if calib else "0 0.0 0.0"
    return f"{time.monotonic()!r} {time.process_time()!r} {state}\n"


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    (src, mark, spans_path, *flags), cli_args = argv[:sep], argv[sep + 1:]
    calib = Calibration() if spans_path == "-" else None
    sys.path.insert(0, src)
    import shocklab.cli
    import shocklab.solver

    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        install(tracer)

    inner = shocklab.solver.step

    def first_step(*args, **kwargs):
        if calib is not None:
            calib.stop()
        Path(mark).write_text(mark_line(calib))
        if "--setup-only" in flags:
            os._exit(0)
        if calib is not None:
            calib.start()
        rebind(first_step, inner)
        return inner(*args, **kwargs)

    rebind(inner, first_step)
    rc = shocklab.cli.main(cli_args)
    if calib is not None:
        calib.stop()
    if Path(mark).is_file():
        with open(mark, "a") as f:
            f.write(mark_line(calib))
    if tracer is not None:
        Path(spans_path).write_text(json.dumps(tracer.spans))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
