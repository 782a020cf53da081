"""The benchmark's tracer wraps `shocklab` functions by name.

`perfbench/tracing.py` looks each traced name up with `getattr` and rebinds
it, so renaming or inlining one of them in `src/` breaks `perfbench/run.py
--trace 1`.  Installing the tracer in a fresh interpreter catches that here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    code = ("import sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "import tracing\n"
            "tracing.install(tracing.Tracer())\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
