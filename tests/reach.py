"""List the statements of `src/shocklab` that no CLI digest case executes.

Runs every case of `CASES` in tests/test_cli_digests.py in one process under
`sys.settrace`, importing the package inside the trace so that its
module-level statements count too, and prints, per module, the first lines
of the statements that none of the cases executed, as ranges of consecutive
unexecuted statements.  It needs no coverage package and takes a few
seconds:

    python tests/reach.py

The digest cases take only the paths of valid configs.  A line listed here is
unreached by them, not dead: an error path (a config error, a refused flux, a
typed ShockLabError) is reached by tests/test_cli.py and the unit tests,
which this probe does not run.  Pytest does not collect this file.
"""

import ast
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shocklab"


def statements(path: Path) -> list[int]:
    """The first lines of a module's statements that compile to code: its
    docstrings, and declarations such as `global`, leave no line in any code
    object, so no trace can report them."""
    source = path.read_text(encoding="utf-8")
    stmts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return sorted(stmts & lines)


def ranges(stmts: list[int], ran: set[int]) -> list[str]:
    """The runs of statements not in ran, as 'first-last' (or 'line')."""
    out, run = [], []
    for line in stmts + [None]:
        if line is not None and line not in ran:
            run.append(line)
        elif run:
            out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else f"{run[0]}")
            run = []
    return out


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(SRC)
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace)
    try:
        from test_cli_digests import CASES, run_case

        for name in sorted(CASES):
            with tempfile.TemporaryDirectory() as tmp:
                run_case(name, Path(tmp))
    finally:
        sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        lines = {line for file, line in ran if file == str(path)}
        missed = ranges(statements(path), lines)
        print(f"{path.name}: {', '.join(missed) if missed else '-'}")


if __name__ == "__main__":
    main()
