"""Snapshot, probe-series, and verdict file I/O.

Snapshot format SHKW1, little-endian throughout:
magic "SHKW1" | u32 d | u32 counts[d] | f64 box[2d] (lo, hi per axis) |
f64 time | f64 cell data, row major.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, BadSnapshot, TruncatedFile
from .experiments import ExperimentReport
from .solver import Field, Grid

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_probes_csv",
    "format_verdict",
]

MAGIC = b"SHKW1"


def write_snapshot(field: Field, path, time: float = 0.0) -> None:
    g = field.grid
    box = []
    for i in range(g.d):
        box.extend([g.lo[i], g.hi[i]])
    payload = bytearray()
    payload += MAGIC
    payload += struct.pack("<I", g.d)
    payload += struct.pack(f"<{g.d}I", *g.counts)
    payload += struct.pack(f"<{2 * g.d}d", *box)
    payload += struct.pack("<d", float(time))
    payload += np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(payload))


def read_snapshot(path) -> tuple[Field, float]:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"{path}: expected magic {MAGIC!r}")
    off = len(MAGIC)

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(raw):
            raise TruncatedFile(f"{path}: needed {size} bytes at offset {off}")
        out = struct.unpack_from(fmt, raw, off)
        off += size
        return out

    (d,) = take("<I")
    if d not in (2, 3):
        raise BadMagic(f"{path}: unsupported dimension {d}")
    counts = take(f"<{d}I")
    box = take(f"<{2 * d}d")
    (time,) = take("<d")
    if min(counts) < 4 or not np.all(np.isfinite(box)):
        raise BadSnapshot(f"{path}: counts {counts} and box {box} form no grid")
    try:
        grid = Grid.from_box(box, counts)
    except ValueError as exc:
        raise BadSnapshot(f"{path}: {exc}") from None
    n = math.prod(counts)
    end = off + n * 8
    if end > len(raw):
        raise TruncatedFile(f"{path}: payload holds {(len(raw) - off) // 8} of {n} cells")
    if end < len(raw):
        raise BadSnapshot(f"{path}: {len(raw) - end} bytes follow the payload of {n} cells")
    values = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(counts)
    if not np.all(np.isfinite(values)):
        raise BadSnapshot(f"{path}: non-finite cell values")
    return Field(grid, values.astype(float)), time


def _fmt(x: float) -> str:
    return repr(float(x))


def write_probes_csv(header: list[str], rows: np.ndarray, path) -> None:
    lines = [",".join(header)]
    for row in np.atleast_2d(rows):
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def format_verdict(report: ExperimentReport) -> str:
    lines = [f"experiment: {report.kind}"]
    for c in report.checks:
        status = "pass" if c.passed else "fail"
        note = f" note={c.note}" if c.note else ""
        lines.append(f"{c.name}: {status} measured={_fmt(c.measured)} tol={_fmt(c.tol)}{note}")
    lines.append(f"overall: {'pass' if report.passed else 'fail'}")
    return "\n".join(lines) + "\n"
