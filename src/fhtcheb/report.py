"""CSV, JSON and SVG output for the CLI.

CSV files carry a `x,value` (or `x,value,reference`) header and 17
significant digits per float so 64-bit values round-trip losslessly. SVG
plots are self-contained 800x500 documents built from inline polylines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_FMT = "%.17g"


@dataclass(frozen=True)
class CsvData:
    x: np.ndarray
    value: np.ndarray
    reference: np.ndarray | None


def write_csv(path, x, value, reference=None) -> None:
    x = np.asarray(x, dtype=float)
    value = np.asarray(value, dtype=float)
    cols = [x, value]
    header = "x,value"
    if reference is not None:
        cols.append(np.asarray(reference, dtype=float))
        header += ",reference"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(_FMT % v for v in row) + "\n")


def read_csv(path) -> CsvData:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise InputError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if header[:2] != ["x", "value"] or len(header) > 3 or (
        len(header) == 3 and header[2] != "reference"
    ):
        raise InputError(f"{path}:1: expected header 'x,value[,reference]'")
    ncol = len(header)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncol:
            raise InputError(f"{path}:{lineno}: expected {ncol} columns, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise InputError(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows")
    arr = np.array(rows, dtype=float)
    ref = arr[:, 2] if ncol == 3 else None
    return CsvData(x=arr[:, 0], value=arr[:, 1], reference=ref)


def write_json_report(path, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# SVG

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 60, 20, 30, 40
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _finite(a):
    a = np.asarray(a, dtype=float)
    return a[np.isfinite(a)]


def write_svg(path, series, title="") -> None:
    """series: iterable of (label, x array, y array)."""
    series = [(lbl, np.asarray(x, float), np.asarray(y, float)) for lbl, x, y in series]
    xs = np.concatenate([_finite(x) for _, x, _ in series]) if series else np.array([0.0, 1.0])
    ys = np.concatenate([_finite(y) for _, _, y in series]) if series else np.array([0.0, 1.0])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        return _MT + (y1 - y) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for val, xx, yy, anchor in (
        (x0, px(x0), _H - _MB + 16, "middle"),
        (x1, px(x1), _H - _MB + 16, "middle"),
        (y0, _ML - 6, py(y0) + 4, "end"),
        (y1, _ML - 6, py(y1) + 4, "end"),
    ):
        parts.append(
            f'<text x="{xx:.1f}" y="{yy:.1f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="11">{val:.4g}</text>'
        )
    for i, (lbl, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        good = np.isfinite(x) & np.isfinite(y)
        pts = " ".join(
            f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x[good], y[good])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * i
        parts.append(
            f'<line x1="{_W - 150}" y1="{ly - 4}" x2="{_W - 130}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - 124}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{lbl}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


def uniform_grid(n: int) -> np.ndarray:
    """Evenly spaced interior display grid x_k = (2k + 1 - N)/N, k = 0..N-1."""
    k = np.arange(n)
    return (2.0 * k + 1.0 - n) / n
